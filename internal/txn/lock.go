// Package txn provides the transaction services the engine and the forms
// runtime sit on: multi-version concurrency control with begin-timestamp
// snapshots, exclusive row-level locks for writers with first-updater-wins
// conflict detection, waits-for-graph deadlock detection, a logical
// write-ahead log, and transaction objects carrying undo information for
// rollback.
//
// The paper's windows are long-lived interactive browse sessions over shared
// relations; under the original table-granularity two-phase locking one open
// window blocked every writer on its table. Under MVCC readers never lock
// anything: they see the versions visible to their snapshot, and writers
// lock only the rows they change.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// ErrDeadlock is returned to the transaction whose lock request would close a
// cycle in the waits-for graph. The requester aborts; every other member of
// the would-be cycle keeps its locks and proceeds.
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrWriteConflict is returned by first-updater-wins conflict detection: the
// row version a transaction set out to change was deleted or superseded by
// another transaction that committed first.
var ErrWriteConflict = errors.New("txn: write conflict")

// lockKey names one lockable resource: a row version (rid set) or a unique
// index key (index/key set). Key locks serialise unique-constraint probes so
// two in-flight inserts of the same key cannot both pass the liveness check.
type lockKey struct {
	table string
	index string
	key   string
	rid   storage.RecordID
}

func (k lockKey) String() string {
	if k.index != "" {
		return fmt.Sprintf("%s.%s[%x]", k.table, k.index, k.key)
	}
	return fmt.Sprintf("%s@%s", k.table, k.rid)
}

// rowLock is one exclusive lock. owner==0 means released with waiters still
// racing to claim it; entries with no owner and no waiters are removed.
type rowLock struct {
	owner   uint64
	waiters int
	cond    *sync.Cond
}

// LockManager hands out exclusive row and key locks to transactions.
//
// There are no shared locks and no timeouts: readers run against snapshots
// and never lock anything, and deadlocks are detected eagerly instead of
// being timed out. A blocked request adds a waiter-to-holder edge to the
// waits-for graph and walks it before sleeping; if the walk reaches the
// requester again the request fails with ErrDeadlock immediately. Every
// cycle is closed by whichever transaction blocks last, so checking at block
// time (with holders resolved at walk time, not edge-insertion time) finds
// every deadlock without a background detector.
//
// Waiters sleep on a per-lock condition variable and are woken by a
// Broadcast when the lock is released — there is no polling.
type LockManager struct {
	mu        sync.Mutex
	locks     map[lockKey]*rowLock
	held      map[uint64]map[lockKey]struct{}
	waitingOn map[uint64]lockKey
	waits     uint64
	deadlocks uint64
}

// newLockManager creates an empty lock manager.
func newLockManager() *LockManager {
	return &LockManager{
		locks:     make(map[lockKey]*rowLock),
		held:      make(map[uint64]map[lockKey]struct{}),
		waitingOn: make(map[uint64]lockKey),
	}
}

// lockRow acquires the exclusive lock on one row version for owner, blocking
// until it is granted or the wait would deadlock. Re-acquiring a lock the
// owner already holds is a no-op.
func (lm *LockManager) lockRow(owner uint64, table string, rid storage.RecordID) error {
	return lm.lock(owner, lockKey{table: table, rid: rid})
}

// lockKey acquires the exclusive lock on a unique-index key for owner.
func (lm *LockManager) lockKey(owner uint64, table, index string, key []byte) error {
	return lm.lock(owner, lockKey{table: table, index: index, key: string(key)})
}

func (lm *LockManager) lock(owner uint64, k lockKey) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for {
		l := lm.locks[k]
		if l == nil {
			lm.locks[k] = &rowLock{owner: owner}
			lm.noteHeld(owner, k)
			return nil
		}
		if l.owner == owner {
			return nil
		}
		if l.owner == 0 {
			l.owner = owner
			lm.noteHeld(owner, k)
			return nil
		}
		// Blocked: publish the wait edge, then check whether it closes a
		// cycle before going to sleep.
		lm.waitingOn[owner] = k
		lm.waits++
		if lm.wouldDeadlock(owner, k) {
			delete(lm.waitingOn, owner)
			lm.deadlocks++
			return fmt.Errorf("%w: transaction %d waiting for %s held by transaction %d",
				ErrDeadlock, owner, k, l.owner)
		}
		if l.cond == nil {
			l.cond = sync.NewCond(&lm.mu)
		}
		l.waiters++
		for l.owner != 0 {
			l.cond.Wait()
		}
		l.waiters--
		delete(lm.waitingOn, owner)
		// Loop to race the other waiters for the released lock.
	}
}

// wouldDeadlock reports whether start's wait on k closes a waits-for cycle.
// Holders are resolved against the live lock table at each hop, so the walk
// reflects grants and releases that happened after other edges were added.
func (lm *LockManager) wouldDeadlock(start uint64, k lockKey) bool {
	visited := make(map[uint64]struct{})
	cur := lm.locks[k].owner
	for {
		if cur == start {
			return true
		}
		if _, seen := visited[cur]; seen {
			return false
		}
		visited[cur] = struct{}{}
		next, waiting := lm.waitingOn[cur]
		if !waiting {
			return false
		}
		l := lm.locks[next]
		if l == nil || l.owner == 0 {
			return false
		}
		cur = l.owner
	}
}

func (lm *LockManager) noteHeld(owner uint64, k lockKey) {
	set := lm.held[owner]
	if set == nil {
		set = make(map[lockKey]struct{})
		lm.held[owner] = set
	}
	set[k] = struct{}{}
}

// releaseAll drops every lock owner holds, waking the waiters of each.
func (lm *LockManager) releaseAll(owner uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for k := range lm.held[owner] {
		l := lm.locks[k]
		if l == nil || l.owner != owner {
			continue
		}
		if l.waiters == 0 {
			delete(lm.locks, k)
			continue
		}
		l.owner = 0
		l.cond.Broadcast()
	}
	delete(lm.held, owner)
}

// Stats returns how many lock requests had to wait and how many deadlocks
// were detected.
func (lm *LockManager) Stats() (waits, deadlocks uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.waits, lm.deadlocks
}
