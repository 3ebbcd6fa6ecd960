// Package txn provides the transaction services the engine and the forms
// runtime sit on: multi-version concurrency control with begin-timestamp
// snapshots, first-updater-wins writes, waits-for-graph deadlock detection,
// a logical write-ahead log, and transaction objects carrying undo
// information for rollback.
//
// The paper's windows are long-lived interactive browse sessions over shared
// relations; under the original table-granularity two-phase locking one open
// window blocked every writer on its table. Under MVCC readers never lock
// anything: they see the versions visible to their snapshot. A writer claims
// a row version by stamping its id into the version's header, and a writer
// that finds a version or a unique key held by another transaction in flight
// waits for that transaction to end.
package txn

import (
	"errors"
	"fmt"
	"sync"
)

// ErrDeadlock is returned to the transaction whose wait would close a cycle
// in the waits-for graph. The requester aborts; every other member of the
// would-be cycle keeps waiting and proceeds.
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrWriteConflict is returned by first-updater-wins conflict detection: the
// row version a transaction set out to change was deleted or superseded by
// another transaction that committed first.
var ErrWriteConflict = errors.New("txn: write conflict")

// LockManager is the waits-for graph between transactions. It holds no
// per-row or per-key state: a row version is held by the stamp in its header,
// and a waiter waits on the holding transaction itself (Txn.waitFor).
//
// There are no timeouts: deadlocks are detected eagerly instead. A waiter
// adds a waiter-to-holder edge and walks the graph before it sleeps; if the
// walk reaches the waiter again the wait fails with ErrDeadlock at once.
// Every cycle is closed by whichever transaction waits last, so checking at
// wait time finds every deadlock without a background detector. A waiter
// sleeps on the holder's done channel, which the holder's finish closes —
// there is no polling.
type LockManager struct {
	mu        sync.Mutex
	waitingOn map[uint64]uint64
	deadlocks uint64
}

// newLockManager creates an empty waits-for graph.
func newLockManager() *LockManager {
	return &LockManager{waitingOn: make(map[uint64]uint64)}
}

// wait blocks transaction waiter until holder has ended, or fails with
// ErrDeadlock when holder's chain of waits leads back to waiter.
func (lm *LockManager) wait(waiter uint64, holder *Txn) error {
	lm.mu.Lock()
	if lm.closesCycle(waiter, holder.id) {
		lm.deadlocks++
		lm.mu.Unlock()
		return fmt.Errorf("%w: transaction %d waiting for transaction %d", ErrDeadlock, waiter, holder.id)
	}
	lm.waitingOn[waiter] = holder.id
	lm.mu.Unlock()
	<-holder.done
	lm.mu.Lock()
	delete(lm.waitingOn, waiter)
	lm.mu.Unlock()
	return nil
}

// closesCycle reports whether the edge waiter -> holder would close a cycle.
// A transaction waits on at most one other, so the walk follows one chain;
// an edge whose holder has ended has no successor, because a transaction
// ends only after its own wait returned. lm.mu must be held.
func (lm *LockManager) closesCycle(waiter, holder uint64) bool {
	for cur, steps := holder, 0; steps <= len(lm.waitingOn); steps++ {
		if cur == waiter {
			return true
		}
		next, waiting := lm.waitingOn[cur]
		if !waiting {
			return false
		}
		cur = next
	}
	return false
}
