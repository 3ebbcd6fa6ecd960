package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	StateActive State = iota
	// StateCommitting is the window between the decision to commit and the
	// commit record reaching stable storage. The transaction accepts no more
	// work and is not yet visible to anyone else.
	StateCommitting
	StateCommitted
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitting:
		return "committing"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrNotActive is returned when an operation is attempted on a finished
// transaction.
var ErrNotActive = errors.New("txn: transaction is not active")

// ErrCommitNotDurable is returned by Commit when the commit record could not
// be made durable (the log append or fsync failed). The transaction's
// changes have been physically undone and its snapshot released —
// the commit did not happen, and the caller may safely retry the work in a
// new transaction against a healthy log.
var ErrCommitNotDurable = errors.New("txn: commit not durable")

// ErrDiverged is returned by the Applier for a BEGIN naming an id this
// database has already used (see Follow): the log describes another history.
var ErrDiverged = errors.New("txn: database diverged from the log")

// Manager creates transactions and owns the waits-for graph, the log, the
// transaction-id sequence and the snapshot registry.
type Manager struct {
	locks *LockManager
	wal   *WAL

	ckptMu sync.Mutex // serialises Checkpoint, from its image to the rename

	mu     sync.Mutex
	lastID uint64
	// follower marks a manager that takes its ids from another's log.
	follower bool
	active   map[uint64]*Txn
	// snapshots registers every live snapshot (transactional or pure read)
	// so the GC horizon can be computed; snapSeq keys the registry.
	snapshots map[uint64]*Snapshot
	snapSeq   uint64

	committed      uint64
	aborted        uint64
	snapshotsTaken uint64
	conflicts      uint64
	versionsGCed   uint64
	checkpoints    uint64

	// ddlHistory is the committed schema history in execution order. A
	// transaction's DDL joins it inside finish(true)'s critical section —
	// atomically with the transaction leaving the active set — so a
	// checkpoint observes "in history" and "visible to my snapshot" as the
	// same fact.
	ddlHistory []string
}

// NewManager creates a transaction manager. wal may be nil to disable logging.
func NewManager(wal *WAL) *Manager {
	return &Manager{
		locks:     newLockManager(),
		wal:       wal,
		active:    make(map[uint64]*Txn),
		snapshots: make(map[uint64]*Snapshot),
	}
}

// WAL returns the manager's log (may be nil).
func (m *Manager) WAL() *WAL { return m.wal }

// Stats returns how many transactions have committed and aborted.
func (m *Manager) Stats() (committed, aborted uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.committed, m.aborted
}

// MVCCStats are the manager's concurrency-control counters.
type MVCCStats struct {
	SnapshotsTaken    uint64
	WriteConflicts    uint64
	DeadlocksDetected uint64
	VersionsGCed      uint64
}

// MVCC returns the manager's concurrency-control counters.
func (m *Manager) MVCC() MVCCStats {
	m.locks.mu.Lock()
	deadlocks := m.locks.deadlocks
	m.locks.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	return MVCCStats{
		SnapshotsTaken:    m.snapshotsTaken,
		WriteConflicts:    m.conflicts,
		DeadlocksDetected: deadlocks,
		VersionsGCed:      m.versionsGCed,
	}
}

// Follow marks the manager as following another database's log, as a
// replica does: the Applier adopts its BEGINs in increasing id order and
// refuses one at or below the last id this manager assigned or adopted. A
// local transaction takes the id the log's next BEGIN names, so it diverges
// a follower; a replica's reads take snapshots, which take no id.
func (m *Manager) Follow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.follower = true
}

// Begin starts a transaction: it assigns the id, registers the transaction
// as active and takes its snapshot in one m.mu critical section, so no
// concurrent snapshot can observe the id as assigned-but-untracked. With a
// log, that section runs under the log's mutex, at the offset the BEGIN
// record then lands at: the log carries BEGIN records in id order, and a
// checkpoint that finds the transaction active finds its BEGIN offset too.
// Snapshots do not wait on the write, which happens after m.mu is released.
func (m *Manager) Begin() (*Txn, error) {
	if m.wal == nil {
		return m.begin(-1), nil
	}
	m.wal.mu.Lock()
	defer m.wal.mu.Unlock()
	t := m.begin(m.wal.off)
	if _, err := m.wal.writeLocked(encodeFrame(encodeRecord(Record{Kind: RecordBegin, Txn: t.id}))); err != nil {
		t.finish(false)
		return nil, err
	}
	return t, nil
}

// begin assigns the next id to a new active transaction whose BEGIN record
// starts at log offset beginOff (-1 without a log). A checkpoint takes that
// offset as a lower bound for tail replay while the transaction is in
// flight, so every record the transaction will ever write stays reachable.
func (m *Manager) begin(beginOff int64) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastID++
	return m.registerLocked(&Txn{id: m.lastID, mgr: m, state: StateActive, beginOff: beginOff, wal: m.wal})
}

// adopt registers a transaction under a logged id for the Applier, as Begin
// registers one; it logs nothing.
func (m *Manager) adopt(id uint64) (*Txn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, live := m.active[id]; live || (m.follower && id <= m.lastID) {
		return nil, fmt.Errorf("%w: the log begins transaction %d, an id this database has already used", ErrDiverged, id)
	}
	m.lastID = max(m.lastID, id)
	return m.registerLocked(&Txn{id: id, mgr: m, state: StateActive, beginOff: -1, adopted: true}), nil
}

// registerLocked enters t into the active set and takes its snapshot; m.mu
// must be held.
func (m *Manager) registerLocked(t *Txn) *Txn {
	t.done = make(chan struct{})
	m.active[t.id] = t
	t.snap = m.acquireSnapshotLocked(t.id)
	return t
}

// inFlight reports whether transaction id is in the active set.
func (m *Manager) inFlight(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.active[id]
	return ok
}

// undoEntry reverses one change on rollback.
type undoEntry struct {
	kind   RecordKind
	table  *catalog.Table
	rid    storage.RecordID // the pre-existing version (insert: the new one)
	newRID storage.RecordID // update only: the version this txn created
}

// Txn is one transaction: a snapshot, the row versions it has claimed and
// the undo records needed to roll its changes back.
//
// Writes follow first-updater-wins snapshot isolation: each write claims the
// target row version by stamping its header (claimVersion), and fails with
// ErrWriteConflict when another transaction already deleted or superseded it
// — even if that happened after this transaction's snapshot.
type Txn struct {
	id    uint64
	mgr   *Manager
	state State
	snap  *Snapshot
	// beginOff is the log offset of this transaction's Begin record (-1 when
	// logging is disabled or the transaction is adopted). Set before the
	// transaction joins the active set; the checkpointer reads it under
	// mgr.mu while computing its tail-replay start.
	beginOff int64
	// wal is where the transaction's records go: none for one the Applier
	// adopted, whose records are in the log being applied; nor does such a
	// transaction probe unique keys or wait on another.
	wal     *WAL
	adopted bool
	// done is closed by finish, once the transaction has left the active
	// set; writers waiting on it sleep on this channel.
	done chan struct{}

	mu         sync.Mutex
	undo       []undoEntry
	pendingDDL []string // DDL run under this txn, joins ddlHistory on commit
}

// Snapshot returns the transaction's begin-timestamp snapshot. It is owned
// by the transaction and released when the transaction finishes.
func (t *Txn) Snapshot() *Snapshot { return t.snap }

// waitFor blocks until transaction id has ended; it returns at once when id
// is not in flight. ErrDeadlock refuses a wait that would close a cycle.
func (t *Txn) waitFor(id uint64) error {
	t.mgr.mu.Lock()
	holder := t.mgr.active[id]
	t.mgr.mu.Unlock()
	if holder == nil {
		return nil
	}
	return t.mgr.locks.wait(t.id, holder)
}

// insertVersion writes row as a new version of table, probing its unique
// keys in the same step (catalog.Table.InsertVersion), and returns the
// version's record id and the validated row the table stored, which the
// caller logs and must not modify. A key whose fate rests with another
// transaction makes t wait for that transaction to end and probe again. A
// key found held by the same transaction after it ended was freed by a
// delete or update that committed after t's snapshot, which still sees the
// freed version, so the insert fails with ErrWriteConflict, as an update of
// that version would. supersedes is the row an update replaces, whose keys
// are t's own.
//
// An adopted transaction probes nothing: its log was checked as it was
// written, and the Applier applies one record at a time, so a wait on
// another adopted transaction would wait on a COMMIT that only it could
// apply. A log written before probes waited on a key's freer may also hold
// an INSERT of the key ahead of the DELETE that freed it, which a probe
// would fail on replay.
func (t *Txn) insertVersion(table *catalog.Table, row, supersedes types.Tuple) (storage.RecordID, types.Tuple, error) {
	var probe *catalog.KeyProbe
	if !t.adopted {
		probe = &catalog.KeyProbe{InFlight: t.mgr.inFlight, Sees: t.snap.Visible, Supersedes: supersedes}
	}
	var ended uint64 // a holder known to have left the active set
	for {
		rid, stored, holder, err := table.InsertVersion(row, t.id, probe)
		if err != nil || holder == 0 {
			return rid, stored, err
		}
		if holder == ended {
			return rid, nil, t.conflict("a key of %s was freed by transaction %d after this transaction's snapshot", table.Name(), holder)
		}
		if err := t.waitFor(holder); err != nil {
			return rid, nil, err
		}
		ended = holder
	}
}

// conflict counts a write conflict and returns ErrWriteConflict with the
// formatted detail.
func (t *Txn) conflict(format string, args ...any) error {
	t.mgr.mu.Lock()
	t.mgr.conflicts++
	t.mgr.mu.Unlock()
	return fmt.Errorf("%w: "+format, append([]any{ErrWriteConflict}, args...)...)
}

// active reports whether the transaction can still read and write.
func (t *Txn) active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state == StateActive
}

// Insert inserts a row into the table under this transaction: it validates
// the row and probes its unique keys for live duplicates, stamps the new
// version with the transaction id, logs it and records undo information.
func (t *Txn) Insert(table *catalog.Table, row types.Tuple) (storage.RecordID, error) {
	if !t.active() {
		return storage.RecordID{}, ErrNotActive
	}
	rid, validated, err := t.insertVersion(table, row, nil)
	if err != nil {
		return storage.RecordID{}, err
	}
	// Undo is recorded before the log append: if the append fails, rollback
	// must still be able to remove the version that already exists.
	t.mu.Lock()
	t.undo = append(t.undo, undoEntry{kind: RecordInsert, table: table, rid: rid})
	t.mu.Unlock()
	if err := t.wal.Append(Record{Kind: RecordInsert, Txn: t.id, Table: table.Name(), New: validated}); err != nil {
		return rid, err
	}
	return rid, nil
}

// claimVersion claims the version at rid by stamping its xmax
// (catalog.Table.ClaimVersion) and returns its row. A version stamped by
// another transaction in flight makes t wait for that transaction to end and
// try again. A stamp whose transaction has ended is a committed one — a
// rollback clears its stamps before it leaves the active set — so it fails
// with ErrWriteConflict, as does t's own stamp, and any stamp when t is
// adopted, which waits on nothing.
func (t *Txn) claimVersion(table *catalog.Table, rid storage.RecordID) (types.Tuple, error) {
	var ended uint64 // a holder known to have left the active set
	for {
		meta, row, err := table.ClaimVersion(rid, t.id)
		if err != nil {
			return nil, err
		}
		holder := meta.Xmax
		if holder == 0 {
			return row, nil
		}
		if holder == ended || holder == t.id || t.adopted {
			return nil, t.conflict("row %s of %s was updated by transaction %d", rid, table.Name(), holder)
		}
		if err := t.waitFor(holder); err != nil {
			return nil, err
		}
		ended = holder
	}
}

// Update supersedes the row version at rid with newRow under this
// transaction: the old version is stamped deleted-by-t, and the new version,
// newRow validated when it is inserted, is stamped created-by-t. A row that
// fails validation leaves the old version unclaimed.
func (t *Txn) Update(table *catalog.Table, rid storage.RecordID, newRow types.Tuple) (storage.RecordID, error) {
	if !t.active() {
		return rid, ErrNotActive
	}
	oldRow, err := t.claimVersion(table, rid)
	if err != nil {
		return rid, err
	}
	newRID, validated, err := t.insertVersion(table, newRow, oldRow)
	if err != nil {
		// A failed update leaves the old version unclaimed, as it found it.
		if clearErr := table.ClearXmax(rid); clearErr != nil {
			return rid, errors.Join(err, clearErr)
		}
		return rid, err
	}
	t.mu.Lock()
	t.undo = append(t.undo, undoEntry{kind: RecordUpdate, table: table, rid: rid, newRID: newRID})
	t.mu.Unlock()
	if err := t.wal.Append(Record{Kind: RecordUpdate, Txn: t.id, Table: table.Name(), Old: oldRow, New: validated}); err != nil {
		return newRID, err
	}
	return newRID, nil
}

// Delete marks the row version at rid deleted by this transaction. The
// version stays in place for older snapshots until a sweep reclaims it.
func (t *Txn) Delete(table *catalog.Table, rid storage.RecordID) error {
	if !t.active() {
		return ErrNotActive
	}
	oldRow, err := t.claimVersion(table, rid)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.undo = append(t.undo, undoEntry{kind: RecordDelete, table: table, rid: rid})
	t.mu.Unlock()
	if err := t.wal.Append(Record{Kind: RecordDelete, Txn: t.id, Table: table.Name(), Old: oldRow}); err != nil {
		return err
	}
	return nil
}

// LogDDL records a schema statement so recovery can rebuild the catalog.
// The statement joins the manager's committed DDL history when this
// transaction commits, which is how checkpoint images carry the schema.
func (t *Txn) LogDDL(text string) error {
	if !t.active() {
		return ErrNotActive
	}
	if err := t.wal.Append(Record{Kind: RecordDDL, Txn: t.id, DDL: text}); err != nil {
		return err
	}
	t.mu.Lock()
	t.pendingDDL = append(t.pendingDDL, text)
	t.mu.Unlock()
	return nil
}

// Commit makes the transaction's changes permanent, releases its snapshot,
// wakes the writers waiting on it, and sweeps each table it wrote.
//
// Durable, then visible: the commit record must be on stable storage before
// anything marks the transaction committed, so no reader can observe state a
// crash could still erase. The durable append rides the group-commit fsync
// with every other concurrent committer.
//
// If durability fails, the commit did not happen: the transaction's changes
// are physically undone, its snapshot is released and its waiters woken (so
// the GC horizon advances and later writers are not wedged), and the caller gets
// ErrCommitNotDurable wrapping the cause.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.state != StateActive {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.state = StateCommitting
	undo := t.undo
	t.mu.Unlock()

	if err := t.wal.AppendDurable(Record{Kind: RecordCommit, Txn: t.id}); err != nil {
		// The log is poisoned past this point (sticky failure), so no abort
		// record can be written either; recovery treats a transaction with
		// no durable commit record as aborted, which is now the truth.
		undoErr := applyUndo(undo)
		t.mu.Lock()
		t.state = StateAborted
		t.undo = nil
		t.mu.Unlock()
		t.finish(false)
		failure := fmt.Errorf("%w: %w", ErrCommitNotDurable, err)
		if undoErr != nil {
			return errors.Join(failure, undoErr)
		}
		return failure
	}

	t.mu.Lock()
	t.state = StateCommitted
	t.undo = nil
	t.mu.Unlock()
	t.finish(true)
	t.sweepWritten(undo)
	return nil
}

// sweepWritten sweeps each table the undo entries name from the head of its
// unsettled list, once the transaction has ended and its snapshot is gone: a
// committed transaction's versions joined the list's tail, a rolled-back
// update left the version it restored listed, and older entries may have
// settled or died meanwhile.
func (t *Txn) sweepWritten(undo []undoEntry) {
	var written []*catalog.Table
	for _, e := range undo {
		if slices.Contains(written, e.table) {
			continue
		}
		written = append(written, e.table)
		if _, err := t.mgr.Sweep(e.table, false); err != nil {
			// A failed sweep changes no outcome: what it did not reach
			// stays listed, and the table's next sweep retries it.
			continue
		}
	}
}

// Rollback physically undoes the transaction's changes in reverse order,
// then ends the transaction and sweeps the tables it wrote. The transaction
// stays registered as active until the undo completes, so concurrent
// snapshots never treat its surviving stamps as committed, nor does a writer
// waiting on it.
func (t *Txn) Rollback() error {
	t.mu.Lock()
	if t.state != StateActive {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.state = StateAborted
	undo := t.undo
	t.undo = nil
	t.mu.Unlock()

	firstErr := applyUndo(undo)
	if err := t.wal.Append(Record{Kind: RecordAbort, Txn: t.id}); err != nil && firstErr == nil {
		firstErr = err
	}
	t.finish(false)
	t.sweepWritten(undo)
	return firstErr
}

// applyUndo physically reverses the entries in reverse order, returning the
// first error while still attempting every entry.
func applyUndo(undo []undoEntry) error {
	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		e := undo[i]
		var err error
		switch e.kind {
		case RecordInsert:
			err = e.table.RemoveVersion(e.rid)
		case RecordDelete:
			err = e.table.ClearXmax(e.rid)
		case RecordUpdate:
			if err = e.table.RemoveVersion(e.newRID); err == nil {
				err = e.table.ClearXmax(e.rid)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("txn: rollback of %s on %s: %w", e.kind, e.table.Name(), err)
		}
	}
	return firstErr
}

// finish leaves the active set before releasing the snapshot: until then the
// snapshot holds the horizon at or below t.id, so no sweep can settle one of
// t's versions while a new snapshot could still find t in flight. It wakes
// the writers waiting on t once t has left the active set, so a waiter that
// re-reads a stamp of t's finds t ended.
func (t *Txn) finish(committed bool) {
	t.mgr.mu.Lock()
	delete(t.mgr.active, t.id)
	if committed {
		t.mgr.committed++
		// Atomic with leaving the active set: a checkpoint under this mutex
		// sees the transaction's DDL in the history exactly when its effects
		// are visible to the checkpoint's snapshot.
		t.mgr.ddlHistory = append(t.mgr.ddlHistory, t.pendingDDL...)
	} else {
		t.mgr.aborted++
	}
	t.mgr.mu.Unlock()
	close(t.done)
	t.snap.Release()
}
