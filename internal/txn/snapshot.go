package txn

import (
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// Snapshot is a begin-timestamp view of the database: it decides, per row
// version, whether the version existed at the moment the snapshot was taken.
//
// There are no commit timestamps to consult. Rollback physically undoes a
// transaction's writes, so any version stamp that survives belongs to a
// transaction that either committed or is still in flight — and "in flight
// at snapshot time" is exactly the active set captured here. A stamp is
// therefore visible iff it is the snapshot owner's own, or it was assigned
// before the snapshot (< xmax) and was not in flight when the snapshot was
// taken.
//
// Snapshots must be Released: the version garbage collector reclaims dead
// versions only below the horizon of all live snapshots, so a leaked
// snapshot pins old versions forever.
type Snapshot struct {
	mgr   *Manager
	key   uint64 // registry key, unique per snapshot
	owner uint64 // owning transaction id; 0 for pure read snapshots
	// xmin is this snapshot's GC-horizon contribution: the smallest
	// transaction id whose effects the snapshot might not see.
	xmin uint64
	// xmax is one past the newest transaction id assigned when the snapshot
	// was taken; ids >= xmax are always invisible.
	xmax uint64
	// active holds, in increasing order, the transactions other than the
	// owner that were in flight when the snapshot was taken.
	active []uint64

	mu       sync.Mutex
	released bool
}

// Visible reports whether the row version carrying meta exists in this
// snapshot's view of the database.
func (s *Snapshot) Visible(meta storage.VersionMeta) bool {
	if !s.sees(meta.Xmin) {
		return false // creator not committed as of the snapshot
	}
	if meta.Xmax == 0 {
		return true // never deleted or superseded
	}
	if s.owner != 0 && meta.Xmax == s.owner {
		return false // deleted by the owning transaction itself
	}
	// Deleted — but only if the deleter is committed as of the snapshot.
	return !s.sees(meta.Xmax)
}

// sees reports whether transaction x's effects are part of the snapshot:
// frozen (x==0), the owner's own writes, or committed before the snapshot.
func (s *Snapshot) sees(x uint64) bool {
	if x == 0 {
		return true
	}
	if s.owner != 0 && x == s.owner {
		return true
	}
	if x >= s.xmax {
		return false
	}
	_, inFlight := slices.BinarySearch(s.active, x)
	return !inFlight
}

// Release deregisters the snapshot, letting the GC horizon advance past it.
// Releasing twice is a no-op.
func (s *Snapshot) Release() {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	s.released = true
	s.mu.Unlock()
	s.mgr.mu.Lock()
	delete(s.mgr.snapshots, s.key)
	s.mgr.mu.Unlock()
}

// AcquireSnapshot registers a pure read snapshot: the begin-timestamp view a
// streaming cursor runs against when no explicit transaction is open. It
// takes no locks of any kind; the caller must Release it when the cursor
// closes.
func (m *Manager) AcquireSnapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquireSnapshotLocked(0)
}

// acquireSnapshotLocked builds and registers a snapshot; m.mu must be held.
func (m *Manager) acquireSnapshotLocked(owner uint64) *Snapshot {
	return m.takeSnapshotLocked(new(Snapshot), owner)
}

// takeSnapshotLocked fills s, a zero Snapshot, as a snapshot owned by owner
// and registers it; m.mu must be held. A transaction's snapshot lives in the
// transaction, and its active set allocates nothing while no other
// transaction is in flight.
func (m *Manager) takeSnapshotLocked(s *Snapshot, owner uint64) *Snapshot {
	s.mgr, s.owner, s.xmax = m, owner, m.lastID+1
	s.xmin = s.xmax
	for id := range m.active {
		if id < s.xmin {
			s.xmin = id
		}
		if id != owner {
			s.active = append(s.active, id)
		}
	}
	slices.Sort(s.active)
	m.snapSeq++
	s.key = m.snapSeq
	m.snapshots[s.key] = s
	m.snapshotsTaken++
	return s
}

// horizon returns the transaction id below which every transaction has
// finished and every live snapshot sees it as finished: a dead version whose
// deleting transaction id is below the horizon is invisible to every present
// and future snapshot and can be physically reclaimed.
func (m *Manager) horizon() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.lastID + 1
	for _, s := range m.snapshots {
		if s.xmin < h {
			h = s.xmin
		}
	}
	return h
}

// Sweep runs one table's sweep at the current horizon (see
// catalog.Table.Sweep) and counts the versions it reclaimed. A commit sweeps
// each table it wrote from the head of the table's unsettled list; whole
// walks the entire list. A sweep fails only when the buffer pool cannot fetch
// a page, and the versions it did not reach stay listed for the next one.
//
//wowvet:ignore deadapi -- whole-list sweeps are the vacuum the engine, catalog and server tests run against pinned snapshots
func (m *Manager) Sweep(t *catalog.Table, whole bool) (int, error) {
	n, err := t.Sweep(m.horizon(), whole)
	if n > 0 {
		m.mu.Lock()
		m.versionsGCed += uint64(n)
		m.mu.Unlock()
	}
	return n, err
}
