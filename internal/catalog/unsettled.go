package catalog

import (
	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/types"
)

// A version is settled when its xmax is 0 and its xmin is below the
// transaction manager's horizon: its creator committed before every present
// snapshot began, so every present and future snapshot sees it, and nothing
// will reclaim it until some transaction stamps an xmax on it. Every other
// version — created by a transaction that is still in flight or that some
// snapshot may still consider in flight, or deleted or superseded by any
// transaction — is unsettled, and the table keeps it in one list.
//
// The list serves two readers. CountVisible corrects a physical count (index
// entries in a key interval, or heap versions) by the unsettled versions a
// snapshot cannot see, so a COUNT(*) costs O(log n + unsettled) instead of a
// pass over the range. Sweep reclaims the dead versions no snapshot can see
// and drops the entries that have settled, so reclaim costs O(unsettled)
// instead of a pass over the heap.

// unsettledVersion is one list entry: the version's record id and copies of
// its header and stored payload, kept equal to the heap's under Table.mu, so
// neither reader fetches a page to judge or key it. The payload is never
// changed in place: a writer may log it as it is.
type unsettledVersion struct {
	rid        storage.RecordID
	meta       storage.VersionMeta
	payload    []byte
	prev, next *unsettledVersion
}

// unsettledList holds a table's unsettled versions in the order they became
// unsettled, each exactly once: entries are keyed by record id, and a version
// leaves the list before its slot can be reused.
type unsettledList struct {
	head, tail *unsettledVersion
	byRID      map[storage.RecordID]*unsettledVersion
}

func (l *unsettledList) get(rid storage.RecordID) *unsettledVersion { return l.byRID[rid] }

func (l *unsettledList) len() int { return len(l.byRID) }

// push appends a version that is not in the list.
func (l *unsettledList) push(rid storage.RecordID, meta storage.VersionMeta, payload []byte) {
	e := &unsettledVersion{rid: rid, meta: meta, payload: payload, prev: l.tail}
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	if l.byRID == nil {
		l.byRID = make(map[storage.RecordID]*unsettledVersion)
	}
	l.byRID[rid] = e
}

func (l *unsettledList) remove(e *unsettledVersion) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(l.byRID, e.rid)
}

// stampXmaxLocked sets the xmax of the version at rid (0 clears it) and keeps
// the list's copy of the header equal to the heap's: a version that was
// settled joins the list, since a stamped version is unsettled. The caller
// holds t.mu.
func (t *Table) stampXmaxLocked(rid storage.RecordID, xid uint64) error {
	meta, payload, err := t.heap.SetXmax(rid, xid)
	if err != nil {
		return err
	}
	if e := t.unsettled.get(rid); e != nil {
		e.meta = meta
		return nil
	}
	if xid == 0 {
		return nil // clearing a stamp leaves a settled version settled
	}
	t.unsettled.push(rid, meta, payload)
	return nil
}

// CountVisible returns how many of the table's versions a scan would yield
// under visible: with idx nil, every version of the heap (a sequential scan);
// otherwise every version whose idx key lies in r (an index scan of r, whose
// Reverse flag is ignored).
//
// It reads no row. Under t.mu's read lock — which every heap, index and list
// change holds for writing — it takes the physical count (the heap's version
// counter, or idx's entry count for r, which is one entry per version), then
// subtracts each unsettled version in range that visible rejects. That is
// exact: a version outside the list is settled, and every snapshot sees a
// settled version. A sweep drops an entry only when its xmin is below the
// horizon, so the creator had finished (an active transaction's own snapshot
// holds the horizon at or below its id until it has left the active set) and
// had committed (a rollback removes its versions before finishing); every
// snapshot alive at the sweep has its xmin at or above the horizon, so sees
// the creator, and every later snapshot finds it committed. A settled version
// rejoins the list in the same critical section that stamps an xmax on it.
// Each list entry carries the version's header as of now, so visible judges
// it exactly as a scan would. The cost is O(log n) for the physical count
// plus one visibility test per unsettled version.
func (t *Table) CountVisible(idx *Index, r btree.Range, visible func(storage.VersionMeta) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int
	if idx == nil {
		n = t.heap.Count()
	} else {
		n = idx.Tree.CountRange(r)
	}
	var key []byte
	for e := t.unsettled.head; e != nil; e = e.next {
		if visible(e.meta) {
			continue
		}
		if idx != nil {
			// The payload was encoded from a validated row, so it has
			// every column of the key.
			key, _ = types.AppendEncodedKey(key[:0], e.payload, idx.colIdx)
			if !r.Contains(key) {
				continue
			}
		}
		n--
	}
	return n
}

// Sweep walks the unsettled list from its head: it physically reclaims each
// version whose xmax is below horizon (deleted or superseded by a transaction
// every present and future snapshot sees as committed, so none can see the
// version) and drops each entry that has settled. It stops at the first entry
// that is neither unless whole is set, in which case it walks the whole list.
// It returns the number of versions reclaimed. A reclaim fetches the version's
// heap page once and reads no row: the entry carries the keys' source.
func (t *Table) Sweep(horizon uint64, whole bool) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	reclaimed := 0
	for e := t.unsettled.head; e != nil; {
		next := e.next
		switch {
		case e.meta.Xmax != 0 && e.meta.Xmax < horizon:
			if err := t.removeVersionLocked(e.rid); err != nil {
				return reclaimed, err
			}
			reclaimed++
		case e.meta.Xmax == 0 && e.meta.Xmin < horizon:
			t.unsettled.remove(e)
		case !whole:
			return reclaimed, nil
		}
		e = next
	}
	return reclaimed, nil
}

// UnsettledVersions returns the length of the table's unsettled list.
func (t *Table) UnsettledVersions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.unsettled.len()
}
