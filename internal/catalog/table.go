package catalog

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/types"
)

// Re-export the value-model names the catalog's API is expressed in, so that
// callers constructing schemas and tuples for catalog tables read naturally.
type (
	// Schema is the column layout of a table (alias of types.Schema).
	Schema = types.Schema
	// Tuple is one row of values (alias of types.Tuple).
	Tuple = types.Tuple
)

// ErrUniqueViolation is returned when an insert or update would duplicate a
// key in a unique index (including the primary key).
var ErrUniqueViolation = errors.New("catalog: unique constraint violation")

// ErrNoMatchingRow is returned by Table.Locate when no admissible version
// equals the image. For a logged before-image that means the local table has
// diverged from the history the log describes: crash recovery and the replica
// applier both treat it as fatal.
var ErrNoMatchingRow = errors.New("catalog: no row matches the before-image")

// Table is one base relation: a schema, a heap file holding the row versions,
// and the indexes kept consistent with it.
//
// Every heap record carries a storage.VersionMeta header. Rows written through
// the transaction layer are stamped with the writing transaction's id; crash
// recovery installs versions with their logged xmin (InstallVersion) and
// replays updates and deletes in place (Update, RemoveVersion).
// Indexes hold entries for every version, live or dead: scans filter by
// visibility per record id at fetch time instead of chasing version chains.
//
// The versions that are not settled — not yet visible to every snapshot, or
// carrying an xmax — are also kept in one list (see unsettled.go), changed in
// the same t.mu critical section as the heap and indexes. It lets
// CountVisible answer a COUNT(*) from the index's entry counts and lets Sweep
// reclaim dead versions without scanning the heap.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  *Schema
	heap    *storage.HeapFile
	indexes []*Index
	// unsettled lists the versions that are not settled; guarded by mu.
	unsettled unsettledList
	// located is the owning catalog's Locate accounting, shared by its tables.
	located *locateCounters
}

// locateCounters count Locate calls by the access path that served them.
type locateCounters struct {
	seeks atomic.Uint64
	scans atomic.Uint64
}

func newTable(name string, schema *Schema, pool *storage.BufferPool, located *locateCounters) *Table {
	return &Table{name: name, schema: schema, heap: storage.NewHeapFile(pool), located: located}
}

// Name returns the table's (lower-cased) name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema. Callers must not modify it.
func (t *Table) Schema() *Schema { return t.schema }

// Indexes returns the table's indexes. Callers must not modify the slice.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Index, len(t.indexes))
	copy(out, t.indexes)
	return out
}

// indexByName returns the index with the given name, or nil.
func (t *Table) indexByName(name string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, idx := range t.indexes {
		if strings.EqualFold(idx.Name, name) {
			return idx
		}
	}
	return nil
}

// IndexOn returns an index whose leading column is the named column
// (preferring one that covers exactly that column), or nil when none exists.
// The planner uses it to pick access paths for single-column predicates.
func (t *Table) IndexOn(column string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var candidate *Index
	for _, idx := range t.indexes {
		if !strings.EqualFold(idx.Columns[0], column) {
			continue
		}
		if len(idx.Columns) == 1 {
			return idx
		}
		if candidate == nil {
			candidate = idx
		}
	}
	return candidate
}

// PrimaryIndex returns the primary-key index, or nil for keyless tables.
func (t *Table) PrimaryIndex() *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, idx := range t.indexes {
		if strings.HasSuffix(idx.Name, "_pkey") {
			return idx
		}
	}
	return nil
}

// createIndex registers an index over the named columns. The caller is
// responsible for backfilling when the table already has rows.
func (t *Table) createIndex(name string, columns []string, unique bool) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(columns) == 0 {
		return nil, fmt.Errorf("catalog: index %q needs at least one column", name)
	}
	for _, idx := range t.indexes {
		if strings.EqualFold(idx.Name, name) {
			return nil, fmt.Errorf("catalog: index %q already exists on table %q", name, t.name)
		}
	}
	colIdx := make([]int, len(columns))
	for i, col := range columns {
		pos, err := t.schema.ColumnIndex(col)
		if err != nil {
			return nil, fmt.Errorf("catalog: index %q: %w", name, err)
		}
		colIdx[i] = pos
	}
	idx := &Index{
		Name:    name,
		Table:   t.name,
		Columns: append([]string(nil), columns...),
		colIdx:  colIdx,
		Unique:  unique,
		// The tree is physically non-unique even for unique indexes: it holds
		// an entry per version, and several versions of one row share a key.
		// Logical uniqueness is enforced over live versions at write time.
		Tree: btree.New(false),
	}
	t.indexes = append(t.indexes, idx)
	return idx, nil
}

// backfillIndex inserts every existing row version into the index. For a
// unique index, duplicate keys among *live* versions fail the backfill (dead
// versions sharing a key are the normal MVCC shape, not a violation).
func (t *Table) backfillIndex(idx *Index) error {
	liveKeys := make(map[string]struct{})
	for it := t.VersionIterator(); ; {
		rid, meta, tuple, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		key := idx.KeyFor(tuple)
		if idx.Unique && meta.Xmax == 0 {
			if _, dup := liveKeys[string(key)]; dup {
				return fmt.Errorf("%w: cannot create unique index %q: duplicate value for (%s)",
					ErrUniqueViolation, idx.Name, strings.Join(idx.Columns, ", "))
			}
			liveKeys[string(key)] = struct{}{}
		}
		if err := idx.Tree.Insert(key, rid); err != nil {
			return err
		}
	}
}

// dropIndex removes an index by name.
func (t *Table) dropIndex(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, idx := range t.indexes {
		if strings.EqualFold(idx.Name, name) {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			return
		}
	}
}

// InsertVersion appends a new row version stamped xmin=xid and maintains
// every index. Unique constraints are NOT checked here: the transaction
// layer probes live versions under its key locks before calling.
func (t *Table) InsertVersion(tuple Tuple, xid uint64) (storage.RecordID, error) {
	return t.insertStamped(tuple, xid, xid != 0)
}

// InstallVersion is InsertVersion for crash recovery, whose versions join no
// unsettled list: recovery installs every version before it advances the id
// sequence past the log and before any snapshot exists, and once the
// sequence has advanced every such version is settled.
func (t *Table) InstallVersion(tuple Tuple, xmin uint64) (storage.RecordID, error) {
	return t.insertStamped(tuple, xmin, false)
}

func (t *Table) insertStamped(tuple Tuple, xmin uint64, unsettled bool) (storage.RecordID, error) {
	validated, err := tuple.ValidateAgainst(t.schema)
	if err != nil {
		return storage.RecordID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertVersionLocked(validated, storage.VersionMeta{Xmin: xmin}, unsettled)
}

// insertVersionLocked writes the version and its index entries, and lists it
// when it is unsettled. The caller holds t.mu.
func (t *Table) insertVersionLocked(validated Tuple, meta storage.VersionMeta, unsettled bool) (storage.RecordID, error) {
	rid, err := t.heap.InsertVersion(meta, types.EncodeTuple(nil, validated))
	if err != nil {
		return storage.RecordID{}, err
	}
	for _, idx := range t.indexes {
		if err := idx.Tree.Insert(idx.KeyFor(validated), rid); err != nil {
			// Roll the row and earlier index entries back so the table and
			// indexes stay consistent.
			_ = t.heap.Delete(rid)
			for _, undo := range t.indexes {
				if undo == idx {
					break
				}
				undo.Tree.Delete(undo.KeyFor(validated), rid)
			}
			return storage.RecordID{}, err
		}
	}
	if unsettled {
		t.unsettled.push(rid, meta, validated)
	}
	return rid, nil
}

// AddVersion supersedes the version at oldRID with a new version of the row:
// it stamps xmax=xid on the old version in place and inserts the new tuple
// stamped xmin=xid with its version-chain link pointing at oldRID. Index
// entries for the old version remain (snapshots may still need them); a sweep
// reclaims both together. Returns the new version's record id.
func (t *Table) AddVersion(oldRID storage.RecordID, tuple Tuple, xid uint64) (storage.RecordID, error) {
	validated, err := tuple.ValidateAgainst(t.schema)
	if err != nil {
		return storage.RecordID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.stampXmaxLocked(oldRID, xid); err != nil {
		return storage.RecordID{}, err
	}
	newRID, err := t.insertVersionLocked(validated, storage.VersionMeta{
		Xmin: xid, Prev: oldRID, HasPrev: true,
	}, true)
	if err != nil {
		_ = t.stampXmaxLocked(oldRID, 0) // restore the old version
		return storage.RecordID{}, err
	}
	return newRID, nil
}

// MarkDeleted stamps xmax=xid on the version at rid, hiding it from
// snapshots that see xid as committed.
func (t *Table) MarkDeleted(rid storage.RecordID, xid uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.stampXmaxLocked(rid, xid); err != nil {
		return err
	}
	return nil
}

// ClearXmax removes the delete/supersede stamp from the version at rid
// (rollback undo for MarkDeleted and the AddVersion old-side stamp).
func (t *Table) ClearXmax(rid storage.RecordID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.stampXmaxLocked(rid, 0); err != nil {
		return err
	}
	return nil
}

// RemoveVersion physically deletes the version at rid and its index entries
// (rollback undo for inserts, and recovery's replay of a delete).
func (t *Table) RemoveVersion(rid storage.RecordID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.removeVersionLocked(rid)
}

// removeVersionLocked deletes the version at rid, its index entries and its
// list entry. An unsettled version's row comes from its list entry,
// so only the delete itself touches the heap page.
func (t *Table) removeVersionLocked(rid storage.RecordID) error {
	e := t.unsettled.get(rid)
	var tuple Tuple
	if e != nil {
		tuple = e.row
	} else {
		var err error
		if _, tuple, err = t.GetVersion(rid); err != nil {
			return err
		}
	}
	if err := t.heap.Delete(rid); err != nil {
		return err
	}
	if e != nil {
		t.unsettled.remove(e)
	}
	for _, idx := range t.indexes {
		idx.Tree.Delete(idx.KeyFor(tuple), rid)
	}
	return nil
}

// GetVersion returns the version header and row at rid.
func (t *Table) GetVersion(rid storage.RecordID) (storage.VersionMeta, Tuple, error) {
	meta, payload, err := t.heap.GetVersion(rid)
	if err != nil {
		return storage.VersionMeta{}, nil, err
	}
	tuple, err := types.DecodeTuple(payload)
	if err != nil {
		return storage.VersionMeta{}, nil, err
	}
	return meta, tuple, nil
}

// LiveKeyExists reports whether any live version (xmax==0, including
// uncommitted inserts of in-flight transactions) is indexed under key.
// First-writer-wins unique enforcement: callers hold the key lock, so a
// concurrent insert of the same key cannot race past the probe.
func (t *Table) LiveKeyExists(idx *Index, key []byte) bool {
	for _, rid := range idx.Tree.Search(key) {
		meta, _, err := t.heap.GetVersion(rid)
		if err == nil && meta.Xmax == 0 {
			return true
		}
	}
	return false
}

// Update replaces the row at rid with tuple in place, keeping every index
// consistent. This is the physical path crash recovery replays updates with:
// it preserves the existing version header rather than growing the chain.
// It returns the row's (possibly new) record identifier.
func (t *Table) Update(rid storage.RecordID, tuple Tuple) (storage.RecordID, error) {
	validated, err := tuple.ValidateAgainst(t.schema)
	if err != nil {
		return rid, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	meta, oldPayload, err := t.heap.GetVersion(rid)
	if err != nil {
		return rid, err
	}
	oldTuple, err := types.DecodeTuple(oldPayload)
	if err != nil {
		return rid, err
	}
	// Unique checks: only when the key actually changes.
	for _, idx := range t.indexes {
		if !idx.Unique {
			continue
		}
		oldKey, newKey := idx.KeyFor(oldTuple), idx.KeyFor(validated)
		if string(oldKey) != string(newKey) && t.LiveKeyExists(idx, newKey) {
			return rid, fmt.Errorf("%w: duplicate value for %s(%s)",
				ErrUniqueViolation, idx.Name, strings.Join(idx.Columns, ", "))
		}
	}
	newRID, err := t.heap.Update(rid, storage.EncodeVersion(meta, types.EncodeTuple(nil, validated)))
	if err != nil {
		return rid, err
	}
	if e := t.unsettled.get(rid); e != nil {
		e.row = validated
		if newRID != rid {
			t.unsettled.move(e, newRID)
		}
	}
	for _, idx := range t.indexes {
		idx.Tree.Delete(idx.KeyFor(oldTuple), rid)
		if err := idx.Tree.Insert(idx.KeyFor(validated), newRID); err != nil {
			return newRID, err
		}
	}
	return newRID, nil
}

// VersionIterator returns a pull iterator over every row version, with its
// MVCC header, for visibility-aware scans.
func (t *Table) VersionIterator() *TableVersionIterator {
	return &TableVersionIterator{inner: t.heap.Iterator()}
}

// TableVersionIterator yields each version with its header.
type TableVersionIterator struct {
	inner *storage.HeapIterator
}

// Next returns the next version, or ok=false at the end.
func (it *TableVersionIterator) Next() (storage.RecordID, storage.VersionMeta, Tuple, bool, error) {
	rid, record, ok, err := it.inner.Next()
	if err != nil || !ok {
		return rid, storage.VersionMeta{}, nil, false, err
	}
	meta, payload, err := storage.DecodeVersion(record)
	if err != nil {
		return rid, storage.VersionMeta{}, nil, false, err
	}
	tuple, err := types.DecodeTuple(payload)
	if err != nil {
		return rid, storage.VersionMeta{}, nil, false, err
	}
	return rid, meta, tuple, true, nil
}

// Locate resolves a logged before-image to the record id of the version it
// names: the one version that admit accepts (the caller's visibility rule)
// and whose tuple equals image in every column. The key only narrows the
// search — the table's first unique index (the primary key when there is
// one), else any index, is probed with the image's key, and each candidate is
// then judged on its header and its whole tuple, because several versions of
// a row share a key until a sweep reclaims them and distinct values can share a
// key encoding. Only a table without any index is scanned, and that scan
// stops at the first match. ErrNoMatchingRow reports that nothing matched.
func (t *Table) Locate(image Tuple, admit func(storage.VersionMeta) bool) (storage.RecordID, error) {
	if idx := t.locateIndex(); idx != nil {
		t.located.seeks.Add(1)
		for _, rid := range idx.Tree.Search(idx.KeyFor(image)) {
			meta, tuple, err := t.GetVersion(rid)
			if errors.Is(err, storage.ErrRecordNotFound) {
				continue // reclaimed between the probe and the fetch
			}
			if err != nil {
				return storage.RecordID{}, err
			}
			if admit(meta) && tuple.Equal(image) {
				return rid, nil
			}
		}
	} else {
		t.located.scans.Add(1)
		for it := t.VersionIterator(); ; {
			rid, meta, tuple, more, err := it.Next()
			if err != nil {
				return storage.RecordID{}, err
			}
			if !more {
				break
			}
			if admit(meta) && tuple.Equal(image) {
				return rid, nil
			}
		}
	}
	return storage.RecordID{}, fmt.Errorf("%w (table %s)", ErrNoMatchingRow, t.name)
}

// locateIndex picks Locate's access path: the first unique index — the
// primary key when the table has one, since it is created first — else the
// first index of any kind, else nil.
func (t *Table) locateIndex() *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, idx := range t.indexes {
		if idx.Unique {
			return idx
		}
	}
	if len(t.indexes) > 0 {
		return t.indexes[0]
	}
	return nil
}

// Index is an ordered secondary (or primary) index over one or more columns
// of a table.
type Index struct {
	Name    string
	Table   string
	Columns []string
	colIdx  []int
	Unique  bool
	Tree    *btree.Tree
}

// KeyFor computes the index key for a row of the owning table.
func (idx *Index) KeyFor(tuple Tuple) []byte {
	vals := make([]types.Value, len(idx.colIdx))
	for i, pos := range idx.colIdx {
		vals[i] = tuple[pos]
	}
	return types.EncodeKey(nil, vals...)
}
