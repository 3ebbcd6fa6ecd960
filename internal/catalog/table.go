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
// the transaction layer are stamped with the writing transaction's id, which
// for a logged change crash recovery or a replica applies is the id the log
// names; a checkpoint image's rows are installed with their logged xmin
// (InstallImage). Indexes hold entries for every version, live or dead:
// scans filter by visibility per record id at fetch time; versions of a row
// are not linked.
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

// createIndex builds an index over the named columns, filled from every row
// version the table holds, and registers it. Writers wait on t.mu meanwhile,
// so no version can slip in between the backfill and the registration.
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
		Tree: btree.New(),
	}
	if err := t.backfillIndex(idx); err != nil {
		return nil, err
	}
	t.indexes = append(t.indexes, idx)
	return idx, nil
}

// backfillIndex builds idx from every row version in the heap with one
// Tree.Load, the keys encoded into one shared arena. For a unique index,
// duplicate keys among *live* versions fail the backfill (dead versions
// sharing a key are the normal MVCC shape, not a violation). The caller holds
// t.mu.
func (t *Table) backfillIndex(idx *Index) error {
	var (
		pairs []btree.Pair
		arena []byte
	)
	liveKeys := make(map[string]struct{})
	for it := t.VersionIterator(); ; {
		rid, meta, tuple, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var key []byte
		arena, key = idx.appendKey(arena, tuple)
		if idx.Unique && meta.Xmax == 0 {
			if _, dup := liveKeys[string(key)]; dup {
				return fmt.Errorf("%w: cannot create unique index %q: duplicate value for (%s)",
					ErrUniqueViolation, idx.Name, strings.Join(idx.Columns, ", "))
			}
			liveKeys[string(key)] = struct{}{}
		}
		pairs = append(pairs, btree.Pair{Key: key, RID: rid})
	}
	return idx.Tree.Load(pairs)
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
// layer probes live versions under its key locks before calling. A version
// stamped with a transaction id joins the unsettled list; xid 0 writes a
// frozen version, visible to every snapshot.
func (t *Table) InsertVersion(tuple Tuple, xid uint64) (storage.RecordID, error) {
	validated, err := tuple.ValidateAgainst(t.schema)
	if err != nil {
		return storage.RecordID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertVersionLocked(validated, storage.VersionMeta{Xmin: xid}, xid != 0)
}

// insertVersionLocked writes the version and its index entries, and lists it
// when it is unsettled. The caller holds t.mu.
func (t *Table) insertVersionLocked(validated Tuple, meta storage.VersionMeta, unsettled bool) (storage.RecordID, error) {
	rid, err := t.heap.InsertVersion(meta, types.EncodeTuple(nil, validated))
	if err != nil {
		return storage.RecordID{}, err
	}
	for _, idx := range t.indexes {
		idx.Tree.Insert(idx.KeyFor(validated), rid)
	}
	if unsettled {
		t.unsettled.push(rid, meta, validated)
	}
	return rid, nil
}

// InstallImage installs a checkpoint image's rows, rows[i] stamped
// xmin=xmins[i], into this table, which must hold no row. Every row is
// validated against the schema first, so a bad row installs nothing; the
// rows are then encoded into one reused buffer and appended to the heap in
// one batch, which fills each page under one pin; last, each index is built
// with one Tree.Load over keys encoded into one arena the indexes share. The
// versions join no unsettled list: each image row's creator committed before
// the checkpoint, and recovery installs the image before any snapshot exists
// and resumes the id sequence past it, so every such version is settled.
func (t *Table) InstallImage(rows []Tuple, xmins []uint64) error {
	if len(rows) != len(xmins) {
		return fmt.Errorf("catalog: image for %s has %d rows and %d xmins", t.name, len(rows), len(xmins))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.heap.Count(); n != 0 {
		return fmt.Errorf("catalog: image installed into %s, which holds %d versions", t.name, n)
	}
	validated := make([]Tuple, len(rows))
	for i, row := range rows {
		v, err := row.ValidateAgainst(t.schema)
		if err != nil {
			return fmt.Errorf("catalog: image row %d of %s: %w", i, t.name, err)
		}
		validated[i] = v
	}

	// The payloads are encoded back to back into one buffer, sized from the
	// first row; once the heap has copied them, the buffer is reused as the
	// arena of the keys.
	metas := make([]storage.VersionMeta, len(rows))
	payloads := make([][]byte, len(rows))
	var buf []byte
	if len(validated) > 0 {
		buf = make([]byte, 0, len(validated)*len(types.EncodeTuple(nil, validated[0]))*5/4)
	}
	for i, row := range validated {
		metas[i].Xmin = xmins[i]
		start := len(buf)
		buf = types.EncodeTuple(buf, row)
		payloads[i] = buf[start:]
	}
	rids := make([]storage.RecordID, len(rows))
	if err := t.heap.InsertVersions(metas, payloads, rids); err != nil {
		return fmt.Errorf("catalog: image rows into %s: %w", t.name, err)
	}

	arena := buf[:0]
	for _, idx := range t.indexes {
		pairs := make([]btree.Pair, len(rows))
		for i, row := range validated {
			arena, pairs[i].Key = idx.appendKey(arena, row)
			pairs[i].RID = rids[i]
		}
		if err := idx.Tree.Load(pairs); err != nil {
			return fmt.Errorf("catalog: image index %s: %w", idx.Name, err)
		}
	}
	return nil
}

// AddVersion supersedes the version at oldRID with a new version of the row:
// it stamps xmax=xid on the old version in place and inserts the new tuple
// stamped xmin=xid. Index entries for the old version remain (snapshots may
// still need them); a sweep reclaims both together. Returns the new
// version's record id.
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
	newRID, err := t.insertVersionLocked(validated, storage.VersionMeta{Xmin: xid}, true)
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
// (rollback undo of an insert, and of the new side of an update).
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
	_, key := idx.appendKey(nil, tuple)
	return key
}

// appendKey encodes tuple's key for idx onto arena and returns the grown
// arena and the key, a slice of it capped at its own end. Keys appended to
// one arena never overlap, so a tree may own each of them.
func (idx *Index) appendKey(arena []byte, tuple Tuple) (grown, key []byte) {
	start := len(arena)
	for _, pos := range idx.colIdx {
		arena = types.EncodeKey(arena, tuple[pos])
	}
	return arena, arena[start:len(arena):len(arena)]
}
