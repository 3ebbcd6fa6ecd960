package catalog

import (
	"errors"
	"fmt"
	"runtime"
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
// Tree.Load, the keys encoded from the stored payloads, undecoded, into one
// shared arena. For a unique index, duplicate keys among *live* versions fail
// the backfill (dead versions sharing a key are the normal MVCC shape, not a
// violation). The caller holds t.mu.
func (t *Table) backfillIndex(idx *Index) error {
	var (
		pairs []btree.Pair
		arena []byte
	)
	liveKeys := make(map[string]struct{})
	for it := t.VersionIterator(); ; {
		rid, meta, payload, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var key []byte
		if arena, key, err = idx.appendEncodedKey(arena, payload); err != nil {
			return err
		}
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

// KeyProbe is how InsertVersion checks a new version's unique keys against
// the versions already indexed under them, for one writing transaction.
type KeyProbe struct {
	// InFlight reports whether a transaction is still in flight. It is called
	// with the table latch held and must not take it.
	InFlight func(xid uint64) bool
	// Sees reports whether the writer's snapshot sees a version.
	Sees func(storage.VersionMeta) bool
	// Supersedes is the stored payload of the row the new version replaces,
	// nil for a new row. A unique key the two share is the writer's own and
	// is not probed.
	Supersedes []byte
}

// keyStackSize is the room InsertVersion keeps on its stack for a row's
// index keys; a row whose keys take more spills to the heap.
const keyStackSize = 256

// InsertVersion appends a new row version stamped xmin=xid and maintains
// every index. It is where a written row is validated and encoded, once: the
// tuple is checked against the schema into one copy with each value cast to
// its column's kind (Tuple.ValidateAgainst), and that copy is encoded once
// into the payload the heap stores, the unsettled list holds and the writer
// logs, returned as payload; callers must not modify it. Each index key is
// encoded once, into one buffer the unique probe and the tree insert share.
//
// With a probe, it first looks up each unique key of the row in the same
// step under the table latch, so no other writer can insert the key between
// the probe and the insert. The insert fails with ErrUniqueViolation when a
// live version holds the key, committed or the writer's own. It writes
// nothing and returns a transaction's id instead when the key's fate rests
// with another transaction: one in flight that inserted or deleted a
// version holding the key, or one that committed the delete of a version
// the writer's snapshot still sees. The writer waits for that transaction
// to end and probes again; a deleter found again after it ended committed,
// and freed the key under the writer's snapshot. A version stamped with a
// transaction id joins the unsettled list; xid 0 writes a frozen version,
// visible to every snapshot.
func (t *Table) InsertVersion(tuple Tuple, xid uint64, probe *KeyProbe) (rid storage.RecordID, payload []byte, holder uint64, err error) {
	row, err := tuple.ValidateAgainst(t.schema)
	if err != nil {
		return storage.RecordID{}, nil, 0, err
	}
	payload = types.EncodeTuple(make([]byte, 0, types.EncodedSize(row)), row)
	t.mu.Lock()
	defer t.mu.Unlock()
	var (
		keyBuf [keyStackSize]byte
		endBuf [8]int
	)
	keys := rowKeys{buf: keyBuf[:0], ends: endBuf[:0]}
	for _, idx := range t.indexes {
		keys.buf = idx.appendKey(keys.buf, row)
		keys.ends = append(keys.ends, len(keys.buf))
	}
	if probe != nil {
		if holder, err = t.probeKeysLocked(&keys, xid, probe); holder != 0 || err != nil {
			return storage.RecordID{}, nil, holder, err
		}
	}
	meta := storage.VersionMeta{Xmin: xid}
	if rid, err = t.heap.InsertVersion(meta, payload); err != nil {
		return storage.RecordID{}, nil, 0, err
	}
	for i, idx := range t.indexes {
		idx.Tree.Insert(keys.key(i), rid)
	}
	if xid != 0 {
		t.unsettled.push(rid, meta, payload)
	}
	return rid, payload, 0, nil
}

// rowKeys holds a row's key for every index of its table, encoded into one
// buffer: the key of the table's i-th index ends at ends[i] and starts where
// the one before it ends.
type rowKeys struct {
	buf  []byte
	ends []int
}

func (k *rowKeys) key(i int) []byte {
	start := 0
	if i > 0 {
		start = k.ends[i-1]
	}
	return k.buf[start:k.ends[i]]
}

// probeKeysLocked judges the versions indexed under each unique key of the
// new row, keys.key(i) the key of t.indexes[i], that probe.Supersedes does not
// share, for InsertVersion. It returns the transaction the key's fate rests
// with, or ErrUniqueViolation. A version outside the unsettled list is
// settled, so live and committed, and its header need not be read. The
// caller holds t.mu, and a rollback removes its versions under t.mu before
// its transaction leaves the active set, so a version whose inserter is not
// in flight was inserted by a committed one.
func (t *Table) probeKeysLocked(keys *rowKeys, xid uint64, probe *KeyProbe) (uint64, error) {
	var (
		holder uint64
		stack  [keyStackSize]byte
	)
	for i, idx := range t.indexes {
		if !idx.Unique {
			continue
		}
		key := keys.key(i)
		if probe.Supersedes != nil {
			old, err := types.AppendEncodedKey(stack[:0], probe.Supersedes, idx.colIdx)
			if err != nil {
				return 0, err
			}
			if string(old) == string(key) {
				continue
			}
		}
		for _, rid := range idx.Tree.Search(key) {
			e := t.unsettled.get(rid)
			switch {
			case e == nil:
				// settled: live, and committed before every snapshot
			case e.meta.Xmax == xid:
				continue // freed by the writer itself
			case e.meta.Xmax != 0:
				if probe.InFlight(e.meta.Xmax) || probe.Sees(e.meta) {
					holder = e.meta.Xmax
				}
				continue
			case e.meta.Xmin != xid && probe.InFlight(e.meta.Xmin):
				holder = e.meta.Xmin
				continue
			}
			return 0, fmt.Errorf("%w: duplicate value for %s(%s)",
				ErrUniqueViolation, idx.Name, strings.Join(idx.Columns, ", "))
		}
	}
	return holder, nil
}

// InstallImage installs a checkpoint image's rows, payloads[i] stamped
// xmin=xmins[i], into this table, which must hold no row. A payload is a
// stored heap payload, byte for byte, and goes into the heap unchanged: every
// one is first checked against the schema in place (types.CheckEncoded), so
// a bad row installs nothing and a value of the wrong kind is refused, not
// cast; the payloads are then appended to the heap in one batch, which fills
// each page under one pin and yields the rids; last, the indexes are built
// concurrently, each on its own goroutine and at most runtime.GOMAXPROCS(0)
// at once: a build encodes its keys from the payloads
// (types.AppendEncodedKey) into an arena of its own and runs one Tree.Load.
// The builds only read payloads and rids, both complete before the first
// starts, and each writes only its own tree. An error is reported for the
// first index, in the table's order, whose build failed. The versions join
// no unsettled list: each image row's creator committed before the
// checkpoint, and recovery installs the image before any snapshot exists and
// resumes the id sequence past it, so every such version is settled.
func (t *Table) InstallImage(payloads [][]byte, xmins []uint64) error {
	if len(payloads) != len(xmins) {
		return fmt.Errorf("catalog: image for %s has %d rows and %d xmins", t.name, len(payloads), len(xmins))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.heap.Count(); n != 0 {
		return fmt.Errorf("catalog: image installed into %s, which holds %d versions", t.name, n)
	}
	for i, payload := range payloads {
		if err := types.CheckEncoded(payload, t.schema); err != nil {
			return fmt.Errorf("catalog: image row %d of %s: %w", i, t.name, err)
		}
	}

	metas := make([]storage.VersionMeta, len(payloads))
	for i := range metas {
		metas[i].Xmin = xmins[i]
	}
	rids := make([]storage.RecordID, len(payloads))
	if err := t.heap.InsertVersions(metas, payloads, rids); err != nil {
		return fmt.Errorf("catalog: image rows into %s: %w", t.name, err)
	}

	errs := make([]error, len(t.indexes))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, idx := range t.indexes {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			errs[i] = t.loadIndex(idx, payloads, rids)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadIndex builds idx over the image rows payloads, stored at rids, with
// one Tree.Load. The arena is sized from the first row's key, which cannot
// fail to encode: the row passed CheckEncoded.
func (t *Table) loadIndex(idx *Index, payloads [][]byte, rids []storage.RecordID) error {
	var arena []byte
	if len(payloads) > 0 {
		arena, _, _ = idx.appendEncodedKey(arena, payloads[0])
		arena = make([]byte, 0, len(payloads)*len(arena)*5/4)
	}
	pairs := make([]btree.Pair, len(payloads))
	for i, payload := range payloads {
		var err error
		if arena, pairs[i].Key, err = idx.appendEncodedKey(arena, payload); err != nil {
			return fmt.Errorf("catalog: image row %d of %s: %w", i, t.name, err)
		}
		pairs[i].RID = rids[i]
	}
	if err := idx.Tree.Load(pairs); err != nil {
		return fmt.Errorf("catalog: image index %s: %w", idx.Name, err)
	}
	return nil
}

// ClaimVersion claims the version at rid for transaction xid in one step
// under the table latch. When no transaction has stamped the version, it
// stamps xmax=xid and returns the header it found and the version's stored
// payload, the unsettled list's copy, which callers must not modify.
// Otherwise it stamps nothing and returns the header it found, whose Xmax
// names the holder, and no payload.
func (t *Table) ClaimVersion(rid storage.RecordID, xid uint64) (storage.VersionMeta, []byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// A version outside the list is settled, so unstamped.
	if e := t.unsettled.get(rid); e != nil && e.meta.Xmax != 0 {
		return e.meta, nil, nil
	}
	if err := t.stampXmaxLocked(rid, xid); err != nil {
		return storage.VersionMeta{}, nil, err
	}
	e := t.unsettled.get(rid)
	return storage.VersionMeta{Xmin: e.meta.Xmin}, e.payload, nil
}

// ClearXmax removes the stamp ClaimVersion put on the version at rid
// (rollback undo of a delete or of an update's old side).
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
// list entry. An unsettled version's keys come from its list entry's
// payload, so only the delete itself touches the heap page; only a settled
// version is read, and its keys encoded from the page in place.
func (t *Table) removeVersionLocked(rid storage.RecordID) error {
	var (
		keyBuf [keyStackSize]byte
		endBuf [8]int
	)
	keys := rowKeys{buf: keyBuf[:0], ends: endBuf[:0]}
	addKeys := func(payload []byte) error {
		for _, idx := range t.indexes {
			var err error
			if keys.buf, err = types.AppendEncodedKey(keys.buf, payload, idx.colIdx); err != nil {
				return err
			}
			keys.ends = append(keys.ends, len(keys.buf))
		}
		return nil
	}
	e := t.unsettled.get(rid)
	if e != nil {
		if err := addKeys(e.payload); err != nil {
			return err
		}
	} else if err := t.ViewVersion(rid, func(_ storage.VersionMeta, payload []byte) error {
		return addKeys(payload)
	}); err != nil {
		return err
	}
	if err := t.heap.Delete(rid); err != nil {
		return err
	}
	if e != nil {
		t.unsettled.remove(e)
	}
	for i, idx := range t.indexes {
		idx.Tree.Delete(keys.key(i), rid)
	}
	return nil
}

// ViewVersion calls fn with the version header at rid and its stored
// payload, read in place under the heap latch and the page's pin
// (storage.HeapFile.ViewVersion): a caller judges the header and decodes
// (types.DecodeTuple) or copies only the payloads that pass, and pays for
// no copy of the rest. payload is valid only until fn returns, and fn must
// not call back into the table. A version some aborting transaction removed
// or a sweep reclaimed is storage.ErrRecordNotFound.
func (t *Table) ViewVersion(rid storage.RecordID, fn func(meta storage.VersionMeta, payload []byte) error) error {
	return t.heap.ViewVersion(rid, fn)
}

// GetVersion returns the version header at rid and a copy of its stored
// payload, undecoded. It is ViewVersion copying out, kept for callers
// outside this module's packages (the benchmark's ladder reads versions
// through it); code here reads in place with ViewVersion.
func (t *Table) GetVersion(rid storage.RecordID) (storage.VersionMeta, []byte, error) {
	return t.heap.GetVersion(rid)
}

// VersionIterator returns a pull iterator over every row version, with its
// MVCC header, for visibility-aware scans.
func (t *Table) VersionIterator() *TableVersionIterator {
	return &TableVersionIterator{inner: t.heap.Iterator()}
}

// TableVersionIterator yields each version with its header and its stored
// payload, undecoded, so that a caller decodes only the versions that pass
// its own test (types.DecodeTuple) and a checkpoint copies them as they are.
// The payloads of one page are copied out of the buffer pool together, once;
// a payload never aliases a pool frame and stays valid after the page is
// unpinned and the iterator moves on, unless Reuse was called. Callers must
// not modify it.
type TableVersionIterator struct {
	inner *storage.HeapIterator
}

// Reuse makes the iterator copy every page into one buffer
// (storage.HeapIterator.Reuse): a payload is then valid only until Next
// reads the next page, and a scan allocates no copy per page.
func (it *TableVersionIterator) Reuse() { it.inner.Reuse() }

// Next returns the next version's record id, header and payload, or ok=false
// at the end.
func (it *TableVersionIterator) Next() (storage.RecordID, storage.VersionMeta, []byte, bool, error) {
	rid, record, ok, err := it.inner.Next()
	if err != nil || !ok {
		return rid, storage.VersionMeta{}, nil, false, err
	}
	meta, payload, err := storage.DecodeVersion(record)
	if err != nil {
		return rid, storage.VersionMeta{}, nil, false, err
	}
	return rid, meta, payload, true, nil
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
		for _, rid := range idx.Tree.Search(idx.keyFor(image)) {
			var match bool
			err := t.ViewVersion(rid, func(meta storage.VersionMeta, payload []byte) error {
				if !admit(meta) {
					return nil
				}
				tuple, err := types.DecodeTuple(payload)
				match = err == nil && tuple.Equal(image)
				return err
			})
			if errors.Is(err, storage.ErrRecordNotFound) {
				continue // reclaimed between the probe and the fetch
			}
			if err != nil {
				return storage.RecordID{}, err
			}
			if match {
				return rid, nil
			}
		}
	} else {
		t.located.scans.Add(1)
		for it := t.VersionIterator(); ; {
			rid, meta, payload, more, err := it.Next()
			if err != nil {
				return storage.RecordID{}, err
			}
			if !more {
				break
			}
			if !admit(meta) {
				continue
			}
			tuple, err := types.DecodeTuple(payload)
			if err != nil {
				return storage.RecordID{}, err
			}
			if tuple.Equal(image) {
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

// keyFor computes the index key for a row of the owning table.
func (idx *Index) keyFor(tuple Tuple) []byte { return idx.appendKey(nil, tuple) }

// appendKey appends the index key for a row of the owning table to dst.
func (idx *Index) appendKey(dst []byte, tuple Tuple) []byte {
	for _, pos := range idx.colIdx {
		dst = types.EncodeKey(dst, tuple[pos])
	}
	return dst
}

// appendEncodedKey encodes the key of a row's stored payload, read in place,
// onto arena and returns the grown arena and the key, a slice of it capped at
// its own end; the key bytes are keyFor's on the decoded row. Keys appended
// to one arena never overlap, so a tree may own each of them.
func (idx *Index) appendEncodedKey(arena, payload []byte) (grown, key []byte, err error) {
	start := len(arena)
	if arena, err = types.AppendEncodedKey(arena, payload, idx.colIdx); err != nil {
		return arena[:start], nil, err
	}
	return arena, arena[start:len(arena):len(arena)], nil
}
