package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrRecordNotFound is returned by heap file reads of deleted or never-written
// record identifiers.
var ErrRecordNotFound = errors.New("storage: record not found")

// HeapFile stores variable-length records in an unordered collection of
// slotted pages and addresses them by RecordID. One heap file backs one
// relation.
//
// A heap file owns a contiguous set of pages allocated from the shared buffer
// pool's disk manager; it remembers its own page list so several heap files
// can share one pool and one file.
type HeapFile struct {
	mu    sync.RWMutex
	pool  *BufferPool
	pages []PageID
	// owned is pages as a set: every read and write by record id checks
	// membership.
	owned map[PageID]struct{}
	// count caches the number of live records for O(1) cardinality estimates
	// used by the planner and the forms layer's status line.
	count int
}

// NewHeapFile creates an empty heap file over the buffer pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, owned: make(map[PageID]struct{})}
}

// Pool returns the buffer pool the heap file allocates from.
func (h *HeapFile) Pool() *BufferPool { return h.pool }

// Count returns the number of live records.
func (h *HeapFile) Count() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.count
}

// NumPages returns the number of pages the heap file owns.
func (h *HeapFile) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// Insert stores record and returns its identifier. It tries the last page
// first (the common append pattern) and allocates a new page when full.
func (h *HeapFile) Insert(record []byte) (RecordID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Try the most recently used pages first; scanning every page on every
	// insert would be quadratic for large loads.
	tryFrom := len(h.pages) - 2
	if tryFrom < 0 {
		tryFrom = 0
	}
	for i := tryFrom; i < len(h.pages); i++ {
		id := h.pages[i]
		page, err := h.pool.Fetch(id)
		if err != nil {
			return RecordID{}, err
		}
		slot, err := page.Insert(record)
		if err == nil {
			h.count++
			return RecordID{Page: id, Slot: uint16(slot)}, h.pool.Unpin(id, true)
		}
		if unpinErr := h.pool.Unpin(id, false); unpinErr != nil {
			return RecordID{}, unpinErr
		}
		if !errors.Is(err, ErrPageFull) {
			return RecordID{}, err
		}
	}
	id, page, err := h.pool.NewPage()
	if err != nil {
		return RecordID{}, err
	}
	h.pages = append(h.pages, id)
	h.owned[id] = struct{}{}
	slot, err := page.Insert(record)
	if err != nil {
		return RecordID{}, errors.Join(
			fmt.Errorf("storage: record of %d bytes does not fit in an empty page: %w", len(record), err),
			h.pool.Unpin(id, false))
	}
	h.count++
	return RecordID{Page: id, Slot: uint16(slot)}, h.pool.Unpin(id, true)
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RecordID) ([]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if !h.owns(rid.Page) {
		return nil, ErrRecordNotFound
	}
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	raw, err := page.Get(int(rid.Slot))
	if err != nil {
		return nil, errors.Join(ErrRecordNotFound, h.pool.Unpin(rid.Page, false))
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out, h.pool.Unpin(rid.Page, false)
}

// Update replaces the record at rid. When the new record no longer fits on
// its page the record moves; the returned RecordID is its new address (equal
// to rid when it did not move).
func (h *HeapFile) Update(rid RecordID, record []byte) (RecordID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.owns(rid.Page) {
		return rid, ErrRecordNotFound
	}
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return rid, err
	}
	err = page.Update(int(rid.Slot), record)
	switch {
	case err == nil:
		return rid, h.pool.Unpin(rid.Page, true)
	case errors.Is(err, ErrPageFull):
		// Relocate: delete here, insert elsewhere.
		if delErr := page.Delete(int(rid.Slot)); delErr != nil {
			return rid, errors.Join(delErr, h.pool.Unpin(rid.Page, false))
		}
		if unpinErr := h.pool.Unpin(rid.Page, true); unpinErr != nil {
			return rid, unpinErr
		}
		h.count-- // insertLocked will re-increment
		h.mu.Unlock()
		newRID, insErr := h.Insert(record)
		h.mu.Lock()
		return newRID, insErr
	case errors.Is(err, ErrNoSuchSlot):
		return rid, errors.Join(ErrRecordNotFound, h.pool.Unpin(rid.Page, false))
	default:
		return rid, errors.Join(err, h.pool.Unpin(rid.Page, false))
	}
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RecordID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.owns(rid.Page) {
		return ErrRecordNotFound
	}
	page, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	if err := page.Delete(int(rid.Slot)); err != nil {
		return errors.Join(ErrRecordNotFound, h.pool.Unpin(rid.Page, false))
	}
	h.count--
	return h.pool.Unpin(rid.Page, true)
}

func (h *HeapFile) owns(id PageID) bool {
	_, ok := h.owned[id]
	return ok
}

// Scan calls fn for every live record in the heap file, in physical order.
// The record slice passed to fn is a copy the callback may retain. Scanning
// stops early if fn returns an error, which Scan then returns.
//
// Each page is copied out under the heap latch, and fn runs with no lock
// held: under MVCC there are no table locks, so h.mu is the only thing
// keeping readers off pages a writer is mutating, and fn may re-enter the
// heap (e.g. recovery deleting rows it just matched).
func (h *HeapFile) Scan(fn func(rid RecordID, record []byte) error) error {
	h.mu.RLock()
	pages := make([]PageID, len(h.pages))
	copy(pages, h.pages)
	h.mu.RUnlock()
	for _, id := range pages {
		rids, recs, err := h.readPage(id)
		if err != nil {
			return err
		}
		for i, rid := range rids {
			if err := fn(rid, recs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// readPage copies every live record off one page under the heap latch.
func (h *HeapFile) readPage(id PageID) ([]RecordID, [][]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	page, err := h.pool.Fetch(id)
	if err != nil {
		return nil, nil, err
	}
	var (
		rids []RecordID
		recs [][]byte
	)
	n := page.NumSlots()
	for slot := 0; slot < n; slot++ {
		raw, err := page.Get(slot)
		if err != nil {
			continue // tombstone
		}
		rec := make([]byte, len(raw))
		copy(rec, raw)
		rids = append(rids, RecordID{Page: id, Slot: uint16(slot)})
		recs = append(recs, rec)
	}
	return rids, recs, h.pool.Unpin(id, false)
}

// Iterator returns a pull-style iterator over the heap file, used by the
// executor's sequential scan operator.
func (h *HeapFile) Iterator() *HeapIterator {
	h.mu.RLock()
	pages := make([]PageID, len(h.pages))
	copy(pages, h.pages)
	h.mu.RUnlock()
	return &HeapIterator{heap: h, pages: pages}
}

// HeapIterator walks a heap file record by record. Each page's live records
// are copied out in one step under the heap latch (readers no longer hold
// table locks, so page bytes may be mutated by concurrent writers between
// Next calls); records written to the current page after it was copied are
// not observed, which is fine — MVCC visibility rules decide what the caller
// may see, the iterator only has to hand over consistent bytes.
type HeapIterator struct {
	heap    *HeapFile
	pages   []PageID
	pageIdx int
	rids    []RecordID
	recs    [][]byte
	pos     int
}

// Next returns the next live record, or ok=false when the scan is exhausted.
// The returned record is a copy.
func (it *HeapIterator) Next() (rid RecordID, record []byte, ok bool, err error) {
	for {
		if it.pos < len(it.rids) {
			i := it.pos
			it.pos++
			return it.rids[i], it.recs[i], true, nil
		}
		if it.pageIdx >= len(it.pages) {
			return RecordID{}, nil, false, nil
		}
		id := it.pages[it.pageIdx]
		it.pageIdx++
		it.rids, it.recs, err = it.heap.readPage(id)
		if err != nil {
			return RecordID{}, nil, false, err
		}
		it.pos = 0
	}
}
