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
//
// One record is read in place, in its pinned page under the read latch
// (ViewVersion); GetVersion is that read copying the payload out. A scan
// copies each page's live records out together (Iterator). Every change
// takes the latch for writing, so no reader sees a record mid-change.
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
	// buf is append's record buffer, kept between appends under mu.
	buf []byte
}

// NewHeapFile creates an empty heap file over the buffer pool.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, owned: make(map[PageID]struct{})}
}

// Count returns the number of live records.
func (h *HeapFile) Count() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.count
}

// insert stores the record made of parts, in order, and returns its
// identifier: the one-record case of append, which joins the parts in its
// buffer.
func (h *HeapFile) insert(parts ...[]byte) (RecordID, error) {
	var rid [1]RecordID
	err := h.append(rid[:], func(_ int, buf []byte) []byte {
		buf = buf[:0]
		for _, p := range parts {
			buf = append(buf, p...)
		}
		return buf
	})
	return rid[0], err
}

// append stores len(rids) records at the end of the heap and writes their
// identifiers into rids. build(i, buf) returns the i-th record; it may build
// it in buf, which holds the previous record's bytes and is reused once the
// page has copied them: the heap keeps that buffer from one append to the
// next, so a record built in it costs no allocation. Only the last page is tried, and it stays pinned
// while records fill it; when it is full a new page is allocated and pinned
// in its place. So a batch fetches each page it writes once, a page is
// compacted only when it fills and deleted records left enough space on it
// for the next record, and space freed on earlier pages is not reused.
func (h *HeapFile) append(rids []RecordID, build func(i int, buf []byte) []byte) (err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var (
		id    PageID
		page  *Page // pinned while non-nil
		dirty bool  // a record went onto page
		buf   = h.buf
	)
	defer func() {
		h.buf = buf[:0]
		if page != nil {
			err = errors.Join(err, h.pool.unpin(id, dirty))
		}
	}()
	if n := len(h.pages); n > 0 && len(rids) > 0 {
		id = h.pages[n-1]
		if page, err = h.pool.fetch(id); err != nil {
			return err
		}
	}
	for i := range rids {
		buf = build(i, buf)
		slot, full := 0, page == nil
		if !full {
			slot, err = page.insert(buf)
			if full = errors.Is(err, ErrPageFull); err != nil && !full {
				return err
			}
		}
		if full {
			if page != nil {
				err, page = h.pool.unpin(id, dirty), nil
				if err != nil {
					return err
				}
			}
			if id, page, err = h.pool.newPage(); err != nil {
				return err
			}
			h.pages = append(h.pages, id)
			h.owned[id] = struct{}{}
			if slot, err = page.insert(buf); err != nil {
				return fmt.Errorf("storage: record of %d bytes does not fit in an empty page: %w", len(buf), err)
			}
		}
		dirty = true
		h.count++
		rids[i] = RecordID{Page: id, Slot: uint16(slot)}
	}
	return nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RecordID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.owns(rid.Page) {
		return ErrRecordNotFound
	}
	page, err := h.pool.fetch(rid.Page)
	if err != nil {
		return err
	}
	if err := page.delete(int(rid.Slot)); err != nil {
		return errors.Join(ErrRecordNotFound, h.pool.unpin(rid.Page, false))
	}
	h.count--
	return h.pool.unpin(rid.Page, true)
}

func (h *HeapFile) owns(id PageID) bool {
	_, ok := h.owned[id]
	return ok
}

// readPage copies every live record off one page under the heap latch,
// appending their identifiers to rids and the records to recs. The records
// are copied into one buffer that holds them all, so a page costs one copy,
// not one per record; each record is capped at its own end. The buffer is
// buf when it has room, else a new one, and is returned.
func (h *HeapFile) readPage(id PageID, rids []RecordID, recs [][]byte, buf []byte) ([]RecordID, [][]byte, []byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	page, err := h.pool.fetch(id)
	if err != nil {
		return rids, recs, buf, err
	}
	n, size := page.slotCount(), 0
	for slot := 0; slot < n; slot++ {
		size += page.slotLength(slot) // a tombstone's length is 0
	}
	if buf = buf[:0]; cap(buf) < size {
		buf = make([]byte, 0, size)
	}
	for slot := 0; slot < n; slot++ {
		raw, err := page.get(slot)
		if err != nil {
			continue // tombstone
		}
		start := len(buf)
		buf = append(buf, raw...)
		rids = append(rids, RecordID{Page: id, Slot: uint16(slot)})
		recs = append(recs, buf[start:len(buf):len(buf)])
	}
	return rids, recs, buf, h.pool.unpin(id, false)
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
// may see, the iterator only has to hand over consistent bytes. Every page
// gets a fresh copy, so a record stays valid after the iterator moves on,
// unless Reuse was called.
type HeapIterator struct {
	heap    *HeapFile
	pages   []PageID
	pageIdx int
	rids    []RecordID
	recs    [][]byte
	pos     int
	// buf is the last page's copy, which Reuse keeps for the next page.
	buf   []byte
	reuse bool
}

// Reuse makes the iterator copy every page into the one buffer, so a scan
// that consumes each record before it moves to the next page allocates no
// copy per page: a record is then valid only until Next reads the next
// page.
func (it *HeapIterator) Reuse() { it.reuse = true }

// Next returns the next live record, or ok=false when the scan is exhausted.
// The returned record is a copy, shared with no buffer-pool frame; records of
// one page share one buffer, so a caller must not modify one.
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
		if !it.reuse {
			it.buf = nil // a fresh copy per page
		}
		it.rids, it.recs, it.buf, err = it.heap.readPage(id, it.rids[:0], it.recs[:0], it.buf)
		if err != nil {
			return RecordID{}, nil, false, err
		}
		it.pos = 0
	}
}
