// Package storage implements the physical layer the database engine sits on:
// slotted pages, a disk manager (with an in-memory variant for tests and
// benchmarks), a buffer pool with LRU eviction, and heap files that store
// variable-length records addressed by stable record identifiers.
//
// The layering mirrors the textbook architecture a 1983 relational backend
// used: relations live in heap files, heap files are sequences of slotted
// pages, and pages move between disk and memory through a buffer pool.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 8192

// pageHeaderSize is the number of bytes reserved at the start of each page:
// 2 bytes slot count + 2 bytes free-space pointer + 2 bytes tombstone count.
const pageHeaderSize = 6

// slotSize is the per-slot directory entry size: 2 bytes offset + 2 bytes length.
const slotSize = 4

// PageID identifies a page within a heap file.
type PageID uint32

// InvalidPageID is a sentinel for "no page".
const InvalidPageID = PageID(^uint32(0))

// ErrPageFull is returned by Page.insert when the record does not fit.
var ErrPageFull = errors.New("storage: page full")

// ErrNoSuchSlot is returned when a slot number does not exist or is deleted.
var ErrNoSuchSlot = errors.New("storage: no such slot")

// Page is a slotted page: a fixed-size byte array holding variable-length
// records. The slot directory grows upward from the header; record bodies
// grow downward from the end of the page. Deleting a record tombstones its
// slot so record identifiers handed out earlier stay stable.
type Page struct {
	data [PageSize]byte
}

// newPage returns an initialised empty page.
func newPage() *Page {
	p := &Page{}
	p.setSlotCount(0)
	p.setFreeEnd(PageSize)
	return p
}

// bytes returns the raw page image (for the disk manager and the WAL).
func (p *Page) bytes() []byte { return p.data[:] }

func (p *Page) slotCount() int     { return int(binary.LittleEndian.Uint16(p.data[0:2])) }
func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.data[0:2], uint16(n)) }
func (p *Page) freeEnd() int       { return int(binary.LittleEndian.Uint16(p.data[2:4])) }
func (p *Page) setFreeEnd(off int) { binary.LittleEndian.PutUint16(p.data[2:4], uint16(off)) }
func (p *Page) slotBase(i int) int { return pageHeaderSize + i*slotSize }
func (p *Page) slotOffset(i int) int {
	return int(binary.LittleEndian.Uint16(p.data[p.slotBase(i) : p.slotBase(i)+2]))
}
func (p *Page) slotLength(i int) int {
	return int(binary.LittleEndian.Uint16(p.data[p.slotBase(i)+2 : p.slotBase(i)+4]))
}
func (p *Page) setSlot(i, offset, length int) {
	binary.LittleEndian.PutUint16(p.data[p.slotBase(i):p.slotBase(i)+2], uint16(offset))
	binary.LittleEndian.PutUint16(p.data[p.slotBase(i)+2:p.slotBase(i)+4], uint16(length))
}

// tombstones is the number of deleted slots an insert may reuse.
func (p *Page) tombstones() int     { return int(binary.LittleEndian.Uint16(p.data[4:6])) }
func (p *Page) setTombstones(n int) { binary.LittleEndian.PutUint16(p.data[4:6], uint16(n)) }

// insert stores the record on the page and returns its slot number. When
// the free gap between the slot directory and the record bodies is too small,
// the page is compacted only if the bytes deleted records left behind would
// make the record fit; a page without enough of them (a page that filled
// with appends and lost no record) is full as it stands, and is left
// untouched.
func (p *Page) insert(record []byte) (int, error) {
	if len(record) > PageSize-pageHeaderSize-slotSize {
		return 0, fmt.Errorf("storage: record of %d bytes can never fit in a page", len(record))
	}
	// Reuse a tombstoned slot when one exists to keep the directory compact.
	// The header counts them, so a page without one is not searched.
	slot := -1
	for i := 0; i < p.slotCount() && p.tombstones() > 0; i++ {
		if p.slotLength(i) == 0 && p.slotOffset(i) == 0 {
			slot = i
			break
		}
	}
	needDirectory := 0
	if slot < 0 {
		needDirectory = slotSize
	}
	if free := p.freeEnd() - (pageHeaderSize + p.slotCount()*slotSize) - needDirectory; free < len(record) {
		if free+p.deadBytes() < len(record) {
			return 0, ErrPageFull
		}
		p.compact()
	}
	offset := p.freeEnd() - len(record)
	copy(p.data[offset:], record)
	p.setFreeEnd(offset)
	if slot < 0 {
		slot = p.slotCount()
		p.setSlotCount(slot + 1)
	} else {
		p.setTombstones(p.tombstones() - 1)
	}
	p.setSlot(slot, offset, len(record))
	if len(record) == 0 {
		// Distinguish an empty record from a tombstone by giving it a
		// non-zero offset (freeEnd) with zero length; tombstones have both zero.
		p.setSlot(slot, offset, 0)
		if offset == 0 {
			p.setSlot(slot, 1, 0)
		}
	}
	return slot, nil
}

// get returns the record stored in the slot. The returned slice aliases the
// page buffer; callers must copy or decode it before unpinning the page.
func (p *Page) get(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, ErrNoSuchSlot
	}
	off, length := p.slotOffset(slot), p.slotLength(slot)
	if off == 0 && length == 0 {
		return nil, ErrNoSuchSlot
	}
	return p.data[off : off+length], nil
}

// delete tombstones the slot. The space it occupied is reclaimed lazily by
// compaction on a later insert.
func (p *Page) delete(slot int) error {
	if slot < 0 || slot >= p.slotCount() {
		return ErrNoSuchSlot
	}
	if p.slotOffset(slot) == 0 && p.slotLength(slot) == 0 {
		return ErrNoSuchSlot
	}
	p.setSlot(slot, 0, 0)
	p.setTombstones(p.tombstones() + 1)
	return nil
}

// deadBytes is the space deleted records left between the free gap and the
// end of the page: what compact would reclaim. A tombstone's length is zero,
// so it is the record area less the live records' lengths.
func (p *Page) deadBytes() int {
	live := 0
	for i := 0; i < p.slotCount(); i++ {
		live += p.slotLength(i)
	}
	return PageSize - p.freeEnd() - live
}

// compact rewrites all live records contiguously at the end of the page,
// reclaiming the space deleted records left behind. insert calls it only
// when that space makes the record it is storing fit.
func (p *Page) compact() {
	var scratch [PageSize]byte
	writeEnd := PageSize
	for i := 0; i < p.slotCount(); i++ {
		off, length := p.slotOffset(i), p.slotLength(i)
		if off == 0 && length == 0 {
			continue
		}
		writeEnd -= length
		copy(scratch[writeEnd:], p.data[off:off+length])
		p.setSlot(i, writeEnd, length)
	}
	copy(p.data[writeEnd:], scratch[writeEnd:])
	p.setFreeEnd(writeEnd)
}

// RecordID addresses a record: the page it lives on and its slot there. A
// record keeps its identifier until it is deleted (compaction moves bytes
// within the page, not slots); after that the slot may be reused.
type RecordID struct {
	Page PageID
	Slot uint16
}

// String renders the record identifier as "page:slot".
func (r RecordID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }
