package storage

import (
	"fmt"
	"sync"
)

// BufferPool caches pages in memory in front of a DiskManager. Pages are
// pinned while in use; unpinned pages are eligible for LRU eviction, with
// dirty pages written back before reuse.
//
// The LRU order is a ring threaded through the unpinned frames themselves,
// so pinning and unpinning a cached page only relinks a frame: a cache hit
// allocates nothing. An evicted frame and its page buffer are reused for the
// page read in its place.
//
// All methods are safe for concurrent use; the pool takes a single mutex,
// which is adequate for the session counts a forms server runs (tens of
// concurrent form sessions).
type BufferPool struct {
	mu       sync.Mutex
	disk     DiskManager
	capacity int

	frames map[PageID]*frame
	// lru is the ring's sentinel: lru.next is the most recently unpinned
	// frame, lru.prev the least recently unpinned, the next to be evicted.
	// Only unpinned frames are on the ring.
	lru frame

	// Stats are cumulative counters exposed through Stats.
	stats BufferPoolStats
}

// BufferPoolStats counts buffer pool traffic.
type BufferPoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Writes counts dirty pages written to disk on eviction, the only time
	// a page is written.
	Writes uint64
}

type frame struct {
	page  *Page
	id    PageID
	pins  int
	dirty bool
	// prev and next link the frame into the pool's LRU ring while it is
	// unpinned; both are nil while it is pinned.
	prev, next *frame
}

// NewBufferPool creates a pool caching up to capacity pages over disk.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	return bp
}

// Stats returns a snapshot of the pool's counters.
func (bp *BufferPool) Stats() BufferPoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// newPage allocates a fresh page, pins it and returns it. Its frame starts
// dirty, so the page is on disk before it can be evicted and read back.
func (bp *BufferPool) newPage() (PageID, *Page, error) {
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return InvalidPageID, nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if _, err := bp.ensureRoom(); err != nil {
		return InvalidPageID, nil, err
	}
	f := &frame{page: newPage(), id: id, pins: 1, dirty: true}
	bp.frames[id] = f
	return id, f.page, nil
}

// fetch pins page id and returns it, reading it from disk on a miss.
func (bp *BufferPool) fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		f.pins++
		if f.next != nil {
			f.unlink()
		}
		return f.page, nil
	}
	bp.stats.Misses++
	f, err := bp.ensureRoom()
	if err != nil {
		return nil, err
	}
	if f == nil {
		f = &frame{page: new(Page)}
	}
	if err := bp.disk.ReadPage(id, f.page.bytes()); err != nil {
		return nil, err
	}
	f.id, f.pins, f.dirty = id, 1, false
	bp.frames[id] = f
	return f.page, nil
}

// unpin releases one pin on page id. dirty marks the page as modified so it
// is written back before eviction.
func (bp *BufferPool) unpin(id PageID, dirty bool) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: unpin of uncached page %d", id)
	}
	if f.pins <= 0 {
		return fmt.Errorf("storage: unpin of unpinned page %d", id)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	if f.pins == 0 {
		// Most recently unpinned: at the front of the ring.
		f.prev, f.next = &bp.lru, bp.lru.next
		f.prev.next, f.next.prev = f, f
	}
	return nil
}

// unlink takes the frame off the LRU ring.
func (f *frame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// ensureRoom evicts the least recently unpinned page if the pool is at
// capacity, and hands back the evicted frame (nil when nothing was evicted)
// for the caller to reuse, page buffer and all: nobody holds an unpinned
// page, and a scan over a table larger than the pool misses on every fetch,
// where allocating and clearing a fresh 8 KiB page cost more than the read
// itself. The caller must hold bp.mu.
func (bp *BufferPool) ensureRoom() (*frame, error) {
	if len(bp.frames) < bp.capacity {
		return nil, nil
	}
	f := bp.lru.prev
	if f == &bp.lru {
		return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", bp.capacity)
	}
	if f.dirty {
		if err := bp.disk.WritePage(f.id, f.page.bytes()); err != nil {
			return nil, err
		}
		bp.stats.Writes++
	}
	f.unlink()
	delete(bp.frames, f.id)
	bp.stats.Evictions++
	return f, nil
}
