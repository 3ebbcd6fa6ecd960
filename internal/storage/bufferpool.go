package storage

import (
	"container/list"
	"fmt"
	"sync"
)

// BufferPool caches pages in memory in front of a DiskManager. Pages are
// pinned while in use; unpinned pages are eligible for LRU eviction, with
// dirty pages written back before reuse.
//
// All methods are safe for concurrent use; the pool takes a single mutex,
// which is adequate for the session counts a forms server runs (tens of
// concurrent form sessions).
type BufferPool struct {
	mu       sync.Mutex
	disk     DiskManager
	capacity int

	frames map[PageID]*frame
	lru    *list.List // of PageID, front = most recently used

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
	page    *Page
	id      PageID
	pins    int
	dirty   bool
	lruElem *list.Element
}

// NewBufferPool creates a pool caching up to capacity pages over disk.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
	}
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
		if f.lruElem != nil {
			bp.lru.Remove(f.lruElem)
			f.lruElem = nil
		}
		return f.page, nil
	}
	bp.stats.Misses++
	p, err := bp.ensureRoom()
	if err != nil {
		return nil, err
	}
	if p == nil {
		p = new(Page)
	}
	if err := bp.disk.ReadPage(id, p.bytes()); err != nil {
		return nil, err
	}
	bp.frames[id] = &frame{page: p, id: id, pins: 1}
	return p, nil
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
		f.lruElem = bp.lru.PushFront(f.id)
	}
	return nil
}

// ensureRoom evicts the least recently used unpinned page if the pool is at
// capacity, and hands back the evicted frame's page buffer (nil when nothing
// was evicted) for the caller to read into: nobody holds an unpinned page,
// and a scan over a table larger than the pool misses on every fetch, where
// allocating and clearing a fresh 8 KiB page cost more than the read itself.
// The caller must hold bp.mu.
func (bp *BufferPool) ensureRoom() (*Page, error) {
	if len(bp.frames) < bp.capacity {
		return nil, nil
	}
	elem := bp.lru.Back()
	if elem == nil {
		return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", bp.capacity)
	}
	id := elem.Value.(PageID)
	f := bp.frames[id]
	if f.dirty {
		if err := bp.disk.WritePage(id, f.page.bytes()); err != nil {
			return nil, err
		}
		bp.stats.Writes++
	}
	bp.lru.Remove(elem)
	delete(bp.frames, id)
	bp.stats.Evictions++
	return f.page, nil
}
