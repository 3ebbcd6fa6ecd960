package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// DiskManager abstracts the medium evicted pages spill to. Nothing in it is
// durable: the write-ahead log is the database, and pages are rebuilt from it
// at every open. Two implementations exist: FileDiskManager (a scratch file,
// used when a deployment names one) and MemDiskManager (an in-memory page
// array, used by tests, examples and every database opened without a data
// file).
type DiskManager interface {
	// ReadPage reads page id into buf, which must be PageSize bytes.
	ReadPage(id PageID, buf []byte) error
	// WritePage writes buf (PageSize bytes) as page id.
	WritePage(id PageID, buf []byte) error
	// AllocatePage reserves the next page id.
	AllocatePage() (PageID, error)
	// Close releases the underlying resource.
	Close() error
}

// MemDiskManager keeps all pages in memory. It is safe for concurrent use.
type MemDiskManager struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemDiskManager returns an empty in-memory disk manager.
func NewMemDiskManager() *MemDiskManager { return &MemDiskManager{} }

// ReadPage implements DiskManager.
func (m *MemDiskManager) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (m *MemDiskManager) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(m.pages[id], buf)
	return nil
}

// AllocatePage implements DiskManager.
func (m *MemDiskManager) AllocatePage() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

// Close implements DiskManager.
func (m *MemDiskManager) Close() error { return nil }

// FileDiskManager spills pages to a scratch file, page i at byte offset
// i*PageSize. The file is created empty at open and removed at close; it is
// never read back across opens.
type FileDiskManager struct {
	mu   sync.Mutex
	path string
	file *os.File
	n    PageID
}

// OpenFileDiskManager creates the scratch file at path, truncating whatever
// a previous run left there.
func OpenFileDiskManager(path string) (*FileDiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &FileDiskManager{path: path, file: f}, nil
}

// ReadPage implements DiskManager.
func (d *FileDiskManager) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.n {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	_, err := d.file.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements DiskManager.
func (d *FileDiskManager) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id >= d.n {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	_, err := d.file.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// AllocatePage implements DiskManager. It writes nothing: the buffer pool
// hands out a new page as a dirty frame, so the page reaches the file on
// eviction before anything can read it.
func (d *FileDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.n
	d.n++
	return id, nil
}

// Close implements DiskManager: it closes and removes the file. A file that
// is already gone is not an error.
func (d *FileDiskManager) Close() error {
	err := d.file.Close()
	if rerr := os.Remove(d.path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		err = errors.Join(err, rerr)
	}
	return err
}
