package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// DiskManager abstracts the medium pages are persisted on. Two
// implementations exist: FileDiskManager (a real file, used by the tools) and
// MemDiskManager (an in-memory page array, used by tests, examples and every
// database opened without a data file).
type DiskManager interface {
	// ReadPage reads page id into buf, which must be PageSize bytes.
	ReadPage(id PageID, buf []byte) error
	// WritePage writes buf (PageSize bytes) as page id.
	WritePage(id PageID, buf []byte) error
	// AllocatePage extends the file by one page and returns its id.
	AllocatePage() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() PageID
	// Sync flushes buffered writes to stable storage.
	Sync() error
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

// NumPages implements DiskManager.
func (m *MemDiskManager) NumPages() PageID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return PageID(len(m.pages))
}

// Sync implements DiskManager. It is a no-op for memory.
func (m *MemDiskManager) Sync() error { return nil }

// Close implements DiskManager.
func (m *MemDiskManager) Close() error { return nil }

// FileDiskManager stores pages in a single operating-system file, page i at
// byte offset i*PageSize.
type FileDiskManager struct {
	mu   sync.Mutex
	file *os.File
	n    PageID
}

// OpenFileDiskManager opens (or creates) the database file at path.
func OpenFileDiskManager(path string) (*FileDiskManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("storage: stat %s: %w", path, err), f.Close())
	}
	if info.Size()%PageSize != 0 {
		return nil, errors.Join(
			fmt.Errorf("storage: %s has size %d, not a multiple of the page size", path, info.Size()),
			f.Close())
	}
	return &FileDiskManager{file: f, n: PageID(info.Size() / PageSize)}, nil
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

// AllocatePage implements DiskManager.
func (d *FileDiskManager) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.n
	zero := make([]byte, PageSize)
	if _, err := d.file.WriteAt(zero, int64(id)*PageSize); err != nil {
		return InvalidPageID, err
	}
	d.n++
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDiskManager) NumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Sync implements DiskManager.
func (d *FileDiskManager) Sync() error { return d.file.Sync() }

// Close implements DiskManager.
func (d *FileDiskManager) Close() error { return d.file.Close() }
