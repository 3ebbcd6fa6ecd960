package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func newTestHeap() *HeapFile {
	return NewHeapFile(NewBufferPool(NewMemDiskManager(), 64))
}

func TestHeapInsertGetDelete(t *testing.T) {
	h := newTestHeap()
	rids := make([]RecordID, 0, 100)
	for i := 0; i < 100; i++ {
		rid, err := h.InsertVersion(VersionMeta{Xmin: uint64(i)}, []byte(fmt.Sprintf("record-%03d", i)))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	for i, rid := range rids {
		meta, got, err := h.GetVersion(rid)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if want := fmt.Sprintf("record-%03d", i); string(got) != want || meta.Xmin != uint64(i) {
			t.Errorf("Get %d = %+v %q, want xmin %d and %q", i, meta, got, i, want)
		}
	}
	if err := h.Delete(rids[10]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.GetVersion(rids[10]); !errors.Is(err, ErrRecordNotFound) {
		t.Errorf("Get deleted = %v", err)
	}
	if err := h.Delete(rids[10]); !errors.Is(err, ErrRecordNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if h.Count() != 99 {
		t.Errorf("Count after delete = %d", h.Count())
	}
	if _, _, err := h.GetVersion(RecordID{Page: 9999, Slot: 0}); !errors.Is(err, ErrRecordNotFound) {
		t.Errorf("Get from foreign page = %v", err)
	}
}

func TestHeapSpansPages(t *testing.T) {
	h := newTestHeap()
	rec := bytes.Repeat([]byte("x"), 3000)
	for i := 0; i < 20; i++ {
		if _, err := h.insert(rec); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if len(h.pages) < 10 {
		t.Errorf("expected records to span many pages, got %d", len(h.pages))
	}
	records := scanAll(t, h)
	for i, record := range records {
		if !bytes.Equal(record, rec) {
			t.Errorf("scan record %d mismatch", i)
		}
	}
	if len(records) != 20 {
		t.Errorf("scan saw %d records, want 20", len(records))
	}
}

// TestHeapInsertFetchesOnePage holds the append rule: once a heap spans
// several pages, an insert fetches only the last page, also when that page
// is full and a new one is allocated (allocation is not a fetch).
func TestHeapInsertFetchesOnePage(t *testing.T) {
	pool := NewBufferPool(NewMemDiskManager(), 64)
	h := NewHeapFile(pool)
	rec := bytes.Repeat([]byte("p"), 1000) // 8 records to a page
	for len(h.pages) < 3 {
		if _, err := h.insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	before := pool.Stats()
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := h.insert(rec); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	after := pool.Stats()
	if fetches := (after.Hits + after.Misses) - (before.Hits + before.Misses); fetches != n {
		t.Errorf("%d inserts fetched %d pages, want %d", n, fetches, n)
	}
	if len(h.pages) < 7 {
		t.Errorf("heap spans %d pages; the inserts should have allocated new ones", len(h.pages))
	}
}

// TestInsertVersionsFetchesOncePerBatch checks the batch append: a batch
// that fills the heap's last page and several new ones fetches only that last
// page, once, and every version reads back with its own header and payload.
func TestInsertVersionsFetchesOncePerBatch(t *testing.T) {
	pool := NewBufferPool(NewMemDiskManager(), 64)
	h := NewHeapFile(pool)
	if _, err := h.InsertVersion(VersionMeta{Xmin: 1}, []byte("first")); err != nil {
		t.Fatal(err)
	}
	const n = 40
	metas := make([]VersionMeta, n)
	payloads := make([][]byte, n)
	for i := range payloads {
		metas[i] = VersionMeta{Xmin: uint64(i + 2)}
		payloads[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 900+i) // 8 or 9 to a page
	}
	rids := make([]RecordID, n)
	before := pool.Stats()
	if err := h.InsertVersions(metas, payloads, rids); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if fetches := (after.Hits + after.Misses) - (before.Hits + before.Misses); fetches != 1 {
		t.Errorf("a batch of %d versions fetched %d pages, want 1", n, fetches)
	}
	if rids[0].Page != h.pages[0] {
		t.Errorf("the batch started on page %d, not on the heap's last page %d", rids[0].Page, h.pages[0])
	}
	if len(h.pages) < 5 || h.Count() != n+1 {
		t.Errorf("heap spans %d pages holding %d records", len(h.pages), h.Count())
	}
	for i, rid := range rids {
		meta, payload, err := h.GetVersion(rid)
		if err != nil {
			t.Fatalf("version %d at %v: %v", i, rid, err)
		}
		if meta != metas[i] || !bytes.Equal(payload, payloads[i]) {
			t.Errorf("version %d reads back as %+v with %d bytes", i, meta, len(payload))
		}
	}
	// A record that can never fit fails the batch and leaves nothing pinned.
	err := h.InsertVersions([]VersionMeta{{}}, [][]byte{make([]byte, PageSize)}, make([]RecordID, 1))
	if err == nil {
		t.Fatal("a version larger than a page was stored")
	}
	for id, f := range pool.frames {
		if f.pins != 0 {
			t.Errorf("page %d is left with %d pins", id, f.pins)
		}
	}
}

func TestHeapIterator(t *testing.T) {
	h := newTestHeap()
	want := map[string]bool{}
	for i := 0; i < 50; i++ {
		s := fmt.Sprintf("it-%d", i)
		want[s] = true
		if _, err := h.insert([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	it := h.Iterator()
	seen := 0
	for {
		_, rec, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !want[string(rec)] {
			t.Errorf("unexpected record %q", rec)
		}
		seen++
	}
	if seen != 50 {
		t.Errorf("iterator saw %d records, want 50", seen)
	}
}

// TestHeapIteratorReuse: an iterator told to Reuse hands over the same
// records in the same order as a copying one, and copies every page into one
// buffer: it allocates at least one object per page fewer than a copying
// scan, whose per-page copy is its only per-page allocation.
func TestHeapIteratorReuse(t *testing.T) {
	h := newTestHeap()
	for i := 0; i < 2000; i++ {
		if _, err := h.insert([]byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte("r"), i%40)))); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.pages) < 8 {
		t.Fatalf("the heap holds %d pages, want several", len(h.pages))
	}
	var want []string
	for _, rec := range scanAll(t, h) {
		want = append(want, string(rec))
	}
	copying := testing.AllocsPerRun(5, func() { scanAll(t, h) })
	read := 0
	allocs := testing.AllocsPerRun(5, func() {
		it := h.Iterator()
		it.Reuse()
		read = 0
		for {
			_, rec, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if read >= len(want) || string(rec) != want[read] {
				t.Fatalf("reusing record %d = %q, copying iterator read %q", read, rec, want[read])
			}
			read++
		}
	})
	if read != len(want) {
		t.Fatalf("the reusing scan read %d records, want %d", read, len(want))
	}
	t.Logf("a scan of %d pages: %.0f allocations copying, %.0f reusing", len(h.pages), copying, allocs)
	if saved := copying - allocs; saved < float64(len(h.pages)-1) {
		t.Errorf("a reusing scan of %d pages allocated %.0f objects, a copying one %.0f: want at least %d fewer", len(h.pages), allocs, copying, len(h.pages)-1)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h := newTestHeap()
	for i := 0; i < 10; i++ {
		_, _ = h.insert([]byte("x"))
	}
	// A scan abandoned part-way holds no latch and no pin: writes go on,
	// and the next scan sees them.
	it := h.Iterator()
	for i := 0; i < 3; i++ {
		if _, _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, err := h.insert([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if n := len(scanAll(t, h)); n != 11 {
		t.Errorf("scan after an abandoned one saw %d records, want 11", n)
	}
}

func TestBufferPoolEvictionAndStats(t *testing.T) {
	disk := NewMemDiskManager()
	pool := NewBufferPool(disk, 4)
	h := NewHeapFile(pool)
	rec := bytes.Repeat([]byte("y"), 4000)
	var rids []RecordID
	for i := 0; i < 20; i++ { // 2 records per page => 10 pages > capacity 4
		rid, err := h.InsertVersion(VersionMeta{}, rec)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	// All records must still be readable through eviction + reload.
	for i, rid := range rids {
		_, got, err := h.GetVersion(rid)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("Get %d after eviction: %v", i, err)
		}
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions with a tiny pool")
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	pool := NewBufferPool(NewMemDiskManager(), 2)
	// Pin two pages and never unpin; the third allocation must fail.
	if _, _, err := pool.newPage(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.newPage(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.newPage(); err == nil {
		t.Error("expected exhaustion error when every frame is pinned")
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	pool := NewBufferPool(NewMemDiskManager(), 2)
	if err := pool.unpin(PageID(7), false); err == nil {
		t.Error("unpin of uncached page should error")
	}
	id, _, err := pool.newPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.unpin(id, true); err != nil {
		t.Fatal(err)
	}
	if err := pool.unpin(id, false); err == nil {
		t.Error("unpin below zero should error")
	}
}

// TestFileDiskManagerIsScratch holds the spill file's contract: opening over
// anything a previous run left — here a file no page layout could produce —
// starts empty, pages round-trip through eviction, and Close removes the
// file.
func TestFileDiskManagerIsScratch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.db")
	if err := os.WriteFile(path, []byte("not a page multiple"), 0o644); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFileDiskManager(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("opened over an old file of %d bytes; want it truncated", info.Size())
	}
	if err := disk.ReadPage(0, make([]byte, PageSize)); err == nil {
		t.Error("read of a page from the old file should fail")
	}

	// A 2-page pool over 10 pages: every page is evicted, written to the
	// file and read back from it at least once.
	pool := NewBufferPool(disk, 2)
	h := NewHeapFile(pool)
	rec := bytes.Repeat([]byte("s"), 4000)
	var rids []RecordID
	for i := 0; i < 20; i++ {
		rec[0] = byte(i)
		rid, err := h.InsertVersion(VersionMeta{}, rec)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		rec[0] = byte(i)
		if _, got, err := h.GetVersion(rid); err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("Get %d through the spill file: %v", i, err)
		}
	}
	if st := pool.Stats(); st.Writes == 0 || st.Misses == 0 {
		t.Errorf("pages never went through the file: %+v", st)
	}

	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("after Close: stat = %v, want the file gone", err)
	}
}

func TestMemDiskManagerBounds(t *testing.T) {
	m := NewMemDiskManager()
	buf := make([]byte, PageSize)
	if err := m.ReadPage(0, buf); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if err := m.WritePage(0, buf); err == nil {
		t.Error("write of unallocated page should fail")
	}
	id, err := m.AllocatePage()
	if err != nil || id != 0 {
		t.Fatalf("AllocatePage = %d, %v", id, err)
	}
	if err := m.ReadPage(id, buf); err != nil {
		t.Errorf("read of allocated page: %v", err)
	}
	if err := m.ReadPage(id+1, buf); err == nil {
		t.Error("read past the last allocated page should fail")
	}
}

func BenchmarkHeapInsert(b *testing.B) {
	h := NewHeapFile(NewBufferPool(NewMemDiskManager(), 1024))
	rec := bytes.Repeat([]byte("r"), 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := h.insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	h := NewHeapFile(NewBufferPool(NewMemDiskManager(), 1024))
	rec := bytes.Repeat([]byte("r"), 100)
	for i := 0; i < 10000; i++ {
		if _, err := h.insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(scanAll(b, h)); n != 10000 {
			b.Fatal("bad scan")
		}
	}
}

// scanAll returns a copy of every live record, in physical order.
func scanAll(t testing.TB, h *HeapFile) [][]byte {
	t.Helper()
	var out [][]byte
	for it := h.Iterator(); ; {
		_, record, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, record)
	}
}

// TestBulkAppendCompactsNoPage: a page is compacted only when the bytes its
// deleted records left behind make the next record fit. Appending N records
// to an empty heap fills each page once and moves on, so it allocates no
// more than what its new pages cost plus a small constant; compacting every
// page that filled cost several allocations more per page. A full page with
// no dead bytes, or with too few, refuses a record and keeps its bytes.
func TestBulkAppendCompactsNoPage(t *testing.T) {
	const n = 3000
	metas := make([]VersionMeta, n)
	payloads := make([][]byte, n)
	for i := range payloads {
		metas[i].Xmin = uint64(i + 1)
		payloads[i] = []byte(fmt.Sprintf("row-%04d-%s", i, bytes.Repeat([]byte("p"), i%24)))
	}
	rids := make([]RecordID, n)
	pages := 0
	allocs := testing.AllocsPerRun(5, func() {
		h := NewHeapFile(NewBufferPool(NewMemDiskManager(), 64))
		if err := h.InsertVersions(metas, payloads, rids); err != nil {
			t.Fatal(err)
		}
		pages = len(h.pages)
	})
	if pages < 10 {
		t.Fatalf("%d records filled %d pages, want at least 10", n, pages)
	}
	// A new page costs its disk copy, its frame and its page, and the
	// slices and maps that track pages grow by doubling.
	const perPage, constant = 3, 40
	t.Logf("appending %d records onto %d new pages allocated %.0f objects", n, pages, allocs)
	if limit := float64(perPage*pages + constant); allocs > limit {
		t.Errorf("appending %d records onto %d new pages allocated %.0f objects, want at most %.0f", n, pages, allocs, limit)
	}

	// Fill a page with the payloads, then with one-byte records, until not
	// even one more fits.
	p := newPage()
	for i := 0; i < len(payloads)+PageSize; i++ {
		rec := []byte("x")
		if i < len(payloads) {
			rec = payloads[i]
		}
		if _, err := p.insert(rec); err != nil && !errors.Is(err, ErrPageFull) {
			t.Fatal(err)
		}
	}
	if dead := p.deadBytes(); dead != 0 {
		t.Fatalf("a page filled by appends holds %d dead bytes", dead)
	}
	before := p.data
	if _, err := p.insert([]byte("x")); !errors.Is(err, ErrPageFull) {
		t.Fatalf("insert into a full page with no dead bytes = %v, want ErrPageFull", err)
	}
	if p.data != before {
		t.Error("a full page with no dead bytes changed while refusing a record")
	}
	// One small record deleted from the middle leaves dead bytes too few for
	// a large record: the page refuses it without compacting.
	if err := p.delete(1); err != nil {
		t.Fatal(err)
	}
	before = p.data
	if _, err := p.insert(bytes.Repeat([]byte("L"), 200)); !errors.Is(err, ErrPageFull) {
		t.Fatalf("insert of a record its dead bytes cannot make room for = %v, want ErrPageFull", err)
	}
	if p.data != before {
		t.Error("a full page whose dead bytes are too few changed while refusing a record")
	}
}
