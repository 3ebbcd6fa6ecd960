package storage

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestCachedPinAllocatesNothing: pinning and unpinning a page the pool holds
// only relinks its frame in the LRU ring, and an in-place read of a version
// on it adds nothing either.
func TestCachedPinAllocatesNothing(t *testing.T) {
	pool := NewBufferPool(NewMemDiskManager(), 4)
	h := NewHeapFile(pool)
	rid, err := h.InsertVersion(VersionMeta{Xmin: 3}, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	pin := testing.AllocsPerRun(100, func() {
		if _, err := pool.fetch(rid.Page); err != nil {
			t.Fatal(err)
		}
		if err := pool.unpin(rid.Page, false); err != nil {
			t.Fatal(err)
		}
	})
	var n int
	count := func(_ VersionMeta, payload []byte) error {
		n += len(payload)
		return nil
	}
	view := testing.AllocsPerRun(100, func() {
		if err := h.ViewVersion(rid, count); err != nil {
			t.Fatal(err)
		}
	})
	if pin != 0 || view != 0 {
		t.Errorf("a pin and unpin of a cached page allocates %.1f objects and a ViewVersion %.1f; want 0 and 0", pin, view)
	}
}

// TestBufferPoolEvictsLeastRecentlyUnpinned holds the eviction order: the
// frame unpinned longest ago goes first, a frame pinned again leaves the
// order until it is unpinned, a pinned frame never goes, and a pool whose
// frames are all pinned refuses another page with its exhaustion error.
func TestBufferPoolEvictsLeastRecentlyUnpinned(t *testing.T) {
	pool := NewBufferPool(NewMemDiskManager(), 3)
	newUnpinned := func() PageID {
		t.Helper()
		id, _, err := pool.newPage()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	unpin := func(id PageID) {
		t.Helper()
		if err := pool.unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	cached := func(id PageID) bool {
		_, ok := pool.frames[id]
		return ok
	}

	a, b, c := newUnpinned(), newUnpinned(), newUnpinned()
	unpin(b)
	unpin(a)
	unpin(c) // least recently unpinned first: b, a, c
	d := newUnpinned()
	if cached(b) || !cached(a) || !cached(c) {
		t.Fatalf("a new page evicted the wrong frame: cached a=%v b=%v c=%v", cached(a), cached(b), cached(c))
	}
	// Pinning a takes it out of the order; c is now the oldest unpinned.
	if _, err := pool.fetch(a); err != nil {
		t.Fatal(err)
	}
	e := newUnpinned()
	if cached(c) || !cached(a) {
		t.Fatalf("evicted a pinned frame or skipped the oldest: cached a=%v c=%v", cached(a), cached(c))
	}
	// Unpinned again, a is the most recent: d goes before it.
	unpin(a)
	unpin(d)
	unpin(e) // order: a, d, e
	// A miss reads b back into the frame it evicts.
	if _, err := pool.fetch(b); err != nil {
		t.Fatal(err)
	}
	if cached(a) || !cached(d) || !cached(e) {
		t.Fatalf("a miss evicted the wrong frame: cached a=%v d=%v e=%v", cached(a), cached(d), cached(e))
	}

	// b is pinned; pin d and e too, and nothing can go.
	for _, id := range []PageID{d, e} {
		if _, err := pool.fetch(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := pool.newPage(); err == nil || !strings.Contains(err.Error(), "buffer pool exhausted (3 pages, all pinned)") {
		t.Fatalf("newPage with every frame pinned: %v, want the exhaustion error", err)
	}
	if _, err := pool.fetch(c); err == nil || !strings.Contains(err.Error(), "buffer pool exhausted") {
		t.Fatalf("a miss with every frame pinned: %v, want the exhaustion error", err)
	}
	if st := pool.Stats(); st.Evictions != 3 {
		t.Errorf("Evictions = %d, want 3", st.Evictions)
	}
}

// TestViewVersionReadsInPlace: the payload ViewVersion hands over is the
// page's own bytes, valid inside the call; GetVersion copies them out. A
// missing record and an error from fn come back to the caller, and neither
// leaves the page pinned.
func TestViewVersionReadsInPlace(t *testing.T) {
	pool := NewBufferPool(NewMemDiskManager(), 4)
	h := NewHeapFile(pool)
	rid, err := h.InsertVersion(VersionMeta{Xmin: 7, Xmax: 9}, []byte("stored"))
	if err != nil {
		t.Fatal(err)
	}
	var seen []byte
	err = h.ViewVersion(rid, func(meta VersionMeta, payload []byte) error {
		if meta != (VersionMeta{Xmin: 7, Xmax: 9}) || string(payload) != "stored" {
			t.Errorf("ViewVersion saw %+v %q", meta, payload)
		}
		seen = payload
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, copied, err := h.GetVersion(rid)
	if err != nil {
		t.Fatal(err)
	}
	// The viewed payload is the frame's bytes; the copy is not.
	page := pool.frames[rid.Page].page
	raw, err := page.get(int(rid.Slot))
	if err != nil {
		t.Fatal(err)
	}
	if &raw[VersionHeaderSize] != &seen[0] {
		t.Error("ViewVersion's payload is not the page's bytes")
	}
	copied[0] = 'X'
	if !bytes.Equal(raw[VersionHeaderSize:], []byte("stored")) {
		t.Error("GetVersion's payload aliases the page")
	}

	sentinel := errors.New("fn failed")
	if err := h.ViewVersion(rid, func(VersionMeta, []byte) error { return sentinel }); err != sentinel {
		t.Errorf("fn's error came back as %v", err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	called := false
	err = h.ViewVersion(rid, func(VersionMeta, []byte) error { called = true; return nil })
	if !errors.Is(err, ErrRecordNotFound) || called {
		t.Errorf("ViewVersion of a deleted record: err %v, fn called %v", err, called)
	}
	for id, f := range pool.frames {
		if f.pins != 0 {
			t.Errorf("page %d is left with %d pins", id, f.pins)
		}
	}
}
