package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestPageInsertGet(t *testing.T) {
	p := newPage()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte(""), []byte("gamma gamma gamma")}
	slots := make([]int, len(recs))
	for i, r := range recs {
		s, err := p.insert(r)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		slots[i] = s
	}
	for i, r := range recs {
		got, err := p.get(slots[i])
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, r) {
			t.Errorf("Get %d = %q, want %q", i, got, r)
		}
	}
	if liveRecords(p) != len(recs) {
		t.Errorf("LiveRecords = %d, want %d", liveRecords(p), len(recs))
	}
}

func TestPageDelete(t *testing.T) {
	p := newPage()
	s1, _ := p.insert([]byte("one"))
	s2, _ := p.insert([]byte("two"))
	if err := p.delete(s1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := p.get(s1); !errors.Is(err, ErrNoSuchSlot) {
		t.Errorf("Get deleted slot: %v", err)
	}
	if err := p.delete(s1); !errors.Is(err, ErrNoSuchSlot) {
		t.Errorf("double Delete: %v", err)
	}
	if err := p.delete(99); !errors.Is(err, ErrNoSuchSlot) {
		t.Errorf("Delete bad slot: %v", err)
	}
	got, err := p.get(s2)
	if err != nil || !bytes.Equal(got, []byte("two")) {
		t.Errorf("Get surviving record = %q, %v", got, err)
	}
	if liveRecords(p) != 1 {
		t.Errorf("LiveRecords = %d, want 1", liveRecords(p))
	}
}

func TestPageSlotReuse(t *testing.T) {
	p := newPage()
	s1, _ := p.insert([]byte("one"))
	_ = p.delete(s1)
	s2, err := p.insert([]byte("newcomer"))
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Errorf("tombstoned slot should be reused: got %d, want %d", s2, s1)
	}
}

func TestPageUpdateInPlaceAndGrow(t *testing.T) {
	p := newPage()
	s, _ := p.insert([]byte("0123456789"))
	if err := p.update(s, []byte("short")); err != nil {
		t.Fatalf("shrink update: %v", err)
	}
	got, _ := p.get(s)
	if string(got) != "short" {
		t.Errorf("after shrink: %q", got)
	}
	long := bytes.Repeat([]byte("x"), 500)
	if err := p.update(s, long); err != nil {
		t.Fatalf("grow update: %v", err)
	}
	got, _ = p.get(s)
	if !bytes.Equal(got, long) {
		t.Errorf("after grow: %d bytes", len(got))
	}
	if err := p.update(42, []byte("x")); !errors.Is(err, ErrNoSuchSlot) {
		t.Errorf("update bad slot: %v", err)
	}
}

func TestPageFullAndCompaction(t *testing.T) {
	p := newPage()
	rec := bytes.Repeat([]byte("a"), 1000)
	var slots []int
	for {
		s, err := p.insert(rec)
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) != 8 { // 8 * (1000+4) + header < 8192
		t.Errorf("expected 8 records per page, got %d", len(slots))
	}
	// Delete every other record; compaction should then make room again.
	for i := 0; i < len(slots); i += 2 {
		if err := p.delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(slots)/2; i++ {
		if _, err := p.insert(rec); err != nil {
			t.Fatalf("insert after delete+compact %d: %v", i, err)
		}
	}
	// Surviving originals must be intact after compaction moved them.
	for i := 1; i < len(slots); i += 2 {
		got, err := p.get(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Errorf("record %d corrupted after compaction", i)
		}
	}
}

func TestPageOversizeRecord(t *testing.T) {
	p := newPage()
	if _, err := p.insert(make([]byte, PageSize)); err == nil {
		t.Error("a record larger than a page must be rejected")
	}
}

func TestPageUpdateGrowRelocationNeeded(t *testing.T) {
	p := newPage()
	small, _ := p.insert([]byte("tiny"))
	// Fill the page almost completely.
	filler := bytes.Repeat([]byte("f"), 2000)
	for {
		if _, err := p.insert(filler); err != nil {
			break
		}
	}
	big := bytes.Repeat([]byte("B"), 4000)
	err := p.update(small, big)
	if !errors.Is(err, ErrPageFull) {
		t.Fatalf("expected ErrPageFull, got %v", err)
	}
	// The original record must still be readable after the failed update.
	got, err := p.get(small)
	if err != nil || string(got) != "tiny" {
		t.Errorf("original record lost after failed grow: %q, %v", got, err)
	}
}

func TestPageLoadBytesRoundTrip(t *testing.T) {
	p := newPage()
	s, _ := p.insert([]byte("persist me"))
	disk := NewMemDiskManager()
	id, err := disk.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.WritePage(id, p.bytes()); err != nil {
		t.Fatal(err)
	}
	q := newPage()
	if err := disk.ReadPage(id, q.bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := q.get(s)
	if err != nil || string(got) != "persist me" {
		t.Errorf("round trip through bytes: %q, %v", got, err)
	}
}

func TestPagePropertyInsertGetConsistency(t *testing.T) {
	f := func(payloads [][]byte) bool {
		p := newPage()
		inserted := map[int][]byte{}
		for _, rec := range payloads {
			if len(rec) > 1024 {
				rec = rec[:1024]
			}
			s, err := p.insert(rec)
			if errors.Is(err, ErrPageFull) {
				break
			}
			if err != nil {
				return false
			}
			inserted[s] = rec
		}
		for s, want := range inserted {
			got, err := p.get(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRecordIDStringAndLess(t *testing.T) {
	a := RecordID{Page: 1, Slot: 2}
	b := RecordID{Page: 1, Slot: 3}
	c := RecordID{Page: 2, Slot: 0}
	if a.String() != "1:2" {
		t.Errorf("String = %q", a.String())
	}
	if b.String() != "1:3" || c.String() != "2:0" {
		t.Errorf("String = %q, %q", b.String(), c.String())
	}
}

func TestFreeSpaceDecreases(t *testing.T) {
	p := newPage()
	_, _ = p.insert(make([]byte, 100))
	// What is left after one record and its slot, less the new slot.
	room := PageSize - pageHeaderSize - 2*slotSize - 100
	if _, err := p.insert(make([]byte, room+1)); !errors.Is(err, ErrPageFull) {
		t.Errorf("a record one byte over the free space: %v, want ErrPageFull", err)
	}
	if _, err := p.insert(make([]byte, room)); err != nil {
		t.Errorf("a record filling the free space exactly: %v", err)
	}
}

func ExampleNewHeapFile() {
	h := NewHeapFile(NewBufferPool(NewMemDiskManager(), 8))
	rid, _ := h.InsertVersion(VersionMeta{Xmin: 1}, []byte("hello"))
	_, rec, _ := h.GetVersion(rid)
	fmt.Println(string(rec))
	// Output: hello
}

// liveRecords counts the page's non-tombstoned records.
func liveRecords(p *Page) int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		if _, err := p.get(i); err == nil {
			n++
		}
	}
	return n
}
