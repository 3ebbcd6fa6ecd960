package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/types"
)

func intKey(i int64) []byte { return types.EncodeKey(nil, types.NewInt(i)) }

func rid(n int) storage.RecordID {
	return storage.RecordID{Page: storage.PageID(n / 100), Slot: uint16(n % 100)}
}

func TestInsertSearchUnique(t *testing.T) {
	tr := New(true)
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(intKey(int64(i)), rid(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if tr.size != 1000 {
		t.Errorf("Len = %d", tr.size)
	}
	if tr.height() < 2 {
		t.Errorf("expected a multi-level tree, height = %d", tr.height())
	}
	for i := 0; i < 1000; i++ {
		got := tr.Search(intKey(int64(i)))
		if len(got) != 1 || got[0] != rid(i) {
			t.Fatalf("Search %d = %v", i, got)
		}
	}
	if got := tr.Search(intKey(5000)); got != nil {
		t.Errorf("Search missing = %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeyRejectedInUnique(t *testing.T) {
	tr := New(true)
	if err := tr.Insert(intKey(1), rid(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intKey(1), rid(2)); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("expected ErrDuplicateKey, got %v", err)
	}
	if !tr.unique {
		t.Error("Unique() should be true")
	}
}

func TestNonUniquePostingLists(t *testing.T) {
	tr := New(false)
	key := types.EncodeKey(nil, types.NewString("Boston"))
	for i := 0; i < 10; i++ {
		if err := tr.Insert(key, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Same (key, rid) twice is a no-op.
	if err := tr.Insert(key, rid(3)); err != nil {
		t.Fatal(err)
	}
	if tr.size != 10 {
		t.Errorf("Len = %d, want 10", tr.size)
	}
	got := tr.Search(key)
	if len(got) != 10 {
		t.Errorf("Search returned %d records", len(got))
	}
	if len(tr.Search(key)) == 0 {
		t.Error("Contains should be true")
	}
}

func TestDelete(t *testing.T) {
	tr := New(false)
	for i := 0; i < 500; i++ {
		_ = tr.Insert(intKey(int64(i)), rid(i))
	}
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(intKey(int64(i)), rid(i)) {
			t.Fatalf("Delete %d returned false", i)
		}
	}
	if tr.size != 250 {
		t.Errorf("Len after deletes = %d", tr.size)
	}
	for i := 0; i < 500; i++ {
		found := len(tr.Search(intKey(int64(i)))) > 0
		if found != (i%2 == 1) {
			t.Errorf("key %d found=%v", i, found)
		}
	}
	if tr.Delete(intKey(2), rid(2)) {
		t.Error("deleting an absent entry should return false")
	}
	if tr.Delete(intKey(3), rid(999)) {
		t.Error("deleting an absent rid should return false")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// scan drains a cursor over r into a copy of its entries.
func scan(tr *Tree, r Range) []Entry {
	var out []Entry
	c := tr.Cursor(r)
	for batch := c.Next(); batch != nil; batch = c.Next() {
		for _, e := range batch {
			out = append(out, Entry{Key: e.Key, Records: append([]storage.RecordID(nil), e.Records...)})
		}
	}
	return out
}

func TestCursorRange(t *testing.T) {
	tr := New(true)
	for i := 0; i < 1000; i++ {
		_ = tr.Insert(intKey(int64(i)), rid(i))
	}
	got := scan(tr, Range{Low: intKey(100), High: intKey(200), HighOpen: true})
	if len(got) != 100 {
		t.Fatalf("[100, 200) returned %d entries, want 100", len(got))
	}
	for i, e := range got {
		if len(e.Records) != 1 || e.Records[0] != rid(100+i) {
			t.Errorf("entry %d = %v, want %v", i, e.Records, rid(100+i))
		}
	}
	back := scan(tr, Range{Low: intKey(100), High: intKey(200), HighOpen: true, Reverse: true})
	if len(back) != 100 || back[0].Records[0] != rid(199) || back[99].Records[0] != rid(100) {
		t.Errorf("[100, 200) reversed = %d entries from %v", len(back), back[0].Records)
	}
	// Open-ended scans.
	if n := len(scan(tr, Range{High: intKey(10), HighOpen: true})); n != 10 {
		t.Errorf("(.., 10) = %d", n)
	}
	if n := len(scan(tr, Range{Low: intKey(990)})); n != 10 {
		t.Errorf("[990, ..) = %d", n)
	}
	if n := len(scan(tr, Range{})); n != 1000 {
		t.Errorf("unbounded = %d", n)
	}
	// A batch never holds more than one leaf, so a caller that stops after
	// the first has read at most fanout entries of the thousand.
	if n := len(tr.Cursor(Range{}).Next()); n == 0 || n > fanout {
		t.Errorf("first batch holds %d entries", n)
	}
}

func TestScanOrderIsSorted(t *testing.T) {
	tr := New(true)
	perm := rand.New(rand.NewSource(42)).Perm(2000)
	for _, i := range perm {
		if err := tr.Insert(intKey(int64(i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	var prev []byte
	for _, e := range scan(tr, Range{}) {
		if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = e.Key
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMin(t *testing.T) {
	tr := New(true)
	if got := scan(tr, Range{}); len(got) != 0 {
		t.Errorf("empty tree scans %d entries", len(got))
	}
	_ = tr.Insert(intKey(50), rid(50))
	_ = tr.Insert(intKey(10), rid(10))
	_ = tr.Insert(intKey(90), rid(90))
	if got := scan(tr, Range{}); !bytes.Equal(got[0].Key, intKey(10)) {
		t.Error("a full scan should start at the smallest key")
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(false)
	cities := []string{"Boston", "Austin", "Chicago", "Denver", "Austin", "Erie"}
	for i, c := range cities {
		if err := tr.Insert(types.EncodeKey(nil, types.NewString(c)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Search(types.EncodeKey(nil, types.NewString("Austin"))); len(got) != 2 {
		t.Errorf("Austin posting list = %v", got)
	}
	// Range [B, D) should cover Boston and Chicago.
	low := types.EncodeKey(nil, types.NewString("B"))
	high := types.EncodeKey(nil, types.NewString("D"))
	if got := scan(tr, Range{Low: low, High: high, HighOpen: true}); len(got) != 2 {
		t.Errorf("[B, D) = %v", got)
	}
}

func TestPropertyMatchesSortedMap(t *testing.T) {
	f := func(keys []int16) bool {
		tr := New(false)
		ref := map[int64]int{}
		for i, k := range keys {
			_ = tr.Insert(intKey(int64(k)), rid(i))
			ref[int64(k)]++
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		// Every reference key must be found with the right cardinality.
		for k, n := range ref {
			if len(tr.Search(intKey(k))) != n {
				return false
			}
		}
		// Full scan must be sorted and complete.
		var sortedRef []int64
		for k := range ref {
			sortedRef = append(sortedRef, k)
		}
		sort.Slice(sortedRef, func(i, j int) bool { return sortedRef[i] < sortedRef[j] })
		got := scan(tr, Range{})
		if len(got) != len(sortedRef) {
			return false
		}
		for i, e := range got {
			if !bytes.Equal(e.Key, intKey(sortedRef[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInsertDeleteInverse(t *testing.T) {
	f := func(keys []uint8) bool {
		tr := New(false)
		for i, k := range keys {
			_ = tr.Insert(intKey(int64(k)), rid(i))
		}
		for i, k := range keys {
			if !tr.Delete(intKey(int64(k)), rid(i)) {
				return false
			}
		}
		return tr.size == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLargeTreeHeightLogarithmic(t *testing.T) {
	tr := New(true)
	n := 100000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h := tr.height(); h > 5 {
		t.Errorf("height %d too large for %d keys with fanout %d", h, n, fanout)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Insert(intKey(int64(i)), rid(i))
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := New(true)
	for i := 0; i < 100000; i++ {
		_ = tr.Insert(intKey(int64(i)), rid(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.Search(intKey(int64(i%100000))) == nil {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkRangeScan100(b *testing.B) {
	tr := New(true)
	for i := 0; i < 100000; i++ {
		_ = tr.Insert(intKey(int64(i)), rid(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := int64((i * 37) % 99900)
		n := 0
		c := tr.Cursor(Range{Low: intKey(lo), High: intKey(lo + 100), HighOpen: true})
		for batch := c.Next(); batch != nil; batch = c.Next() {
			n += len(batch)
		}
		if n != 100 {
			b.Fatalf("range returned %d", n)
		}
	}
}

func ExampleTree_Cursor() {
	tr := New(true)
	for _, name := range []string{"ada", "bob", "cyd"} {
		_ = tr.Insert(types.EncodeKey(nil, types.NewString(name)), storage.RecordID{})
	}
	c := tr.Cursor(Range{Reverse: true})
	for batch := c.Next(); batch != nil; batch = c.Next() {
		for _, e := range batch {
			fmt.Printf("%s %d\n", e.Key[1:4], len(e.Records))
		}
	}
	// Output:
	// cyd 1
	// bob 1
	// ada 1
}
