package btree

import (
	"fmt"
	"math/rand"
	"reflect"
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
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
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

// TestAscendingInsertsFillLeaves: an ascending key appends at the tree's
// right edge, and a full rightmost leaf gives only the new key to its new
// sibling, so N ascending inserts leave at most ⌈N/fanout⌉+1 leaves. Splitting
// every leaf in half left about twice that many, each half empty. Repeated
// keys join their posting list at the edge, and a descending load, which
// splits in half, still builds a valid tree.
func TestAscendingInsertsFillLeaves(t *testing.T) {
	leaves := func(tr *Tree) int {
		n := 0
		for l := tr.leftmostLeaf(); l != nil; l = l.next {
			n++
		}
		return n
	}
	for _, n := range []int{1, fanout, fanout + 1, 1000, 20000} {
		tr := New()
		for i := 0; i < n; i++ {
			tr.Insert(intKey(int64(i)), rid(i))
		}
		if got, limit := leaves(tr), (n+fanout-1)/fanout+1; got > limit {
			t.Errorf("%d ascending inserts left %d leaves, want at most %d", n, got, limit)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%d ascending inserts: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if got := tr.Search(intKey(int64(i))); len(got) != 1 || got[0] != rid(i) {
				t.Fatalf("%d ascending inserts: Search %d = %v", n, i, got)
			}
		}
		if got := tr.CountRange(Range{Low: intKey(int64(n / 2))}); got != n-n/2 {
			t.Errorf("%d ascending inserts: CountRange from %d = %d, want %d", n, n/2, got, n-n/2)
		}
	}

	dup := New()
	for i := 0; i < 3000; i++ {
		dup.Insert(intKey(int64(i/3)), rid(i))
	}
	if got, limit := leaves(dup), (1000+fanout-1)/fanout+1; got > limit {
		t.Errorf("1000 ascending keys of 3 records each left %d leaves, want at most %d", got, limit)
	}
	if err := dup.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := dup.Search(intKey(500)); len(got) != 3 {
		t.Errorf("Search 500 = %v, want 3 records", got)
	}

	desc := New()
	for i := 5000; i > 0; i-- {
		desc.Insert(intKey(int64(i)), rid(i))
	}
	if err := desc.Validate(); err != nil {
		t.Fatalf("descending inserts: %v", err)
	}
	if got := scan(desc, Range{}); len(got) != 5000 {
		t.Fatalf("descending inserts scan %d entries, want 5000", len(got))
	}
}

func TestNonUniquePostingLists(t *testing.T) {
	tr := New()
	key := types.EncodeKey(nil, types.NewString("Boston"))
	for i := 0; i < 10; i++ {
		tr.Insert(key, rid(i))
	}
	// Same (key, rid) twice is a no-op.
	tr.Insert(key, rid(3))
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
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
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

// scan drains a cursor over r into one slice of record ids.
func scan(tr *Tree, r Range) []storage.RecordID {
	var out []storage.RecordID
	c := tr.Cursor(r)
	for n := -1; n != len(out); {
		n = len(out)
		out = c.Next(out)
	}
	return out
}

func TestCursorRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	got := scan(tr, Range{Low: intKey(100), High: intKey(200), HighOpen: true})
	if len(got) != 100 {
		t.Fatalf("[100, 200) returned %d records, want 100", len(got))
	}
	for i, id := range got {
		if id != rid(100+i) {
			t.Errorf("record %d = %v, want %v", i, id, rid(100+i))
		}
	}
	back := scan(tr, Range{Low: intKey(100), High: intKey(200), HighOpen: true, Reverse: true})
	if len(back) != 100 || back[0] != rid(199) || back[99] != rid(100) {
		t.Errorf("[100, 200) reversed = %d records from %v", len(back), back[0])
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
	first := tr.Cursor(Range{})
	if n := len(first.Next(nil)); n == 0 || n > fanout {
		t.Errorf("first batch holds %d records", n)
	}
	// An equality interval reads the key's posting list through the same
	// cursor, and the zero Cursor is an exhausted one.
	if got := scan(tr, Range{Low: intKey(500), High: intKey(500)}); len(got) != 1 || got[0] != rid(500) {
		t.Errorf("[500, 500] = %v", got)
	}
	var zero Cursor
	if got := zero.Next(nil); got != nil {
		t.Errorf("the zero Cursor returned %v", got)
	}
}

func TestScanOrderIsSorted(t *testing.T) {
	tr := New()
	perm := rand.New(rand.NewSource(42)).Perm(2000)
	for _, i := range perm {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	// Key i holds rid(i), so the records name their keys.
	got := scan(tr, Range{})
	if len(got) != len(perm) {
		t.Fatalf("scan returned %d records, want %d", len(got), len(perm))
	}
	for i, id := range got {
		if id != rid(i) {
			t.Fatalf("scan position %d holds %v, want %v: out of order", i, id, rid(i))
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMin(t *testing.T) {
	tr := New()
	if got := scan(tr, Range{}); len(got) != 0 {
		t.Errorf("empty tree scans %d entries", len(got))
	}
	tr.Insert(intKey(50), rid(50))
	tr.Insert(intKey(10), rid(10))
	tr.Insert(intKey(90), rid(90))
	if got := scan(tr, Range{}); got[0] != rid(10) {
		t.Error("a full scan should start at the smallest key")
	}
}

func TestStringKeys(t *testing.T) {
	tr := New()
	cities := []string{"Boston", "Austin", "Chicago", "Denver", "Austin", "Erie"}
	for i, c := range cities {
		tr.Insert(types.EncodeKey(nil, types.NewString(c)), rid(i))
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
		tr := New()
		ref := map[int64]int{}
		keyOf := map[storage.RecordID]int64{}
		for i, k := range keys {
			tr.Insert(intKey(int64(k)), rid(i))
			ref[int64(k)]++
			keyOf[rid(i)] = int64(k)
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
		var got []int64
		for _, id := range scan(tr, Range{}) {
			if k := keyOf[id]; len(got) == 0 || got[len(got)-1] != k {
				got = append(got, k)
			}
		}
		return reflect.DeepEqual(got, sortedRef) || len(got)+len(sortedRef) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInsertDeleteInverse(t *testing.T) {
	f := func(keys []uint8) bool {
		tr := New()
		for i, k := range keys {
			tr.Insert(intKey(int64(k)), rid(i))
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
	tr := New()
	n := 100000
	for i := 0; i < n; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	if h := tr.height(); h > 5 {
		t.Errorf("height %d too large for %d keys with fanout %d", h, n, fanout)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
}

func BenchmarkLoad(b *testing.B) {
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{intKey(int64(rng.Intn(n))), rid(i)}
	}
	work := make([]Pair, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(work, pairs)
		if err := New().Load(work); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
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
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Insert(intKey(int64(i)), rid(i))
	}
	var buf []storage.RecordID
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := int64((i * 37) % 99900)
		buf = buf[:0]
		c := tr.Cursor(Range{Low: intKey(lo), High: intKey(lo + 100), HighOpen: true})
		for n := -1; n != len(buf); {
			n = len(buf)
			buf = c.Next(buf)
		}
		if len(buf) != 100 {
			b.Fatalf("range returned %d", len(buf))
		}
	}
}

func ExampleTree_Cursor() {
	tr := New()
	names := []string{"ada", "bob", "cyd"}
	for i, name := range names {
		tr.Insert(types.EncodeKey(nil, types.NewString(name)), storage.RecordID{Slot: uint16(i)})
	}
	c := tr.Cursor(Range{Reverse: true})
	var rids []storage.RecordID
	for batch := c.Next(rids[:0]); len(batch) > 0; batch = c.Next(rids[:0]) {
		for _, id := range batch {
			fmt.Println(names[id.Slot])
		}
		rids = batch
	}
	// Output:
	// cyd
	// bob
	// ada
}
