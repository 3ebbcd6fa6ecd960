package btree

import (
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// TestCountRangeAgainstCursor runs random insert and delete sequences and,
// after every step, checks Validate (which recounts every inner node's child
// counts) and holds CountRange on random intervals to the number of entries a
// cursor over the same interval enumerates. The keys include NULL (which
// sorts first), a few hot keys whose posting lists hold several records, and
// bands deleted whole, which leave empty leaves in the chain. Seeds are
// logged in every failure.
func TestCountRangeAgainstCursor(t *testing.T) {
	const keySpace = 600
	nullKey := types.EncodeKey(nil, types.Null())
	keyOf := func(k int64) []byte {
		if k < 0 {
			return nullKey
		}
		return intKey(k)
	}
	randomRange := func(rng *rand.Rand) Range {
		var r Range
		bound := func() []byte { return keyOf(int64(rng.Intn(keySpace+20)) - 10) }
		if rng.Intn(4) != 0 {
			r.Low, r.LowOpen = bound(), rng.Intn(2) == 0
		}
		if rng.Intn(4) != 0 {
			r.High, r.HighOpen = bound(), rng.Intn(2) == 0
		}
		if rng.Intn(8) == 0 && r.Low != nil { // an equality interval
			r.High, r.LowOpen, r.HighOpen = r.Low, false, false
		}
		return r
	}
	enumerate := func(tr *Tree, r Range) int {
		n := 0
		c := tr.Cursor(r)
		for batch := c.Next(); batch != nil; batch = c.Next() {
			for _, e := range batch {
				n += len(e.Records)
			}
		}
		return n
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New(false)
		var live []pair
		nextRID := 0
		for step := 0; step < 1500; step++ {
			switch op := rng.Intn(20); {
			case op < 11 || len(live) == 0 || step < 300: // grow first, so inner nodes exist
				k := int64(rng.Intn(keySpace))
				switch rng.Intn(6) {
				case 0:
					k = int64(rng.Intn(8)) * 70 // hot key: multi-rid posting
				case 1:
					k = -1 // NULL
				}
				p := pair{k, rid(nextRID)}
				nextRID++
				if err := tr.Insert(keyOf(k), p.rid); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				live = append(live, p)
			case op < 19:
				i := rng.Intn(len(live))
				if !tr.Delete(keyOf(live[i].key), live[i].rid) {
					t.Fatalf("seed %d step %d: delete of %v found nothing", seed, step, live[i])
				}
				live = append(live[:i], live[i+1:]...)
			default: // delete a whole band of keys: emptied leaves
				lo := int64(rng.Intn(keySpace))
				hi := lo + int64(rng.Intn(150))
				kept := live[:0]
				for _, p := range live {
					if p.key >= lo && p.key < hi {
						if !tr.Delete(keyOf(p.key), p.rid) {
							t.Fatalf("seed %d step %d: band delete of %v found nothing", seed, step, p)
						}
						continue
					}
					kept = append(kept, p)
				}
				live = kept
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got := tr.CountRange(Range{}); got != len(live) {
				t.Fatalf("seed %d step %d: CountRange(all) = %d, %d entries live", seed, step, got, len(live))
			}
			r := randomRange(rng)
			if got, want := tr.CountRange(r), enumerate(tr, r); got != want {
				t.Fatalf("seed %d step %d: CountRange(%+v) = %d, the cursor enumerates %d", seed, step, r, got, want)
			}
		}
		if tr.height() < 2 {
			t.Fatalf("seed %d: the tree never grew past one leaf; inner counts went untested", seed)
		}
	}
}

// TestCountRangeRepeatedPair checks that inserting a (key, rid) pair twice
// counts once, and that deleting a pair that is absent changes no count.
func TestCountRangeRepeatedPair(t *testing.T) {
	tr := New(false)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(intKey(int64(i%50)), storage.RecordID{Page: 1, Slot: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert(intKey(3), storage.RecordID{Page: 1, Slot: 3}); err != nil {
		t.Fatal(err)
	}
	tr.Delete(intKey(3), storage.RecordID{Page: 9, Slot: 9})
	if got := tr.CountRange(Range{Low: intKey(3), High: intKey(3)}); got != 10 {
		t.Errorf("key 3 counts %d entries, want 10", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
