package btree

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestLoadMatchesInsert is Load's oracle: the same pairs go into one tree by
// Load and into another by per-row Insert in rid order, at sizes on both
// sides of a full leaf (64 keys) and of a full two-level tree (64·65 keys).
// The keys are ascending and unique, random, heavily duplicated (with some
// pairs repeated), or raw byte strings of 1 to 24 bytes over {0x00, 0x01,
// 0xff}, where keys that are prefixes of one another abound on both sides of
// the eight and sixteen bytes Load's sort carries inline. The trees must
// agree on every Search, on a full cursor scan and on CountRange over random
// ranges, both must pass Validate, and the loaded one must be no taller.
// Then one random mixed Insert/Delete sequence goes to both, and they are
// compared again.
func TestLoadMatchesInsert(t *testing.T) {
	sizes := []int{0, 1, 64, 65, 64 * 65, 64*65 + 1, 30000}
	kinds := []struct {
		name string
		key  func(rng *rand.Rand, i, n int) []byte
	}{
		{"ascending", func(_ *rand.Rand, i, _ int) []byte { return intKey(int64(i)) }},
		{"random", func(rng *rand.Rand, _, n int) []byte { return intKey(int64(rng.Intn(10*n + 1))) }},
		{"duplicates", func(rng *rand.Rand, _, n int) []byte { return intKey(int64(rng.Intn(n/50 + 2))) }},
		{"bytes", func(rng *rand.Rand, _, _ int) []byte {
			k := make([]byte, 1+rng.Intn(24))
			for i := range k {
				k[i] = []byte{0x00, 0x01, 0xff}[rng.Intn(3)]
			}
			return k
		}},
	}
	for _, kind := range kinds {
		for _, n := range sizes {
			t.Run(fmt.Sprintf("%s/%d", kind.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n) + 1))
				var pairs []Pair
				for i := 0; i < n; i++ {
					p := Pair{kind.key(rng, i, n), rid(i)}
					pairs = append(pairs, p)
					if kind.name == "duplicates" && i%10 == 0 {
						pairs = append(pairs, Pair{kind.key(rng, i, n), p.RID}) // a different key, same rid
						pairs = append(pairs, Pair{append([]byte(nil), p.Key...), p.RID})
					}
				}
				inserted := New()
				for _, p := range pairs {
					inserted.Insert(p.Key, p.RID)
				}
				shuffled := append([]Pair(nil), pairs...)
				if kind.name != "ascending" {
					rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				}
				loaded := New()
				if err := loaded.Load(shuffled); err != nil {
					t.Fatal(err)
				}
				if hl, hi := loaded.height(), inserted.height(); hl > hi {
					t.Errorf("loaded tree has %d levels, the inserted one %d", hl, hi)
				}
				if kind.name == "ascending" {
					want := 1
					for capacity := fanout; n > capacity; capacity *= fanout + 1 {
						want++
					}
					if h := loaded.height(); h != want {
						t.Errorf("%d ascending keys loaded into %d levels, want %d", n, h, want)
					}
				}
				bound := func() []byte { return kind.key(rng, rng.Intn(n+1), n+1) }
				compareTrees(t, "after load", rng, bound, loaded, inserted)

				live := append([]Pair(nil), pairs...)
				for step := 0; step < 3000; step++ {
					if rng.Intn(2) == 0 || len(live) == 0 {
						p := Pair{kind.key(rng, n+step, n+1), rid(n + step)}
						loaded.Insert(p.Key, p.RID)
						inserted.Insert(p.Key, p.RID)
						live = append(live, p)
						continue
					}
					i := rng.Intn(len(live))
					p := live[i]
					if a, b := loaded.Delete(p.Key, p.RID), inserted.Delete(p.Key, p.RID); a != b {
						t.Fatalf("step %d: deleting %v: loaded tree says %v, inserted tree %v", step, p, a, b)
					}
					live = append(live[:i], live[i+1:]...)
				}
				compareTrees(t, "after inserts and deletes", rng, bound, loaded, inserted)
			})
		}
	}
}

// compareTrees holds got to want: Validate, every key's posting list, a full
// scan and CountRange over random ranges with bounds drawn from bound.
func compareTrees(t *testing.T, when string, rng *rand.Rand, bound func() []byte, got, want *Tree) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: loaded tree: %v", when, err)
	}
	if err := want.Validate(); err != nil {
		t.Fatalf("%s: inserted tree: %v", when, err)
	}
	g, w := scan(got, Range{}), scan(want, Range{})
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: full scans differ: %d records loaded, %d inserted", when, len(g), len(w))
	}
	for leaf := want.leftmostLeaf(); leaf != nil; leaf = leaf.next {
		for i, key := range leaf.keys {
			if s := got.Search(key); !reflect.DeepEqual(s, leaf.vals[i]) {
				t.Fatalf("%s: Search(%x) = %v, want %v", when, key, s, leaf.vals[i])
			}
		}
	}
	for i := 0; i < 200; i++ {
		var r Range
		if rng.Intn(4) != 0 {
			r.Low, r.LowOpen = bound(), rng.Intn(2) == 0
		}
		if rng.Intn(4) != 0 {
			r.High, r.HighOpen = bound(), rng.Intn(2) == 0
		}
		if a, b := got.CountRange(r), want.CountRange(r); a != b {
			t.Fatalf("%s: CountRange(%+v) = %d loaded, %d inserted", when, r, a, b)
		}
	}
}

func TestLoadRefusesNonEmptyTree(t *testing.T) {
	tr := New()
	tr.Insert(intKey(1), rid(1))
	if err := tr.Load([]Pair{{intKey(2), rid(2)}}); err == nil {
		t.Fatal("Load into a tree holding an entry succeeded")
	}
	if got := tr.CountRange(Range{}); got != 1 {
		t.Errorf("the refused Load left %d entries, want 1", got)
	}
	// A tree emptied by Delete holds no entry, so it loads.
	tr.Delete(intKey(1), rid(1))
	if err := tr.Load([]Pair{{intKey(2), rid(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
