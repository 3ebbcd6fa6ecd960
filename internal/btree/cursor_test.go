package btree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/storage"
)

// pair is one (key, rid) entry of the model; keys are small ints so that
// posting lists and emptied leaves are common.
type pair struct {
	key int64
	rid storage.RecordID
}

// model is the reference the cursor is checked against: the set of pairs in
// the tree, kept beside every Insert and Delete.
type model map[pair]bool

// sorted returns the model's pairs inside r in scan order (ties between the
// rids of one key are left in any order: the tree promises none).
func (m model) sorted(r Range) []pair {
	var out []pair
	for p := range m {
		if r.Contains(intKey(p.key)) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if r.Reverse {
			return out[i].key > out[j].key
		}
		return out[i].key < out[j].key
	})
	return out
}

// TestCursorAgainstModel scans random ranges in both directions while the
// tree is edited between batches, and checks the contract: records come in
// key order inside the bounds (nothing repeated or reordered, and no key
// split across two batches), every pair that was in the tree for the whole
// scan is returned exactly once, including across the emptied leaves a
// deleted band leaves behind, and nothing is returned that was never
// inserted. With no edits the scan must equal the model exactly.
func TestCursorAgainstModel(t *testing.T) {
	const keySpace = 3000
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		m := model{}
		// Every pair gets a record id of its own, which names its key.
		keyOf := map[storage.RecordID]int64{}
		nextRID := 0
		insert := func(key int64) {
			p := pair{key, rid(nextRID)}
			keyOf[p.rid] = key
			nextRID++
			tr.Insert(intKey(p.key), p.rid)
			m[p] = true
		}
		// deleteBand removes every pair with lo <= key < hi: wide bands
		// leave whole leaves empty in the chain.
		deleteBand := func(lo, hi int64, onDelete func(pair)) {
			for p := range m {
				if p.key >= lo && p.key < hi {
					if !tr.Delete(intKey(p.key), p.rid) {
						t.Fatalf("seed %d: delete of %v found nothing", seed, p)
					}
					delete(m, p)
					onDelete(p)
				}
			}
		}
		for i := 0; i < 1500; i++ {
			// A third of the inserts reuse a hot key: multi-rid postings.
			if rng.Intn(3) == 0 {
				insert(int64(rng.Intn(40)) * 70)
			} else {
				insert(int64(rng.Intn(keySpace)))
			}
		}
		if seed%2 == 0 {
			lo := int64(rng.Intn(keySpace - 600))
			deleteBand(lo, lo+600, func(pair) {})
		}

		var r Range
		lo, hi := int64(rng.Intn(keySpace)), int64(rng.Intn(keySpace))
		if lo > hi {
			lo, hi = hi, lo
		}
		if rng.Intn(4) != 0 {
			r.Low, r.LowOpen = intKey(lo), rng.Intn(2) == 0
		}
		if rng.Intn(4) != 0 {
			r.High, r.HighOpen = intKey(hi), rng.Intn(2) == 0
		}
		r.Reverse = rng.Intn(2) == 0
		edits := seed%3 != 0 // every third seed scans a quiet tree

		everInserted := model{}
		stable := model{}
		for p := range m {
			everInserted[p], stable[p] = true, true
		}
		var got []pair
		var batch []storage.RecordID
		c := tr.Cursor(r)
		for batch = c.Next(batch[:0]); len(batch) > 0; batch = c.Next(batch[:0]) {
			keys := 0
			for i, id := range batch {
				key, ok := keyOf[id]
				if !ok {
					t.Fatalf("seed %d: returned record %v is no record of the test", seed, id)
				}
				if i == 0 && len(got) > 0 && key == got[len(got)-1].key {
					t.Fatalf("seed %d: key %d continues into the next batch", seed, key)
				}
				if i == 0 || key != keyOf[batch[i-1]] {
					keys++
				}
				got = append(got, pair{key, id})
			}
			if keys > fanout {
				t.Fatalf("seed %d: a batch of %d keys is more than one leaf", seed, keys)
			}
			if !edits {
				continue
			}
			for i := rng.Intn(40); i > 0; i-- {
				insert(int64(rng.Intn(keySpace)))
			}
			for p := range m {
				everInserted[p] = true
			}
			if rng.Intn(3) == 0 {
				lo := int64(rng.Intn(keySpace))
				deleteBand(lo, lo+int64(rng.Intn(300)), func(p pair) { delete(stable, p) })
			}
		}

		seen := model{}
		for i, p := range got {
			if !r.Contains(intKey(p.key)) {
				t.Fatalf("seed %d: key %d is outside %+v", seed, p.key, r)
			}
			if seen[p] {
				t.Fatalf("seed %d: %v returned twice", seed, p)
			}
			seen[p] = true
			if !everInserted[p] {
				t.Fatalf("seed %d: %v was never inserted", seed, p)
			}
			if i > 0 && ((!r.Reverse && p.key < got[i-1].key) || (r.Reverse && p.key > got[i-1].key)) {
				t.Fatalf("seed %d: key %d after %d, reverse=%v", seed, p.key, got[i-1].key, r.Reverse)
			}
		}
		for _, p := range stable.sorted(r) {
			if !seen[p] {
				t.Fatalf("seed %d: %v existed throughout the scan of %+v and was skipped", seed, p, r)
			}
		}
		if !edits {
			want := m.sorted(r)
			if len(got) != len(want) {
				t.Fatalf("seed %d: quiet scan returned %d pairs, model has %d", seed, len(got), len(want))
			}
			for i := range want {
				if got[i].key != want[i].key {
					t.Fatalf("seed %d: quiet scan position %d is key %d, model says %d", seed, i, got[i].key, want[i].key)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCursorConcurrentWriter scans in both directions while another goroutine
// inserts and deletes the odd keys: every even key, which nobody touches,
// must come back exactly once and in order. Run with -race.
func TestCursorConcurrentWriter(t *testing.T) {
	const n = 4000
	tr := New()
	for k := int64(0); k < n; k += 2 {
		tr.Insert(intKey(k), rid(int(k)))
	}
	// Key k holds the one record rid(k).
	keyOf := map[storage.RecordID]int64{}
	for k := int64(0); k < n; k++ {
		keyOf[rid(int(k))] = k
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(7))
		live := map[int64]bool{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := int64(rng.Intn(n/2))*2 + 1
			if live[k] {
				tr.Delete(intKey(k), rid(int(k)))
			} else {
				tr.Insert(intKey(k), rid(int(k)))
			}
			live[k] = !live[k]
		}
	}()
	for round := 0; round < 20; round++ {
		reverse := round%2 == 1
		want := int64(0)
		if reverse {
			want = n - 2
		}
		var batch []storage.RecordID
		c := tr.Cursor(Range{Reverse: reverse})
		for batch = c.Next(batch[:0]); len(batch) > 0; batch = c.Next(batch[:0]) {
			for _, id := range batch {
				k, ok := keyOf[id]
				if !ok {
					t.Fatalf("returned record %v is no record of the test", id)
				}
				if k%2 == 1 {
					continue // the writer's
				}
				if k != want {
					t.Fatalf("round %d (reverse=%v): even key %d where %d was due", round, reverse, k, want)
				}
				if reverse {
					want -= 2
				} else {
					want += 2
				}
			}
		}
		if (reverse && want != -2) || (!reverse && want != n) {
			t.Fatalf("round %d (reverse=%v) ended with even key %d still due", round, reverse, want)
		}
	}
	close(stop)
	writer.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorNextAllocatesNothing holds the cursor to its promise that a
// caller reusing its slice pays nothing per batch: a forward and a reverse
// scan over a multi-level tree, with posting lists of several records and a
// resumption per leaf, append into a buffer that already has room.
func TestCursorNextAllocatesNothing(t *testing.T) {
	tr := New()
	for i := 0; i < 3000; i++ {
		tr.Insert(intKey(int64(i%1000)), rid(i))
	}
	buf := make([]storage.RecordID, 0, 3*fanout)
	for _, reverse := range []bool{false, true} {
		r := Range{Low: intKey(100), High: intKey(900), HighOpen: true, Reverse: reverse}
		read := 0
		allocs := testing.AllocsPerRun(20, func() {
			c := tr.Cursor(r)
			read = 0
			for buf = c.Next(buf[:0]); len(buf) > 0; buf = c.Next(buf[:0]) {
				read += len(buf)
			}
		})
		if read != 3*800 {
			t.Fatalf("reverse=%v: the scan read %d records, want %d", reverse, read, 3*800)
		}
		if allocs != 0 {
			t.Errorf("reverse=%v: a scan of %d records allocated %.1f objects, want 0", reverse, read, allocs)
		}
	}
}
