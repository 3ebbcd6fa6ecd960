package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/storage"
)

// Pair is one (key, record) entry handed to Load.
type Pair struct {
	Key []byte
	RID storage.RecordID
}

// Load fills an empty tree with pairs in one bottom-up pass: the textbook
// B+tree bulk load, as PostgreSQL's nbtsort.c builds an index for CREATE
// INDEX. It sorts pairs by (key, rid) once, merges equal keys into one
// posting list (a repeated pair is added once, as Insert does), fills the
// leaves left to right and links them in both directions, then builds each
// inner level over the one below with exact per-child entry counts. Every
// level has the fewest nodes its capacity allows, with the entries spread
// evenly over them, so the tree is no taller than per-row Inserts of the same
// pairs would build.
//
// Load takes ownership of pairs and of every key in it: the caller must not
// modify them afterwards. It refuses a tree that holds any entry.
func (t *Tree) Load(pairs []Pair) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.size != 0 {
		return fmt.Errorf("btree: Load into a tree that holds %d entries", t.size)
	}

	// One backing array holds every posting list; each list is capped at
	// its own length, so a later Insert appending to it reallocates instead
	// of overwriting its neighbour. The same holds for the key and list
	// slices the leaves share below.
	keys := make([][]byte, 0, len(pairs))
	starts := make([]int, 0, len(pairs)+1) // keys[i]'s posting list is rids[starts[i]:starts[i+1]]
	rids := make([]storage.RecordID, 0, len(pairs))
	var last sortKey
	for i, k := range sortOrder(pairs) {
		p := pairs[k.pos]
		if i == 0 || compareKeys(pairs, k, last) != 0 {
			keys = append(keys, p.Key)
			starts = append(starts, len(rids))
		} else if k.rid == last.rid {
			continue
		}
		rids = append(rids, p.RID)
		last = k
	}
	starts = append(starts, len(rids))
	vals := make([][]storage.RecordID, len(keys))
	for i := range keys {
		vals[i] = rids[starts[i]:starts[i+1]:starts[i+1]]
	}

	t.size = len(rids)
	if len(keys) == 0 {
		t.root = &leafNode{}
		return nil
	}
	spans := spread(len(keys), fanout)
	level := make([]node, 0, len(spans))
	counts := make([]int, 0, len(spans))
	firsts := make([][]byte, 0, len(spans)) // the smallest key under each node of level
	var prev *leafNode
	for _, span := range spans {
		a, b := span[0], span[1]
		leaf := &leafNode{keys: keys[a:b:b], vals: vals[a:b:b], prev: prev}
		if prev != nil {
			prev.next = leaf
		}
		prev = leaf
		level = append(level, leaf)
		counts = append(counts, starts[b]-starts[a])
		firsts = append(firsts, keys[a])
	}
	for len(level) > 1 {
		spans := spread(len(level), fanout+1)
		up := make([]node, 0, len(spans))
		upCounts := make([]int, 0, len(spans))
		upFirsts := make([][]byte, 0, len(spans))
		for _, span := range spans {
			a, b := span[0], span[1]
			total := 0
			for _, c := range counts[a:b] {
				total += c
			}
			up = append(up, &innerNode{
				keys:     firsts[a+1 : b : b],
				children: level[a:b:b],
				counts:   counts[a:b:b],
			})
			upCounts = append(upCounts, total)
			upFirsts = append(upFirsts, firsts[a])
		}
		level, counts, firsts = up, upCounts, upFirsts
	}
	t.root = level[0]
	return nil
}

// sortKey stands for one pair while Load sorts: pointer-free, so the sort
// moves no pointers, and carrying the key's first sixteen bytes, so keys
// that short (every integer key) compare without touching their bytes.
type sortKey struct {
	head   [2]uint64 // the key's first sixteen bytes, big-endian, zero-padded
	rid    uint64    // page<<16 | slot, which orders as RecordID does
	length int32     // of the key
	pos    int32     // index into the pairs
}

// compareKeys orders a's key against b's; pairs holds the bytes past the
// head.
func compareKeys(pairs []Pair, a, b sortKey) int {
	if c := cmp.Compare(a.head[0], b.head[0]); c != 0 {
		return c
	}
	if c := cmp.Compare(a.head[1], b.head[1]); c != 0 {
		return c
	}
	// Equal heads: when either key ends within them, the shorter key is a
	// prefix of the longer (its padding matched zeros).
	if a.length <= 16 || b.length <= 16 {
		return cmp.Compare(a.length, b.length)
	}
	return bytes.Compare(pairs[a.pos].Key[16:], pairs[b.pos].Key[16:])
}

// sortOrder returns pairs' sort keys ordered by key, then by record id. A
// stable radix sort on the key's first eight bytes skips the bytes every key
// shares; the pairs left sharing those bytes keep their input order, and each
// such run is sorted by the rest of its keys and its record ids only when it
// is not already in that order (pairs collected in record id order, as a
// table scan yields them, are).
func sortOrder(pairs []Pair) []sortKey {
	keys := make([]sortKey, len(pairs))
	var histogram [8][256]int // per byte of head[0], least significant first
	for i, p := range pairs {
		var buf [16]byte
		copy(buf[:], p.Key)
		k := sortKey{
			head:   [2]uint64{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])},
			rid:    uint64(p.RID.Page)<<16 | uint64(p.RID.Slot),
			length: int32(len(p.Key)),
			pos:    int32(i),
		}
		for j := range histogram {
			histogram[j][byte(k.head[0]>>(8*j))]++
		}
		keys[i] = k
	}
	spare := make([]sortKey, len(keys))
	for j := range histogram {
		start := &histogram[j]
		shift := 8 * j
		if len(keys) < 2 || start[byte(keys[0].head[0]>>shift)] == len(keys) {
			continue // every key has the same byte here
		}
		next := 0
		for b, n := range start {
			start[b], next = next, next+n
		}
		for _, k := range keys {
			b := byte(k.head[0] >> shift)
			spare[start[b]] = k
			start[b]++
		}
		keys, spare = spare, keys
	}
	compare := func(a, b sortKey) int {
		if c := compareKeys(pairs, a, b); c != 0 {
			return c
		}
		return cmp.Compare(a.rid, b.rid)
	}
	for a := 0; a < len(keys); {
		b := a + 1
		for b < len(keys) && keys[b].head[0] == keys[a].head[0] {
			b++
		}
		if run := keys[a:b]; len(run) > 1 && !slices.IsSortedFunc(run, compare) {
			slices.SortFunc(run, compare)
		}
		a = b
	}
	return keys
}

// spread splits n items into the fewest runs of at most capacity items,
// sized within one of each other, and returns each run's [start, end).
func spread(n, capacity int) [][2]int {
	runs := (n + capacity - 1) / capacity
	out := make([][2]int, runs)
	for i := range out {
		out[i] = [2]int{i * n / runs, (i + 1) * n / runs}
	}
	return out
}
