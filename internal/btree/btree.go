// Package btree implements the ordered index structure the engine uses for
// primary keys, UNIQUE constraints and secondary indexes: an in-memory B+tree
// keyed by order-preserving byte strings (see types.EncodeKey) whose leaves
// hold record identifiers. The tree is physically non-unique: a key maps to
// a posting list of records, because every version of a row is indexed and
// several versions share a key. Uniqueness is a rule over live versions,
// enforced by the catalog and transaction layers, not by the tree.
//
// A tree is filled either one entry at a time (Insert) or, when it is empty,
// in one bottom-up pass over a whole set of entries (Load): crash recovery
// installs a checkpoint image's indexes that way, and CREATE INDEX backfills
// an index over a populated table the same way.
//
// Leaves are chained in both directions, so range scans — the access path
// behind query-by-form predicates such as "credit > 1000" and behind ordered
// browsing — read the leaf level a leaf at a time through a Cursor, forwards
// or backwards. Every inner node keeps the entry count of each child's
// subtree, so CountRange answers "how many entries lie in this interval" with
// one descent per bound instead of a walk over the leaves. Deletion is implemented lazily: entries are removed from
// leaves but nodes are not merged, which keeps the tree correct (a standard
// trade-off for indexes that shrink rarely, as the interactive workloads here
// do).
package btree

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// fanout is the maximum number of keys per node before it splits.
const fanout = 64

// Tree is a B+tree from encoded keys to record identifiers.
// It is safe for concurrent use; a single RWMutex guards the whole tree.
type Tree struct {
	mu   sync.RWMutex
	root node
	size int // number of (key, rid) entries
}

type node interface {
	// isLeaf reports whether the node is a leaf.
	isLeaf() bool
}

type leafNode struct {
	keys [][]byte
	// vals[i] holds every record with keys[i].
	vals       [][]storage.RecordID
	next, prev *leafNode
}

func (*leafNode) isLeaf() bool { return true }

type innerNode struct {
	// keys[i] is the smallest key reachable through children[i+1];
	// len(children) == len(keys)+1.
	keys     [][]byte
	children []node
	// counts[i] is the number of (key, rid) entries in children[i]'s subtree.
	counts []int
}

func (*innerNode) isLeaf() bool { return false }

// New creates an empty tree.
func New() *Tree {
	return &Tree{root: &leafNode{}}
}

// Insert adds (key, rid) to the tree: the rid is appended to the key's
// posting list, and inserting the same (key, rid) pair twice is a no-op.
func (t *Tree) Insert(key []byte, rid storage.RecordID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := make([]byte, len(key))
	copy(k, key)
	promoted, right, added := insert(t.root, k, rid, true)
	if added {
		t.size++
	}
	if right != nil {
		rc := subtreeSize(right)
		t.root = &innerNode{
			keys:     [][]byte{promoted},
			children: []node{t.root, right},
			counts:   []int{t.size - rc, rc},
		}
	}
}

// insert recurses into n, which lies on the tree's right edge when edge is
// set. added reports whether an entry was added (an existing pair is not
// added twice). When n splits, it returns the key to promote and the new
// right sibling.
//
// The descent is built for ascending keys, PostgreSQL's fast path for the
// rightmost leaf: a key above a node's last key goes to its last child, or
// to the end of a leaf, without a search. A node on the right edge that
// overflows because the new key went to its end does not split in half: it
// stays full, and its new sibling starts with that key, so an ascending
// load fills nodes instead of leaving each half empty. Search and the
// cursors keep their binary search.
func insert(n node, key []byte, rid storage.RecordID, edge bool) (promoted []byte, right node, added bool) {
	switch n := n.(type) {
	case *leafNode:
		var i int
		var found bool
		if last := len(n.keys) - 1; last < 0 {
			i = 0
		} else if c := bytes.Compare(key, n.keys[last]); c > 0 {
			i = last + 1
		} else if c == 0 {
			i, found = last, true
		} else {
			i, found = findKey(n.keys, key)
		}
		if found {
			for _, existing := range n.vals[i] {
				if existing == rid {
					return nil, nil, false
				}
			}
			n.vals[i] = append(n.vals[i], rid)
			return nil, nil, true
		}
		n.keys = insertAt(n.keys, i, key)
		n.vals = insertAt(n.vals, i, []storage.RecordID{rid})
		if len(n.keys) <= fanout {
			return nil, nil, true
		}
		// Split in half, or, on the right edge with the new key last, move
		// only the new key to the sibling.
		mid := len(n.keys) / 2
		if edge && i == len(n.keys)-1 {
			mid = i
		}
		sibling := &leafNode{
			keys: append(make([][]byte, 0, fanout+1), n.keys[mid:]...),
			vals: append(make([][]storage.RecordID, 0, fanout+1), n.vals[mid:]...),
			next: n.next,
			prev: n,
		}
		if n.next != nil {
			n.next.prev = sibling
		}
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		n.next = sibling
		return sibling.keys[0], sibling, true

	case *innerNode:
		i := len(n.children) - 1
		if last := len(n.keys) - 1; last < 0 || bytes.Compare(key, n.keys[last]) < 0 {
			i = childFor(n, key)
		}
		promoted, right, added := insert(n.children[i], key, rid, edge && i == len(n.children)-1)
		if added {
			n.counts[i]++
		}
		if right == nil {
			return nil, nil, added
		}
		rc := subtreeSize(right)
		n.counts[i] -= rc
		n.keys = insertAt(n.keys, i, promoted)
		n.children = insertAt(n.children, i+1, right)
		n.counts = insertAt(n.counts, i+1, rc)
		if len(n.keys) <= fanout {
			return nil, nil, added
		}
		// Split in half, or, on the right edge with the new separator last,
		// promote that separator: n stays full, and the sibling starts with
		// the new child alone, under no key of its own.
		mid := len(n.keys) / 2
		if edge && i == len(n.keys)-1 {
			mid = i
		}
		promote := n.keys[mid]
		sibling := &innerNode{
			keys:     append([][]byte(nil), n.keys[mid+1:]...),
			children: append([]node(nil), n.children[mid+1:]...),
			counts:   append([]int(nil), n.counts[mid+1:]...),
		}
		n.keys = n.keys[:mid:mid]
		n.children = n.children[: mid+1 : mid+1]
		n.counts = n.counts[: mid+1 : mid+1]
		return promote, sibling, added
	}
	panic(fmt.Sprintf("btree: unknown node type %T", n))
}

// subtreeSize returns the number of entries under n: the posting lists of a
// leaf, or the child counts of an inner node.
func subtreeSize(n node) int {
	total := 0
	switch n := n.(type) {
	case *leafNode:
		for _, vals := range n.vals {
			total += len(vals)
		}
	case *innerNode:
		for _, c := range n.counts {
			total += c
		}
	}
	return total
}

// Delete removes the entry (key, rid). It reports whether an entry was
// removed. Nodes are not rebalanced.
func (t *Tree) Delete(key []byte, rid storage.RecordID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !deleteFrom(t.root, key, rid) {
		return false
	}
	t.size--
	return true
}

// deleteFrom removes (key, rid) from n's subtree, decrementing the child
// count of every inner node on the way back up when it did.
func deleteFrom(n node, key []byte, rid storage.RecordID) bool {
	if inner, ok := n.(*innerNode); ok {
		i := childFor(inner, key)
		if !deleteFrom(inner.children[i], key, rid) {
			return false
		}
		inner.counts[i]--
		return true
	}
	leaf := n.(*leafNode)
	i, found := findKey(leaf.keys, key)
	if !found {
		return false
	}
	vals := leaf.vals[i]
	for j, existing := range vals {
		if existing == rid {
			vals = append(vals[:j], vals[j+1:]...)
			if len(vals) == 0 {
				leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
				leaf.vals = append(leaf.vals[:i], leaf.vals[i+1:]...)
			} else {
				leaf.vals[i] = vals
			}
			return true
		}
	}
	return false
}

// CountRange returns the number of (key, rid) entries whose key lies in r,
// with r's bound semantics (nil unbounded, open bounds excluded; Reverse is
// ignored). It descends once per bound, summing the child counts to the left
// of the path, so it costs O(fanout × height) however wide the range.
func (t *Tree) CountRange(r Range) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	upper := t.size
	if r.High != nil {
		upper = t.rank(r.High, !r.HighOpen)
	}
	lower := 0
	if r.Low != nil {
		lower = t.rank(r.Low, r.LowOpen)
	}
	if upper < lower {
		return 0
	}
	return upper - lower
}

// rank returns the number of entries whose key is below key, or at most key
// when inclusive.
func (t *Tree) rank(key []byte, inclusive bool) int {
	below := 0
	n := t.root
	for {
		inner, ok := n.(*innerNode)
		if !ok {
			break
		}
		i := childFor(inner, key)
		for _, c := range inner.counts[:i] {
			below += c
		}
		n = inner.children[i]
	}
	leaf := n.(*leafNode)
	i, found := findKey(leaf.keys, key)
	if found && inclusive {
		i++
	}
	for _, vals := range leaf.vals[:i] {
		below += len(vals)
	}
	return below
}

// Search returns the record identifiers stored under key, or nil when absent.
func (t *Tree) Search(key []byte) []storage.RecordID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key)
	i, found := findKey(leaf.keys, key)
	if !found {
		return nil
	}
	out := make([]storage.RecordID, len(leaf.vals[i]))
	copy(out, leaf.vals[i])
	return out
}

// findLeaf descends to the leaf that does or would contain key.
func (t *Tree) findLeaf(key []byte) *leafNode {
	n := t.root
	for {
		inner, ok := n.(*innerNode)
		if !ok {
			return n.(*leafNode)
		}
		n = inner.children[childFor(inner, key)]
	}
}

// childFor returns the index of the child of n whose subtree does or would
// hold key. Every key in children[:i] is below key and every key in
// children[i+1:] is above it.
func childFor(n *innerNode, key []byte) int {
	i, found := findKey(n.keys, key)
	if found {
		i++
	}
	return i
}

func (t *Tree) leftmostLeaf() *leafNode {
	n := t.root
	for {
		inner, ok := n.(*innerNode)
		if !ok {
			return n.(*leafNode)
		}
		n = inner.children[0]
	}
}

func (t *Tree) rightmostLeaf() *leafNode {
	n := t.root
	for {
		inner, ok := n.(*innerNode)
		if !ok {
			return n.(*leafNode)
		}
		n = inner.children[len(inner.children)-1]
	}
}

// findKey binary-searches keys for key, returning the position where it is or
// would be inserted, and whether it was found.
func findKey(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(keys[mid], key) {
		case 0:
			return mid, true
		case -1:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
