// Package btree implements the ordered index structure the engine uses for
// primary keys, UNIQUE constraints and secondary indexes: an in-memory B+tree
// keyed by order-preserving byte strings (see types.EncodeKey) whose leaves
// hold record identifiers.
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
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// fanout is the maximum number of keys per node before it splits.
const fanout = 64

// ErrDuplicateKey is returned when inserting a key that already exists in a
// unique index.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// Tree is a B+tree from encoded keys to record identifiers.
// It is safe for concurrent use; a single RWMutex guards the whole tree.
type Tree struct {
	mu     sync.RWMutex
	root   node
	unique bool
	size   int // number of (key, rid) entries
}

type node interface {
	// isLeaf reports whether the node is a leaf.
	isLeaf() bool
}

type leafNode struct {
	keys [][]byte
	// vals[i] holds every record with keys[i]; len(vals[i]) > 1 only in
	// non-unique indexes.
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

// New creates an empty tree. A unique tree rejects duplicate keys.
func New(unique bool) *Tree {
	return &Tree{root: &leafNode{}, unique: unique}
}

// Insert adds (key, rid) to the tree. In a unique tree an existing key causes
// ErrDuplicateKey; in a non-unique tree the rid is appended to the key's
// posting list (inserting the same (key, rid) pair twice is a no-op).
func (t *Tree) Insert(key []byte, rid storage.RecordID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := make([]byte, len(key))
	copy(k, key)
	promoted, right, added, err := t.insert(t.root, k, rid)
	if err != nil {
		return err
	}
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
	return nil
}

// insert recurses into n. added reports whether an entry was added (an
// existing pair is not added twice). When n splits, it returns the key to
// promote and the new right sibling.
func (t *Tree) insert(n node, key []byte, rid storage.RecordID) (promoted []byte, right node, added bool, err error) {
	switch n := n.(type) {
	case *leafNode:
		i, found := findKey(n.keys, key)
		if found {
			if t.unique {
				return nil, nil, false, fmt.Errorf("%w: %q", ErrDuplicateKey, key)
			}
			for _, existing := range n.vals[i] {
				if existing == rid {
					return nil, nil, false, nil
				}
			}
			n.vals[i] = append(n.vals[i], rid)
			return nil, nil, true, nil
		}
		n.keys = insertAt(n.keys, i, key)
		n.vals = insertAt(n.vals, i, []storage.RecordID{rid})
		if len(n.keys) <= fanout {
			return nil, nil, true, nil
		}
		// Split the leaf in half.
		mid := len(n.keys) / 2
		sibling := &leafNode{
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([][]storage.RecordID(nil), n.vals[mid:]...),
			next: n.next,
			prev: n,
		}
		if n.next != nil {
			n.next.prev = sibling
		}
		n.keys = n.keys[:mid:mid]
		n.vals = n.vals[:mid:mid]
		n.next = sibling
		return sibling.keys[0], sibling, true, nil

	case *innerNode:
		i := childFor(n, key)
		promoted, right, added, err := t.insert(n.children[i], key, rid)
		if err != nil {
			return nil, nil, false, err
		}
		if added {
			n.counts[i]++
		}
		if right == nil {
			return nil, nil, added, nil
		}
		rc := subtreeSize(right)
		n.counts[i] -= rc
		n.keys = insertAt(n.keys, i, promoted)
		n.children = insertAt(n.children, i+1, right)
		n.counts = insertAt(n.counts, i+1, rc)
		if len(n.keys) <= fanout {
			return nil, nil, added, nil
		}
		mid := len(n.keys) / 2
		promote := n.keys[mid]
		sibling := &innerNode{
			keys:     append([][]byte(nil), n.keys[mid+1:]...),
			children: append([]node(nil), n.children[mid+1:]...),
			counts:   append([]int(nil), n.counts[mid+1:]...),
		}
		n.keys = n.keys[:mid:mid]
		n.children = n.children[: mid+1 : mid+1]
		n.counts = n.counts[: mid+1 : mid+1]
		return promote, sibling, added, nil
	}
	return nil, nil, false, fmt.Errorf("btree: unknown node type %T", n)
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
