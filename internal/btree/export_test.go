package btree

import (
	"bytes"
	"fmt"
)

// Validate checks structural invariants (key ordering within and across
// leaves, the leaf chain linked consistently in both directions and ending at
// the rightmost leaf, the entry count, child and key counts in inner nodes,
// every inner node's per-child entry count, and every key lying between the
// separators around its subtree) and returns an error describing the first
// violation.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var prev []byte
	var prevLeaf *leafNode
	entries := 0
	for leaf := t.leftmostLeaf(); leaf != nil; prevLeaf, leaf = leaf, leaf.next {
		if leaf.prev != prevLeaf {
			return fmt.Errorf("btree: leaf chain's back link does not mirror its forward link")
		}
		for i, k := range leaf.keys {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("btree: keys out of order: %q before %q", prev, k)
			}
			prev = k
			entries += len(leaf.vals[i])
		}
	}
	if prevLeaf != t.rightmostLeaf() {
		return fmt.Errorf("btree: leaf chain does not end at the rightmost leaf")
	}
	if entries != t.size {
		return fmt.Errorf("btree: leaf chain holds %d entries, size says %d", entries, t.size)
	}
	_, err := validateNode(t.root, nil, nil)
	return err
}

// validateNode checks n's subtree, whose keys must lie in [lo, hi) (nil
// unbounded), and returns the number of entries it holds.
func validateNode(n node, lo, hi []byte) (int, error) {
	inner, ok := n.(*innerNode)
	if !ok {
		for _, k := range n.(*leafNode).keys {
			if (lo != nil && bytes.Compare(k, lo) < 0) || (hi != nil && bytes.Compare(k, hi) >= 0) {
				return 0, fmt.Errorf("btree: key %q outside its separators [%q, %q)", k, lo, hi)
			}
		}
		return subtreeSize(n), nil
	}
	if len(inner.children) != len(inner.keys)+1 || len(inner.counts) != len(inner.children) {
		return 0, fmt.Errorf("btree: inner node has %d keys, %d children and %d child counts",
			len(inner.keys), len(inner.children), len(inner.counts))
	}
	total := 0
	for i, c := range inner.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = inner.keys[i-1]
		}
		if i < len(inner.keys) {
			chi = inner.keys[i]
		}
		n, err := validateNode(c, clo, chi)
		if err != nil {
			return 0, err
		}
		if n != inner.counts[i] {
			return 0, fmt.Errorf("btree: child %d holds %d entries, its count says %d", i, n, inner.counts[i])
		}
		total += n
	}
	return total, nil
}

// height counts the tree's levels, 1 for a single leaf.
func (t *Tree) height() int {
	h := 1
	for n := t.root; ; h++ {
		inner, ok := n.(*innerNode)
		if !ok {
			return h
		}
		n = inner.children[0]
	}
}
