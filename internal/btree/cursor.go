package btree

import (
	"bytes"

	"repro/internal/storage"
)

// Range is the key interval and direction of a Cursor. A nil bound leaves
// that side unbounded; LowOpen and HighOpen exclude the bound key itself.
// Reverse yields keys in descending order.
type Range struct {
	Low, High         []byte
	LowOpen, HighOpen bool
	Reverse           bool
}

// Contains reports whether key lies inside r's bounds.
func (r Range) Contains(key []byte) bool {
	if r.Low != nil {
		if cmp := bytes.Compare(key, r.Low); cmp < 0 || (cmp == 0 && r.LowOpen) {
			return false
		}
	}
	if r.High != nil {
		if cmp := bytes.Compare(key, r.High); cmp > 0 || (cmp == 0 && r.HighOpen) {
			return false
		}
	}
	return true
}

// Cursor is a resumable scan over one Range of a Tree.
//
// Each Next appends one batch — the record ids of the in-range keys of at
// most one leaf — to the caller's slice under the tree's read lock and then
// lets go of the tree: the cursor keeps no node pointer between calls, only
// the interval still to scan, whose near bound Next moves to strictly past
// the last key it read. That resume key is a key of the tree, which is never
// modified after insertion, so holding it copies nothing. The following
// batch re-descends from the root to it, so inserts, deletes and splits
// between batches cannot invalidate the cursor. The work a scan does is
// therefore proportional to the batches its caller pulls, not to the size of
// the range, and a caller that reuses its slice allocates nothing per batch.
//
// A record present under its key from before the cursor was created until it
// is exhausted is returned exactly once, in key order (the records of one key
// in posting-list order). A record written or removed in the meantime is seen
// if the change landed ahead of the cursor and missed if it landed behind; a
// key's posting list is read whole, as it was when its batch was read. A
// Cursor is a value: the zero Cursor is exhausted, and a caller may hold one
// in a field and replace it with a fresh one per scan. It is not safe for
// concurrent use.
type Cursor struct {
	t    *Tree
	rest Range
	done bool
}

// Cursor starts a scan of r. It does not touch the tree until the first Next.
func (t *Tree) Cursor(r Range) Cursor {
	return Cursor{t: t, rest: r}
}

// Next appends the record ids of the next batch in scan order to dst and
// returns the grown slice, or dst unchanged when the range is exhausted:
// every key in the tree holds at least one record, so a batch is never
// empty.
func (c *Cursor) Next(dst []storage.RecordID) []storage.RecordID {
	if c.done || c.t == nil {
		return dst
	}
	c.t.mu.RLock()
	var last []byte
	var read bool
	if c.rest.Reverse {
		dst, last, read = c.readBackward(dst)
	} else {
		dst, last, read = c.readForward(dst)
	}
	c.t.mu.RUnlock()
	switch {
	case !read:
		c.done = true
	case c.rest.Reverse:
		c.rest.High, c.rest.HighOpen = last, true
	default:
		c.rest.Low, c.rest.LowOpen = last, true
	}
	return dst
}

// readForward appends the records of the first leaf that holds any key of
// the remaining interval, and returns the last key it read. The caller holds
// the read lock.
func (c *Cursor) readForward(dst []storage.RecordID) (_ []storage.RecordID, last []byte, read bool) {
	leaf, i := c.t.leftmostLeaf(), 0
	if c.rest.Low != nil {
		leaf = c.t.findLeaf(c.rest.Low)
		var found bool
		i, found = findKey(leaf.keys, c.rest.Low)
		if found && c.rest.LowOpen {
			i++
		}
	}
	// The interval may start past the leaf's last key, and lazy deletion
	// leaves empty leaves in the chain.
	for i >= len(leaf.keys) {
		if leaf = leaf.next; leaf == nil {
			c.done = true
			return dst, nil, false
		}
		i = 0
	}
	for ; i < len(leaf.keys); i++ {
		if c.rest.High != nil {
			if cmp := bytes.Compare(leaf.keys[i], c.rest.High); cmp > 0 || (cmp == 0 && c.rest.HighOpen) {
				c.done = true
				break
			}
		}
		dst = append(dst, leaf.vals[i]...)
		last, read = leaf.keys[i], true
	}
	return dst, last, read
}

// readBackward is readForward mirrored: the last leaf that holds any key of
// the remaining interval, from its highest in-range key down.
func (c *Cursor) readBackward(dst []storage.RecordID) (_ []storage.RecordID, last []byte, read bool) {
	leaf := c.t.rightmostLeaf()
	i := len(leaf.keys) - 1
	if c.rest.High != nil {
		leaf = c.t.findLeaf(c.rest.High)
		pos, found := findKey(leaf.keys, c.rest.High)
		i = pos - 1
		if found && !c.rest.HighOpen {
			i = pos
		}
	}
	for i < 0 {
		if leaf = leaf.prev; leaf == nil {
			c.done = true
			return dst, nil, false
		}
		i = len(leaf.keys) - 1
	}
	for ; i >= 0; i-- {
		if c.rest.Low != nil {
			if cmp := bytes.Compare(leaf.keys[i], c.rest.Low); cmp < 0 || (cmp == 0 && c.rest.LowOpen) {
				c.done = true
				break
			}
		}
		dst = append(dst, leaf.vals[i]...)
		last, read = leaf.keys[i], true
	}
	return dst, last, read
}
