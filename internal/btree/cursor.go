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

// Entry is one key of a cursor batch with the records stored under it.
type Entry struct {
	Key     []byte
	Records []storage.RecordID
}

// Cursor is a resumable scan over one Range of a Tree.
//
// Each Next copies one batch — the in-range entries of at most one leaf —
// under the tree's read lock and then lets go of the tree: the cursor keeps
// no node pointer between calls, only the interval still to scan, which Next
// shrinks to strictly past the last key it returned. The following batch
// re-descends from the root to that key, so inserts, deletes and splits
// between batches cannot invalidate it. The work a scan does is therefore
// proportional to the batches its caller pulls, not to the size of the range.
//
// An entry present from before the cursor was created until it is exhausted
// is returned exactly once, in key order. An entry written or removed in the
// meantime is seen if the change landed ahead of the cursor and missed if it
// landed behind; a key's posting list is copied whole, as it was when its
// batch was read. A Cursor is not safe for concurrent use.
type Cursor struct {
	t    *Tree
	rest Range
	done bool
	// The batch buffers are reused by every Next; each entry's Records is a
	// slice of rids.
	entries []Entry
	rids    []storage.RecordID
}

// Cursor starts a scan of r. It does not touch the tree until the first Next.
func (t *Tree) Cursor(r Range) *Cursor {
	return &Cursor{t: t, rest: r}
}

// Next returns the next batch in scan order, or nil when the range is
// exhausted. The batch (the slice and the Records of its entries) is valid
// until the following call; keys are immutable and may be retained.
func (c *Cursor) Next() []Entry {
	if c.done {
		return nil
	}
	c.entries, c.rids = c.entries[:0], c.rids[:0]
	c.t.mu.RLock()
	if c.rest.Reverse {
		c.readBackward()
	} else {
		c.readForward()
	}
	c.t.mu.RUnlock()
	if len(c.entries) == 0 {
		c.done = true
		return nil
	}
	last := c.entries[len(c.entries)-1].Key
	if c.rest.Reverse {
		c.rest.High, c.rest.HighOpen = last, true
	} else {
		c.rest.Low, c.rest.LowOpen = last, true
	}
	return c.entries
}

// readForward copies the entries of the first leaf that holds any key of the
// remaining interval. The caller holds the read lock.
func (c *Cursor) readForward() {
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
			return
		}
		i = 0
	}
	for ; i < len(leaf.keys); i++ {
		if c.rest.High != nil {
			if cmp := bytes.Compare(leaf.keys[i], c.rest.High); cmp > 0 || (cmp == 0 && c.rest.HighOpen) {
				c.done = true
				return
			}
		}
		c.add(leaf, i)
	}
}

// readBackward is readForward mirrored: the last leaf that holds any key of
// the remaining interval, from its highest in-range key down.
func (c *Cursor) readBackward() {
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
			return
		}
		i = len(leaf.keys) - 1
	}
	for ; i >= 0; i-- {
		if c.rest.Low != nil {
			if cmp := bytes.Compare(leaf.keys[i], c.rest.Low); cmp < 0 || (cmp == 0 && c.rest.LowOpen) {
				c.done = true
				return
			}
		}
		c.add(leaf, i)
	}
}

// add copies entry i of leaf into the batch. Keys are never modified after
// insertion, so the key is shared; posting lists are edited in place, so the
// records are copied. (When the append outgrows rids, earlier entries keep
// pointing into the old array, which still holds their copies.)
func (c *Cursor) add(leaf *leafNode, i int) {
	start := len(c.rids)
	c.rids = append(c.rids, leaf.vals[i]...)
	c.entries = append(c.entries, Entry{Key: leaf.keys[i], Records: c.rids[start:len(c.rids):len(c.rids)]})
}
