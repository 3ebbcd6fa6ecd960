// Package base establishes the ordering "row locks before base.Mu"; package
// top, which imports base, inverts it. Both halves of the inversion are
// reported, each in its own package.
package base

import (
	"internal/txn"
	"sync"
)

// Mu is ordered after the row-lock space: every function here acquires
// row locks first.
var Mu sync.Mutex

// RowThenMu records the edge rows -> base.Mu.
func RowThenMu(t *txn.Txn) error {
	if err := t.Update("accounts"); err != nil {
		return err
	}
	Mu.Lock() // want `acquiring base\.Mu while holding internal/txn\.#rows creates a lock-order cycle`
	Mu.Unlock()
	return t.Commit()
}

// MultiRow acquires several row locks in a row: cycles inside the row-lock
// space are the runtime waits-for graph's job, so this must stay silent.
func MultiRow(t *txn.Txn) error {
	if err := t.Update("accounts"); err != nil {
		return err
	}
	if err := t.Insert("branches"); err != nil {
		return err
	}
	if err := t.Delete("history"); err != nil {
		return err
	}
	return t.Commit()
}
