// Package top closes a cross-package cycle: base established
// rows -> base.Mu, and MuThenRow acquires them in the opposite order.
package top

import (
	"base"

	"internal/txn"
)

// MuThenRow inverts base's ordering.
func MuThenRow(t *txn.Txn) error {
	base.Mu.Lock()
	defer base.Mu.Unlock()
	return t.Update("accounts") // want `acquiring internal/txn\.#rows while holding base\.Mu creates a lock-order cycle`
}

// MuAlone uses base.Mu with nothing else held: silent.
func MuAlone() {
	base.Mu.Lock()
	defer base.Mu.Unlock()
}
