// Package q takes locks.Mu2 before locks.Mu1, the opposite of package p.
// Neither imports the other, so only one graph over the whole program sees
// the cycle.
package q

import "locks"

// TwoThenOne records the edge Mu2 -> Mu1.
func TwoThenOne() {
	locks.Mu2.Lock()
	defer locks.Mu2.Unlock()
	locks.Mu1.Lock() // want `acquiring locks\.Mu1 while holding locks\.Mu2 creates a lock-order cycle`
	locks.Mu1.Unlock()
}
