// Package p takes locks.Mu1 before locks.Mu2.
package p

import "locks"

// OneThenTwo records the edge Mu1 -> Mu2.
func OneThenTwo() {
	locks.Mu1.Lock()
	defer locks.Mu1.Unlock()
	locks.Mu2.Lock() // want `acquiring locks\.Mu2 while holding locks\.Mu1 creates a lock-order cycle`
	locks.Mu2.Unlock()
}
