// Package app links p and q into one program.
package app

import (
	"locks"
	"p"
	"q"
)

// Run calls both orders.
func Run() {
	p.OneThenTwo()
	q.TwoThenOne()
}

// Setup takes the locks in q's order too, but its edge is suppressed: a
// justified suppression still silences a finding of the program pass.
func Setup() {
	locks.Mu2.Lock()
	defer locks.Mu2.Unlock()
	//wowvet:ignore lockorder -- Setup runs once at startup, before anything calls p or q
	locks.Mu1.Lock()
	locks.Mu1.Unlock()
}
