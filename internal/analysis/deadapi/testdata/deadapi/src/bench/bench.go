// Package bench stands for a nested module: its references count, and its
// own unused code is never reported.
package bench

import "lib"

// Run calls what only this module calls.
func Run() { lib.ForBench() }

func neverCalled() {}
