// Package locks declares two package-level mutexes. Sibling packages p and
// q take them in opposite orders without importing each other.
package locks

import "sync"

// Mu1 is the first lock of the sibling inversion.
var Mu1 sync.Mutex

// Mu2 is the second lock of the sibling inversion.
var Mu2 sync.Mutex
