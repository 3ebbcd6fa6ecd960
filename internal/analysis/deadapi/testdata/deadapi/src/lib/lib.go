// Package lib holds every shape of finding deadapi reports, and the shapes
// it must stay silent on.
package lib

import "fmt"

// Orphan is an export no program calls.
func Orphan() {} // want `func Orphan is never referenced outside its own declaration`

// OwnOnly is exported but only this package calls it.
func OwnOnly() int { return 1 } // want `exported func OwnOnly is referenced only inside its own package`

func orphanHelper() {} // want `func orphanHelper is never referenced outside its own declaration`

// Shape is an interface another package uses.
type Shape interface{ Area() int }

// Square satisfies Shape, so Area needs no direct caller.
type Square struct{ Side int }

// Area satisfies Shape.
func (s Square) Area() int { return s.Side * s.Side * OwnOnly() }

// Grow is a method only this package calls.
func (s *Square) Grow() { s.Side++ } // want `exported method Square.Grow is referenced only inside its own package`

// Name satisfies fmt.Stringer, which fmt finds without naming it.
type Name string

// String satisfies fmt.Stringer.
func (n Name) String() string { return fmt.Sprintf("<%s>", string(n)) }

// Resize calls Grow, so Grow has a caller in this package.
func Resize(s *Square) { s.Grow() }

// TestOnly is called from lib_test.go alone, which does not count.
func TestOnly() {} // want `func TestOnly is never referenced outside its own declaration`

// ForBench is called from the nested module alone, which counts.
func ForBench() {}

// Kept is deliberate API.
//
//wowvet:ignore deadapi -- kept as the documented entry point for the next caller
func Kept() {}

// Unjustified carries a suppression without a reason, which does not count.
//
//wowvet:ignore deadapi // want `suppression without a justification`
func Unjustified() {} // want `func Unjustified is never referenced outside its own declaration`
