// Package lib exports only what another package uses.
package lib

// Counter counts.
type Counter struct{ n int }

// Add adds one and returns the count.
func (c *Counter) Add() int {
	c.n++
	return c.n
}

// Error satisfies error.
func (c *Counter) Error() string { return "counter" }
