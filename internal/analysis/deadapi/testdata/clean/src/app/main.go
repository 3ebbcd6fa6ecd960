// Command app uses all of lib.
package main

import (
	"fmt"

	"lib"
)

func main() {
	var c lib.Counter
	var err error = &c
	fmt.Println(c.Add(), err)
}
