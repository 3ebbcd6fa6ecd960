// Command app uses lib's live surface.
package main

import (
	"fmt"

	"lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	sq := &lib.Square{Side: 1}
	lib.Resize(sq)
	fmt.Println(s.Area(), sq.Side, lib.Name("x"))
}
