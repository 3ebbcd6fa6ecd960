// Package tui is the display substrate the window manager draws on: a cell
// screen buffer with a diffing repaint model, a small widget set (labels,
// fields, table grids, boxes), and the keyboard event model forms are driven
// by.
//
// The paper's system ran on a bit-mapped terminal of the early 1980s; per the
// reproduction notes this build simulates that display as a character-cell
// screen. Every form and window operation is expressed in terms of cells,
// repaint regions and keystrokes, so the interface costs the paper compares
// (cells painted, repaints, keystrokes per task) can be counted.
package tui

import (
	"strings"
)

// Style is a display attribute for a cell.
type Style uint8

// Styles. They combine as a bit set.
const (
	StyleNone    Style = 0
	StyleReverse Style = 1 << iota
	StyleBold
	StyleUnderline
	StyleDim
)

// Cell is one character cell of the screen.
type Cell struct {
	Ch    rune
	Style Style
}

// Screen is a fixed-size grid of cells with paint statistics.
type Screen struct {
	width, height int
	cells         []Cell
	// painted counts cells written since the screen was created; window
	// statistics report it.
	painted uint64
}

// NewScreen creates a cleared screen of the given size.
func NewScreen(width, height int) *Screen {
	if width < 1 {
		width = 1
	}
	if height < 1 {
		height = 1
	}
	s := &Screen{width: width, height: height, cells: make([]Cell, width*height)}
	s.Clear()
	s.painted = 0 // a blank screen has painted nothing yet
	return s
}

// Width returns the screen width in cells.
func (s *Screen) Width() int { return s.width }

// Height returns the screen height in cells.
func (s *Screen) Height() int { return s.height }

// Clear fills the screen with spaces.
func (s *Screen) Clear() {
	for i := range s.cells {
		s.cells[i] = Cell{Ch: ' '}
	}
	s.painted += uint64(len(s.cells))
}

// CellsPainted returns how many cells have been written since the screen was
// created.
func (s *Screen) CellsPainted() uint64 { return s.painted }

// inBounds reports whether the cell coordinate is on the screen.
func (s *Screen) inBounds(row, col int) bool {
	return row >= 0 && row < s.height && col >= 0 && col < s.width
}

// SetCell writes one cell.
func (s *Screen) SetCell(row, col int, ch rune, style Style) {
	if !s.inBounds(row, col) {
		return
	}
	s.cells[row*s.width+col] = Cell{Ch: ch, Style: style}
	s.painted++
}

// CellAt returns the cell at the coordinate (a space cell when out of bounds).
func (s *Screen) CellAt(row, col int) Cell {
	if !s.inBounds(row, col) {
		return Cell{Ch: ' '}
	}
	return s.cells[row*s.width+col]
}

// DrawText writes a string starting at (row, col), clipped to the screen.
func (s *Screen) DrawText(row, col int, text string, style Style) {
	for i, ch := range text {
		s.SetCell(row, col+i, ch, style)
	}
}

// DrawBox draws a single-line box with optional title on its top border.
func (s *Screen) DrawBox(row, col, height, width int, title string, style Style) {
	if height < 2 || width < 2 {
		return
	}
	for c := col + 1; c < col+width-1; c++ {
		s.SetCell(row, c, '-', style)
		s.SetCell(row+height-1, c, '-', style)
	}
	for r := row + 1; r < row+height-1; r++ {
		s.SetCell(r, col, '|', style)
		s.SetCell(r, col+width-1, '|', style)
	}
	s.SetCell(row, col, '+', style)
	s.SetCell(row, col+width-1, '+', style)
	s.SetCell(row+height-1, col, '+', style)
	s.SetCell(row+height-1, col+width-1, '+', style)
	if title != "" {
		label := " " + title + " "
		if len(label) > width-2 {
			label = label[:width-2]
		}
		s.DrawText(row, col+1, label, style|StyleBold)
	}
}

// line returns the text content of one screen row with trailing spaces
// trimmed. Tests and the snapshot renderer use it.
func (s *Screen) line(row int) string {
	if row < 0 || row >= s.height {
		return ""
	}
	var b strings.Builder
	for c := 0; c < s.width; c++ {
		b.WriteRune(s.cells[row*s.width+c].Ch)
	}
	return strings.TrimRight(b.String(), " ")
}

// String renders the whole screen as plain text, one line per row.
func (s *Screen) String() string {
	var b strings.Builder
	for r := 0; r < s.height; r++ {
		b.WriteString(s.line(r))
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderANSI renders the screen with ANSI escape sequences for styles,
// prefixed by a cursor-home sequence, suitable for writing to a real
// terminal by the interactive tools.
func (s *Screen) RenderANSI() string {
	var b strings.Builder
	b.WriteString("\x1b[H")
	for r := 0; r < s.height; r++ {
		current := StyleNone
		for c := 0; c < s.width; c++ {
			cell := s.cells[r*s.width+c]
			if cell.Style != current {
				b.WriteString(ansiFor(cell.Style))
				current = cell.Style
			}
			b.WriteRune(cell.Ch)
		}
		if current != StyleNone {
			b.WriteString("\x1b[0m")
		}
		b.WriteString("\r\n")
	}
	return b.String()
}

func ansiFor(style Style) string {
	if style == StyleNone {
		return "\x1b[0m"
	}
	var codes []string
	if style&StyleReverse != 0 {
		codes = append(codes, "7")
	}
	if style&StyleBold != 0 {
		codes = append(codes, "1")
	}
	if style&StyleUnderline != 0 {
		codes = append(codes, "4")
	}
	if style&StyleDim != 0 {
		codes = append(codes, "2")
	}
	return "\x1b[0m\x1b[" + strings.Join(codes, ";") + "m"
}
