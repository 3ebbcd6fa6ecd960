package tui

import (
	"strings"
)

// TextField is a single-line field: the building block every form field is
// rendered with. The forms runtime edits the text; the field draws it, with
// the cursor after its last character.
type TextField struct {
	Row, Col int
	Width    int
	// Value is the field's current text.
	Value string
	// Focused fields render in reverse video with a visible cursor.
	Focused bool
	// ReadOnly fields render dimmed.
	ReadOnly bool
}

// Draw paints the field: the tail of its text that fits beside the cursor,
// padded to the field width, in reverse video when focused.
func (f *TextField) Draw(s *Screen) {
	style := StyleUnderline
	if f.Focused {
		style = StyleReverse
	}
	if f.ReadOnly {
		style |= StyleDim
	}
	// Scroll so the cursor, one cell past the text, stays visible.
	scroll := max(0, len(f.Value)-f.Width+1)
	visible := f.Value[min(scroll, len(f.Value)):]
	if len(visible) > f.Width {
		visible = visible[:max(f.Width, 0)]
	}
	padded := visible + strings.Repeat(" ", max(f.Width-len(visible), 0))
	s.DrawText(f.Row, f.Col, padded, style)
	if f.Focused {
		cursorCol := f.Col + len(f.Value) - scroll
		if cursorCol >= f.Col && cursorCol < f.Col+f.Width {
			cell := s.CellAt(f.Row, cursorCol)
			s.SetCell(f.Row, cursorCol, cell.Ch, StyleReverse|StyleBold|StyleUnderline)
		}
	}
}

// GridColumn describes one column of a TableGrid.
type GridColumn struct {
	Title string
	Width int
}

// RowProvider supplies a TableGrid's rows on demand, by absolute row index.
// The grid never materialises the data set: it asks for exactly the rows in
// its visible window, so a provider backed by a paging cursor can sit under a
// grid over a million-row relation and only ever surface a page.
type RowProvider interface {
	// GridRowCount returns the number of rows in the data set, or -1 when it
	// is not (yet) known — a provider still streaming an open-ended cursor.
	GridRowCount() int
	// GridRow returns the cell texts of row i. ok is false when the row does
	// not exist or is not currently available; the grid paints it blank.
	GridRow(i int) (cells []string, ok bool)
}

// TableGrid renders rows of text in columns with a heading, a selection bar
// and vertical scrolling: the widget behind browse windows and detail blocks.
// Rows come from a RowProvider — the grid shows a window of VisibleRows rows
// starting at Offset and never asks the provider for anything outside it.
type TableGrid struct {
	Row, Col int
	Columns  []GridColumn
	// Source provides the rows, a page at a time.
	Source      RowProvider
	VisibleRows int
	Offset      int
	Selected    int
	Focused     bool
}

// rowCount returns the provider's row count (0 with no provider; -1 when the
// provider does not know).
func (g *TableGrid) rowCount() int {
	if g.Source == nil {
		return 0
	}
	return g.Source.GridRowCount()
}

// clampSelection keeps the selection and scroll offset within the data. The
// row count is read once and both Selected and Offset are clamped against the
// same value, so a data set shrinking between keystrokes (rows deleted while
// the selection sat past the new end) cannot leave the offset pointing past
// the data.
func (g *TableGrid) clampSelection() {
	count := g.rowCount()
	if g.VisibleRows <= 0 {
		g.VisibleRows = 1
	}
	if count >= 0 && g.Selected >= count {
		g.Selected = count - 1
	}
	if g.Selected < 0 {
		g.Selected = 0
	}
	if g.Selected < g.Offset {
		g.Offset = g.Selected
	}
	if g.Selected >= g.Offset+g.VisibleRows {
		g.Offset = g.Selected - g.VisibleRows + 1
	}
	if count >= 0 && g.Offset > count-g.VisibleRows {
		// Don't scroll a mostly-empty window past the end of the data.
		g.Offset = count - g.VisibleRows
	}
	if g.Offset < 0 {
		g.Offset = 0
	}
}

// Draw paints the heading and the visible window of rows, asking the provider
// only for rows inside the window.
func (g *TableGrid) Draw(s *Screen) {
	g.clampSelection()
	col := g.Col
	for _, c := range g.Columns {
		s.DrawText(g.Row, col, pad(c.Title, c.Width), StyleBold|StyleUnderline)
		col += c.Width + 1
	}
	for i := 0; i < g.VisibleRows; i++ {
		rowIdx := g.Offset + i
		screenRow := g.Row + 1 + i
		style := StyleNone
		if rowIdx == g.Selected && g.Focused {
			style = StyleReverse
		}
		var cells []string
		if g.Source != nil {
			cells, _ = g.Source.GridRow(rowIdx)
		}
		col = g.Col
		for c := range g.Columns {
			text := ""
			if c < len(cells) {
				text = cells[c]
			}
			s.DrawText(screenRow, col, pad(text, g.Columns[c].Width), style)
			col += g.Columns[c].Width + 1
		}
	}
}

// StatusBar is the single message line at the bottom of a form window.
type StatusBar struct {
	Row   int
	Width int
	Text  string
	Error bool
}

// Draw paints the status line across its width.
func (b StatusBar) Draw(s *Screen) {
	style := StyleDim
	if b.Error {
		style = StyleReverse | StyleBold
	}
	s.DrawText(b.Row, 0, pad(b.Text, b.Width), style)
}

// pad truncates or right-pads text to exactly width characters.
func pad(text string, width int) string {
	if width <= 0 {
		return ""
	}
	if len(text) > width {
		return text[:width]
	}
	return text + strings.Repeat(" ", width-len(text))
}
