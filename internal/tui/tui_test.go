package tui

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestScreenBasics(t *testing.T) {
	s := NewScreen(20, 5)
	if s.Width() != 20 || s.Height() != 5 {
		t.Fatalf("size = %dx%d", s.Width(), s.Height())
	}
	s.DrawText(1, 2, "hello", StyleBold)
	if got := s.line(1); got != "  hello" {
		t.Errorf("Line(1) = %q", got)
	}
	if cell := s.CellAt(1, 2); cell.Ch != 'h' || cell.Style != StyleBold {
		t.Errorf("CellAt = %+v", cell)
	}
	// Out-of-bounds writes and reads are safe.
	s.SetCell(100, 100, 'x', StyleNone)
	if cell := s.CellAt(-1, -1); cell.Ch != ' ' {
		t.Errorf("out-of-bounds cell = %+v", cell)
	}
	if !strings.Contains(s.String(), "hello") {
		t.Error("String() should include drawn text")
	}
}

func TestScreenClipping(t *testing.T) {
	s := NewScreen(10, 2)
	s.DrawText(0, 6, "overflowing", StyleNone)
	if got := s.line(0); got != "      over" {
		t.Errorf("clipped line = %q", got)
	}
}

func TestScreenStats(t *testing.T) {
	s := NewScreen(10, 10)
	if s.CellsPainted() != 0 {
		t.Errorf("a new screen painted %d cells", s.CellsPainted())
	}
	s.DrawText(0, 0, "12345", StyleNone)
	if s.CellsPainted() != 5 {
		t.Errorf("painted = %d, want 5", s.CellsPainted())
	}
	s.DrawText(9, 8, "xyz", StyleNone) // one cell clipped
	if s.CellsPainted() != 7 {
		t.Errorf("painted = %d, want 7: clipped cells are not painted", s.CellsPainted())
	}
}

func TestDrawBoxAndFill(t *testing.T) {
	s := NewScreen(20, 6)
	s.DrawBox(0, 0, 5, 12, "Orders", StyleNone)
	top := s.line(0)
	if !strings.HasPrefix(top, "+") || !strings.Contains(top, "Orders") {
		t.Errorf("box top = %q", top)
	}
	if s.CellAt(4, 0).Ch != '+' || s.CellAt(2, 11).Ch != '|' {
		t.Error("box corners/edges missing")
	}
	// Degenerate boxes are ignored.
	s.DrawBox(0, 0, 1, 1, "", StyleNone)
}

func TestRenderANSI(t *testing.T) {
	s := NewScreen(5, 2)
	s.DrawText(0, 0, "hi", StyleReverse)
	out := s.RenderANSI()
	if !strings.Contains(out, "\x1b[H") || !strings.Contains(out, "7m") {
		t.Errorf("ANSI output = %q", out)
	}
}

func TestKeyScriptRoundTrip(t *testing.T) {
	text := "Ada<TAB>Boston<ENTER><F6><ESC>x"
	events, err := ParseScript(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len("Ada")+1+len("Boston")+4 {
		t.Errorf("event count = %d", len(events))
	}
	if script(events) != text {
		t.Errorf("round trip = %q", script(events))
	}
	if _, err := ParseScript("<NOSUCHKEY>"); err == nil {
		t.Error("unknown key should fail")
	}
	if _, err := ParseScript("<unterminated"); err == nil {
		t.Error("unterminated key should fail")
	}
	// Escaped literal '<'.
	events, err = ParseScript("a<<b")
	if err != nil || len(events) != 3 || events[1].Rune != '<' {
		t.Errorf("escaped < = %v, %v", events, err)
	}
}

func TestParseScriptProperty(t *testing.T) {
	f := func(s string) bool {
		clean := strings.Map(func(r rune) rune {
			if r == '<' || r == '>' || r < 32 || r > 126 {
				return 'x'
			}
			return r
		}, s)
		events, err := ParseScript(clean)
		if err != nil {
			return false
		}
		return script(events) == clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeStringAndEventString(t *testing.T) {
	events := TypeString("ab")
	if len(events) != 2 || events[0].Rune != 'a' {
		t.Errorf("TypeString = %v", events)
	}
	if KeyEvent(KeyEnter).String() != "<ENTER>" || runeEvent('z').String() != "z" {
		t.Error("Event.String wrong")
	}
	if KeyF6.String() != "F6" {
		t.Errorf("KeyF6 = %q", KeyF6.String())
	}
}

func TestTextFieldScrollingAndDraw(t *testing.T) {
	s := NewScreen(12, 2)
	f := &TextField{Row: 0, Col: 0, Width: 5, Focused: true, Value: "abcdefghij"}
	f.Draw(s)
	// The visible window must show the tail of the value with one cell kept
	// free for the cursor (cursor sits at the end of the text).
	if got := s.line(0); !strings.Contains(got, "ghij") || strings.Contains(got, "abc") {
		t.Errorf("scrolled field = %q", got)
	}
}

func TestTableGridNavigation(t *testing.T) {
	g := &TableGrid{
		Columns:     []GridColumn{{Title: "id", Width: 4}, {Title: "name", Width: 8}},
		VisibleRows: 3,
		Focused:     true,
	}
	var rows [][]string
	for i := 0; i < 10; i++ {
		rows = append(rows, []string{itoa(i), "row" + itoa(i)})
	}
	g.Source = stringRows(rows)
	// The scroll offset follows the selection the window moves.
	g.Selected = 5
	g.clampSelection()
	if g.Offset != 3 {
		t.Errorf("selected 5: offset = %d, want 3", g.Offset)
	}
	g.Selected = 12 // past the end
	g.clampSelection()
	if g.Selected != 9 || g.Offset != 7 {
		t.Errorf("past the end = %d/%d, want 9/7", g.Selected, g.Offset)
	}
	g.Selected = -1 // above the top
	g.clampSelection()
	if g.Selected != 0 || g.Offset != 0 {
		t.Errorf("above the top = %d/%d, want 0/0", g.Selected, g.Offset)
	}

	s := NewScreen(20, 6)
	g.Row, g.Col = 0, 0
	g.Draw(s)
	if !strings.Contains(s.line(0), "id") || !strings.Contains(s.line(1), "row0") {
		t.Errorf("grid draw:\n%s", s.String())
	}
}

// TestTableGridShrinkUnderCursor is the regression test for the clamp logic:
// rows are removed from the data set while the selection (and scroll offset)
// sit past the new end. The grid must land the selection on the last
// remaining row, pull the offset back inside the data, and still draw.
func TestTableGridShrinkUnderCursor(t *testing.T) {
	g := &TableGrid{
		Columns:     []GridColumn{{Title: "id", Width: 4}},
		VisibleRows: 3,
		Focused:     true,
	}
	var rows [][]string
	for i := 0; i < 10; i++ {
		rows = append(rows, []string{itoa(i)})
	}
	g.Source = stringRows(rows)
	g.Selected = 9
	g.clampSelection() // Offset = 7
	if g.Selected != 9 || g.Offset != 7 {
		t.Fatalf("before shrink: selected=%d offset=%d", g.Selected, g.Offset)
	}

	// The data set shrinks under the cursor: 10 rows become 2.
	g.Source = stringRows(rows[:2])
	g.clampSelection()
	if g.Selected != 1 {
		t.Errorf("after shrink: selected = %d, want 1 (the last remaining row)", g.Selected)
	}
	if g.Offset > g.Selected {
		t.Errorf("after shrink: offset %d points past the selection %d", g.Offset, g.Selected)
	}
	s := NewScreen(10, 5)
	g.Draw(s) // must not index past the shrunken data
	if !strings.Contains(s.line(1), "0") || !strings.Contains(s.line(2), "1") {
		t.Errorf("after shrink the remaining rows should be visible:\n%s", s.String())
	}

	// Shrinking to empty clamps everything to the origin and still draws.
	g.Source = stringRows(nil)
	g.Selected++
	g.clampSelection()
	if g.Selected != 0 || g.Offset != 0 {
		t.Errorf("empty grid: selected=%d offset=%d", g.Selected, g.Offset)
	}
	g.Draw(NewScreen(10, 5))

	// A provider with an unknown row count (-1): the selection is never
	// forced back to a known end.
	g.Source = openEnded{}
	g.Selected, g.Offset = g.VisibleRows, 0
	g.clampSelection()
	if g.Selected != g.VisibleRows || g.Offset != 1 {
		t.Errorf("open-ended: selected=%d offset=%d, want %d and 1", g.Selected, g.Offset, g.VisibleRows)
	}
}

// openEnded is a RowProvider that does not know its row count.
type openEnded struct{}

func (openEnded) GridRowCount() int { return -1 }
func (openEnded) GridRow(i int) ([]string, bool) {
	return []string{itoa(i)}, true
}

func TestStatusBarAndLabel(t *testing.T) {
	s := NewScreen(30, 3)
	s.DrawText(0, 1, "Customer", StyleBold)
	StatusBar{Row: 2, Width: 30, Text: "1 row(s) saved"}.Draw(s)
	if !strings.Contains(s.line(0), "Customer") || !strings.Contains(s.line(2), "saved") {
		t.Errorf("draw:\n%s", s.String())
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	digits := ""
	for i > 0 {
		digits = string(rune('0'+i%10)) + digits
		i /= 10
	}
	return digits
}

func BenchmarkFullScreenRepaint(b *testing.B) {
	s := NewScreen(80, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Clear()
		for row := 0; row < 24; row++ {
			s.DrawText(row, 0, "field value and label text for one row of the form", StyleNone)
		}
	}
}

func BenchmarkRenderANSI(b *testing.B) {
	s := NewScreen(80, 24)
	for row := 0; row < 24; row++ {
		s.DrawText(row, 0, "some text on the row with style", StyleBold)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := s.RenderANSI(); len(out) == 0 {
			b.Fatal("empty render")
		}
	}
}

// script renders events back into script notation, so that
// ParseScript(script(ev)) round-trips.
func script(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		if e.Key == KeyRune && e.Rune == '<' {
			b.WriteString("<<")
			continue
		}
		b.WriteString(e.String())
	}
	return b.String()
}

// stringRows serves a materialised slice of rows to a grid.
type stringRows [][]string

func (r stringRows) GridRowCount() int { return len(r) }

func (r stringRows) GridRow(i int) ([]string, bool) {
	if i < 0 || i >= len(r) {
		return nil, false
	}
	return r[i], true
}
