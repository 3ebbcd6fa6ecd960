package core

import (
	"fmt"

	"repro/internal/tui"
)

// Render repaints the window onto its own screen: the border and title, every
// field with its label, embedded detail grids, and the status line. The
// window manager composites the per-window screens onto the terminal.
func (w *Window) Render() {
	s := w.screen
	before := s.CellsPainted()
	s.Clear()

	title := fmt.Sprintf("%s [%s]", w.form.Def.Title, w.mode)
	s.DrawBox(0, 0, s.Height(), s.Width(), title, tui.StyleNone)

	// Fields: label to the left of the value cell.
	for i, field := range w.form.Fields {
		row, col := field.Def.Row, field.Def.Col
		label := field.Def.Label
		labelCol := col - len(label) - 2
		if labelCol < 1 {
			labelCol = 1
		}
		s.DrawText(row, labelCol, label, tui.StyleNone)
		tf := &tui.TextField{
			Row:      row,
			Col:      col,
			Width:    field.Def.Width,
			ReadOnly: field.Def.ReadOnly || field.computed(),
			Value:    w.fieldText(field),
			Focused:  i == w.focus && w.mode != ModeBrowse,
		}
		tf.Draw(s)
	}

	// Embedded detail grids.
	for i, link := range w.form.Details {
		child := w.details[i]
		if child == nil {
			continue
		}
		w.renderDetail(s, link, child)
	}

	// Row position and status line.
	position := "no rows"
	if w.cursor >= 0 {
		position = fmt.Sprintf("row %d of %d", w.cursor+1, w.RowCount())
	}
	s.DrawText(s.Height()-3, 2, position, tui.StyleDim)
	bar := tui.StatusBar{Row: s.Height() - 2, Width: s.Width(), Text: " " + w.status, Error: w.statusError}
	bar.Draw(s)

	w.stats.Repaints++
	w.stats.CellsPainted += s.CellsPainted() - before
}

// renderDetail draws a detail link as a grid over the child window's pager,
// showing the child's fields as columns. The grid pulls rows through the
// RowProvider interface, so only the child's buffered page is ever formatted
// — the child never materialises its result set for display.
func (w *Window) renderDetail(s *tui.Screen, link *DetailLink, child *Window) {
	grid := &tui.TableGrid{
		Row:         link.Def.Row + 1,
		Col:         link.Def.Col + 1,
		VisibleRows: link.Def.Rows,
		Selected:    child.cursor,
		Focused:     false,
		Source:      detailRows{w: child},
	}
	for _, field := range child.form.Fields {
		grid.Columns = append(grid.Columns, tui.GridColumn{Title: field.Def.Label, Width: field.Def.Width})
	}
	width := 2
	for _, c := range grid.Columns {
		width += c.Width + 1
	}
	s.DrawBox(link.Def.Row, link.Def.Col, link.Def.Rows+3, width+1, child.form.Def.Title, tui.StyleNone)
	grid.Draw(s)
}

// detailRows adapts a window's pager to the grid's row-provider interface:
// rows are served from the buffered page and formatted through the window's
// fields (computed values, formats) on demand.
type detailRows struct {
	w *Window
}

// GridRowCount returns the result-set size.
func (d detailRows) GridRowCount() int { return d.w.RowCount() }

// GridRow formats the fields of the row at absolute position i, if buffered.
func (d detailRows) GridRow(i int) ([]string, bool) {
	row, ok := d.w.pager.row(i)
	if !ok {
		return nil, false
	}
	cells := make([]string, 0, len(d.w.form.Fields))
	for _, field := range d.w.form.Fields {
		cells = append(cells, d.w.rowText(field, row))
	}
	return cells, true
}

// HandleKey applies one keystroke to the window: the classic forms-system
// keyboard model. It returns an error only for internal failures; user-level
// problems (validation, constraint violations) land in the status line.
func (w *Window) HandleKey(ev tui.Event) error {
	w.stats.Keystrokes++
	switch w.mode {
	case ModeBrowse:
		return w.handleBrowseKey(ev)
	case ModeEdit, ModeInsert, ModeQuery:
		return w.handleEntryKey(ev)
	}
	return nil
}

// HandleScript replays a keystroke script (see tui.ParseScript) through the
// window, as the workload generator and the examples do.
func (w *Window) HandleScript(script string) error {
	events, err := tui.ParseScript(script)
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := w.HandleKey(ev); err != nil {
			return err
		}
	}
	return nil
}

func (w *Window) handleBrowseKey(ev tui.Event) error {
	switch ev.Key {
	case tui.KeyDown:
		return w.nextRow()
	case tui.KeyUp:
		return w.prevRow()
	case tui.KeyPgDn:
		return w.MoveCursor(w.pageSize())
	case tui.KeyPgUp:
		return w.MoveCursor(-w.pageSize())
	case tui.KeyHome:
		return w.firstRow()
	case tui.KeyEnd:
		return w.lastRow()
	case tui.KeyF2:
		w.beginQuery()
		return nil
	case tui.KeyF4:
		// Execute an empty query: show everything.
		w.beginQuery()
		if err := w.executeQuery(); err != nil {
			w.setError(err)
		}
		return nil
	case tui.KeyF5:
		if err := w.BeginInsert(); err != nil {
			w.setError(err)
			w.Render()
		}
		return nil
	case tui.KeyF7:
		if err := w.deleteCurrent(); err != nil {
			w.Render()
		}
		return nil
	case tui.KeyTab:
		w.focus = (w.focus + 1) % len(w.form.Fields)
		w.Render()
		return nil
	case tui.KeyBackTab:
		w.focus = (w.focus - 1 + len(w.form.Fields)) % len(w.form.Fields)
		w.Render()
		return nil
	case tui.KeyEsc:
		w.setStatus("")
		w.Render()
		return nil
	case tui.KeyRune, tui.KeyBackspace:
		// Typing in browse mode starts editing the current row at the
		// focused field.
		if err := w.beginEdit(); err != nil {
			w.setError(err)
			w.Render()
			return nil
		}
		return w.handleEntryKey(ev)
	default:
		return nil
	}
}

func (w *Window) handleEntryKey(ev tui.Event) error {
	field := w.form.Fields[w.focus]
	editable := w.mode == ModeQuery || (!field.Def.ReadOnly && !field.computed())
	switch ev.Key {
	case tui.KeyRune:
		if !editable {
			w.setStatus("field %s is read-only", field.name())
			w.Render()
			return nil
		}
		w.buffer[field.name()] += string(ev.Rune)
		w.dirty = true
		w.Render()
	case tui.KeyBackspace:
		if !editable {
			return nil
		}
		text := w.buffer[field.name()]
		if len(text) > 0 {
			w.buffer[field.name()] = text[:len(text)-1]
			w.dirty = true
		}
		w.Render()
	case tui.KeyF3:
		if editable {
			w.buffer[field.name()] = ""
			w.Render()
		}
	case tui.KeyTab, tui.KeyEnter, tui.KeyDown:
		w.focus = w.nextFocusable(w.focus, 1)
		w.Render()
	case tui.KeyBackTab, tui.KeyUp:
		w.focus = w.nextFocusable(w.focus, -1)
		w.Render()
	case tui.KeyF4:
		if w.mode == ModeQuery {
			if err := w.executeQuery(); err != nil {
				w.setError(err)
				w.Render()
			}
		}
	case tui.KeyF6:
		if w.mode == ModeQuery {
			if err := w.executeQuery(); err != nil {
				w.setError(err)
				w.Render()
			}
			return nil
		}
		if err := w.Save(); err != nil {
			w.Render()
		}
	case tui.KeyEsc:
		w.cancel()
	}
	return nil
}

// nextFocusable cycles focus across fields that accept input in the current
// mode.
func (w *Window) nextFocusable(from, direction int) int {
	n := len(w.form.Fields)
	idx := from
	for i := 0; i < n; i++ {
		idx = (idx + direction + n) % n
		field := w.form.Fields[idx]
		if w.mode == ModeQuery {
			if !field.computed() {
				return idx
			}
			continue
		}
		if !field.Def.ReadOnly && !field.computed() {
			return idx
		}
	}
	return from
}

// pageSize is how many rows PgUp/PgDn move: the detail area height when the
// form has one, otherwise a full "screenful" heuristic.
func (w *Window) pageSize() int {
	if len(w.form.Details) > 0 {
		return w.form.Details[0].Def.Rows
	}
	size := w.form.Def.Height - 6
	if size < 1 {
		size = 1
	}
	return size
}
