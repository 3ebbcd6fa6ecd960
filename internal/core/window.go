package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sql"
	"repro/internal/tui"
	"repro/internal/types"
)

// Mode is the interaction state of a window.
type Mode int

// Window modes.
const (
	// ModeBrowse navigates the current rows.
	ModeBrowse Mode = iota
	// ModeEdit changes the current row's fields.
	ModeEdit
	// ModeInsert builds a new row.
	ModeInsert
	// ModeQuery collects query-by-form patterns.
	ModeQuery
)

func (m Mode) String() string {
	switch m {
	case ModeBrowse:
		return "BROWSE"
	case ModeEdit:
		return "EDIT"
	case ModeInsert:
		return "INSERT"
	case ModeQuery:
		return "QUERY"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Stats counts what a window has done since it was opened: keystrokes (the
// keystroke-economy test in internal/baseline reads them), repaint cost and
// query counts. Queries counts every query the window's pager ran (page fetches
// and result counts alike); RowsFetched counts the rows those queries
// actually pulled off their cursors — with the pager this stays O(page) per
// refresh no matter how large the relation is.
type Stats struct {
	Keystrokes   uint64
	Repaints     uint64
	CellsPainted uint64
	Queries      uint64
	RowsFetched  uint64
	Saves        uint64
	Deletes      uint64
	Refreshes    uint64
}

// Window is one open form: a viewport onto the rows of its relation that
// currently satisfy the window's predicate, plus the edit state for changing
// them. It is the runtime object the paper calls a "window on the world".
//
// The window never materialises its result set: a Pager keeps a bounded ring
// of rows buffered around the cursor and pages through the relation by keyset
// as the cursor moves, so the window behaves identically over ten rows or ten
// million. The cursor is an absolute position in the ordered result.
type Window struct {
	form *Form
	src  Source
	// own is what was opened for this window — the session of a local window
	// or detail — and closes with it; nil when src is the caller's.
	own io.Closer
	wm  *Manager
	id  int

	// OriginRow and OriginCol place the window on the composite screen.
	OriginRow, OriginCol int

	screen *tui.Screen

	// Query state.
	queryPatterns map[string]string
	// hasLink/linkColumn/linkValue hold the extra predicate a master imposes
	// on its detail window: rows whose linkColumn equals linkValue. The
	// column fixes the prepared statement's shape; the value is bound per
	// refresh.
	hasLink    bool
	linkColumn string
	linkValue  types.Value
	// pager is the window cursor; cursor is the absolute position of the
	// current row in the pager's ordered result (-1 when the window is empty).
	pager  *Pager
	cursor int
	// visibleHint is how many rows of this window are visible at once (set on
	// detail children from the master's link definition); it sizes the
	// pager's buffer page.
	visibleHint int

	// stmts caches one prepared statement per query shape this window has
	// run. A shape is the generated SQL with "@q_*" parameter templates in
	// place of the pattern operands, so refreshing with new operands (the
	// master cursor moved, the user re-queried with a different value, the
	// pager re-anchored at another row) reuses the compiled plan and only
	// rebinds.
	stmts     map[string]Statement
	stmtOrder []string

	// Edit state.
	mode   Mode
	focus  int
	buffer map[string]string
	dirty  bool

	status      string
	statusError bool
	stats       Stats

	// details are the child windows of this window's master/detail links,
	// parallel to form.Details.
	details []*Window

	closed bool
}

// newWindow wires a window for a compiled form. Detail child windows are
// created recursively, each with its own source on the same world (its own
// session locally, which the child closes; the shared connection remotely).
func newWindow(form *Form, src Source, wm *Manager, id int) *Window {
	w := &Window{
		form:          form,
		src:           src,
		wm:            wm,
		id:            id,
		screen:        tui.NewScreen(form.Def.Width, form.Def.Height),
		queryPatterns: map[string]string{},
		buffer:        map[string]string{},
		cursor:        -1,
	}
	w.pager = newPager(w.preparedFor, &w.stats)
	for range form.Details {
		w.details = append(w.details, nil)
	}
	for i, link := range form.Details {
		childSrc := src.NewSource()
		child := newWindow(link.Child, childSrc, wm, -1)
		child.own, _ = childSrc.(io.Closer)
		child.visibleHint = link.Def.Rows
		w.details[i] = child
	}
	return w
}

// Mode returns the window's interaction mode.
func (w *Window) Mode() Mode { return w.mode }

// Stats returns a copy of the window's counters.
func (w *Window) Stats() Stats { return w.stats }

// Screen exposes the window's drawing surface (its own buffer, composited by
// the window manager).
func (w *Window) Screen() *tui.Screen { return w.screen }

// RowCount returns the number of rows in the window's result set, as of its
// last refresh (0 before the first one). The rows themselves are not
// materialised; only a page around the cursor is buffered.
func (w *Window) RowCount() int {
	return max(w.pager.total, 0)
}

// Cursor returns the current row's absolute position in the window's result
// set (-1 when the window is empty).
func (w *Window) Cursor() int { return w.cursor }

// PageSize returns how many rows one PgUp/PgDn moves the cursor.
func (w *Window) PageSize() int { return w.pageSize() }

// Status returns the window's status-line message.
func (w *Window) Status() string { return w.status }

// setStatus records a status-line message.
func (w *Window) setStatus(format string, args ...interface{}) {
	w.status = fmt.Sprintf(format, args...)
	w.statusError = false
}

func (w *Window) setError(err error) {
	w.status = err.Error()
	w.statusError = true
}

// --- querying ---------------------------------------------------------------

// queryPredicates assembles the WHERE conjuncts that select the window's
// rows: the form's static filter, the current query-by-form predicate and the
// master/detail link predicate. Everything that varies per refresh — pattern
// operands, the link value — is emitted as a named parameter and returned in
// binds, so the texts identify reusable prepared-statement shapes. Ordering
// and pagination are the pager's business (Form.order).
func (w *Window) queryPredicates() ([]string, map[string]types.Value, error) {
	binds := map[string]types.Value{}
	var predicates []string
	if w.form.FilterExpr != nil {
		predicates = append(predicates, w.form.FilterExpr.String())
	}
	qbf, err := qbfPredicate(w.form, w.queryPatterns, binds)
	if err != nil {
		return nil, nil, err
	}
	if qbf != nil {
		predicates = append(predicates, qbf.String())
	}
	if w.hasLink {
		link := &sql.BinaryExpr{
			Op:    sql.OpEq,
			Left:  &sql.ColumnRef{Name: w.linkColumn},
			Right: &sql.Param{Index: -1, Name: "link"},
		}
		binds["link"] = w.linkValue
		predicates = append(predicates, link.String())
	}
	return predicates, binds, nil
}

// visibleRows is how many rows of the result the window presents at once: a
// detail block shows its grid rows; a card-style master steps by pageSize.
func (w *Window) visibleRows() int {
	if w.visibleHint > 0 {
		return w.visibleHint
	}
	return w.pageSize()
}

// bufferPageSize is the pager's buffer page: the visible rows times the
// lookahead factor, so scrolling row by row refetches only every couple of
// visible pages.
func (w *Window) bufferPageSize() int {
	return max(w.visibleRows()*pageFactor, 8)
}

// maxWindowStmts bounds how many prepared shapes a window keeps. Shapes vary
// with which fields carry patterns, which operators they use, and which of
// the pager's page shapes (first/last page, keyset forward/backward, count)
// have run, so a few dozen covers an interactive session; the oldest is
// closed when the cache overflows.
const maxWindowStmts = 32

// preparedFor returns the window's prepared statement for the query shape,
// preparing and caching it on first use.
func (w *Window) preparedFor(query string) (Statement, error) {
	if stmt, ok := w.stmts[query]; ok {
		return stmt, nil
	}
	stmt, err := w.src.Prepare(query)
	if err != nil {
		return nil, err
	}
	if w.stmts == nil {
		w.stmts = map[string]Statement{}
	}
	if len(w.stmtOrder) >= maxWindowStmts {
		oldest := w.stmtOrder[0]
		w.stmtOrder = w.stmtOrder[1:]
		if old, ok := w.stmts[oldest]; ok {
			old.Close()
			delete(w.stmts, oldest)
		}
	}
	w.stmts[query] = stmt
	w.stmtOrder = append(w.stmtOrder, query)
	return stmt, nil
}

// release closes the window's prepared statements and what was opened for
// it, and those of its detail windows.
func (w *Window) release() {
	for _, stmt := range w.stmts {
		stmt.Close()
	}
	w.stmts = nil
	w.stmtOrder = nil
	for _, child := range w.details {
		if child != nil {
			child.release()
		}
	}
	if w.own != nil {
		w.own.Close()
		w.own = nil
	}
}

// Refresh re-runs the window's query and repaints. Only a page of rows is
// fetched: when the query is unchanged the pager re-anchors at the current
// row by keyset (so a refresh deep in a huge table costs one page plus the
// result count, not a scan from the top); when the query changed — new QBF
// patterns, the master's cursor moved a detail's link — the first page loads.
// The cursor stays on the same position when possible.
func (w *Window) Refresh() error {
	where, binds, err := w.queryPredicates()
	if err != nil {
		w.setError(err)
		return err
	}
	changed := w.pager.configure(w.form.Relation, where, binds, w.form.order, w.bufferPageSize())
	var anchor types.Tuple
	anchorAbs := -1
	if !changed {
		if row, ok := w.CurrentRow(); ok {
			anchor, anchorAbs = row, w.cursor
		}
	}
	if err := w.pager.refresh(anchor, anchorAbs); err != nil {
		w.setError(err)
		return err
	}
	w.stats.Refreshes++
	if total := w.pager.total; total == 0 {
		w.cursor = -1
	} else {
		pos, err := w.pager.seek(clamp(w.cursor, 0, total-1))
		if err != nil {
			w.setError(err)
			return err
		}
		w.cursor = pos
	}
	if err := w.syncDetails(); err != nil {
		return err
	}
	w.Render()
	return nil
}

// Query sets the window's query-by-form patterns programmatically (field name
// to pattern text) and refreshes. An empty map clears the query.
func (w *Window) Query(patterns map[string]string) error {
	w.queryPatterns = map[string]string{}
	for name, pattern := range patterns {
		if _, ok := w.form.fieldByName(name); !ok {
			return fmt.Errorf("core: form %q has no field %q", w.form.Def.Name, name)
		}
		w.queryPatterns[strings.ToLower(name)] = pattern
	}
	w.cursor = -1
	return w.Refresh()
}

// setLink constrains the window to rows whose column equals the given value;
// master windows call it on their details as the cursor moves. Only the value
// changes from row to row, so every move reuses the detail window's one
// prepared statement.
func (w *Window) setLink(column int, value types.Value) {
	w.hasLink = true
	w.linkColumn = w.form.Schema.Columns[column].Name
	w.linkValue = value
}

// syncDetails points every detail window at the current master row and
// refreshes it.
func (w *Window) syncDetails() error {
	if len(w.details) == 0 {
		return nil
	}
	current, ok := w.CurrentRow()
	for i, link := range w.form.Details {
		child := w.details[i]
		if child == nil {
			continue
		}
		if !ok {
			child.pager.clear()
			child.cursor = -1
			continue
		}
		child.setLink(link.ChildColumn, current[link.ParentColumn])
		if err := child.Refresh(); err != nil {
			return err
		}
	}
	return nil
}

// CurrentRow returns the row under the cursor.
func (w *Window) CurrentRow() (types.Tuple, bool) {
	if w.cursor < 0 {
		return nil, false
	}
	return w.pager.row(w.cursor)
}

// --- navigation ---------------------------------------------------------------

// MoveCursor moves the cursor by delta rows, clamped to the result set, and
// re-synchronises detail windows. The pager fetches forward or backward by
// keyset as needed, so any page-sized move costs at most one page of rows.
func (w *Window) MoveCursor(delta int) error {
	if w.pager.total <= 0 {
		return nil
	}
	next := clamp(w.cursor+delta, 0, w.pager.total-1)
	if next == w.cursor {
		return nil
	}
	return w.seekTo(next)
}

// seekTo positions the cursor on an absolute row and repaints.
func (w *Window) seekTo(abs int) error {
	pos, err := w.pager.seek(abs)
	if err != nil {
		w.setError(err)
		w.Render()
		return err
	}
	w.cursor = pos
	if err := w.syncDetails(); err != nil {
		return err
	}
	w.Render()
	return nil
}

// nextRow advances one row.
func (w *Window) nextRow() error { return w.MoveCursor(1) }

// prevRow moves back one row.
func (w *Window) prevRow() error { return w.MoveCursor(-1) }

// firstRow jumps to the first row.
func (w *Window) firstRow() error {
	if w.pager.total <= 0 || w.cursor == 0 {
		return nil
	}
	return w.seekTo(0)
}

// lastRow jumps to the last row. With a keyset order this is one reversed
// page fetch, not a walk over the table.
func (w *Window) lastRow() error {
	if w.pager.total <= 0 {
		return nil
	}
	pos, err := w.pager.seekLast()
	if err != nil {
		w.setError(err)
		w.Render()
		return err
	}
	if pos == w.cursor {
		return nil
	}
	w.cursor = pos
	if err := w.syncDetails(); err != nil {
		return err
	}
	w.Render()
	return nil
}

// --- field access and editing ------------------------------------------------

// fieldText returns the text a field currently displays: the edit buffer in
// edit, insert or query mode; otherwise the current row's (or computed) value.
func (w *Window) fieldText(field *Field) string {
	if w.mode != ModeBrowse {
		if text, ok := w.buffer[field.name()]; ok {
			return text
		}
		if w.mode != ModeEdit {
			return ""
		}
	}
	row, ok := w.CurrentRow()
	if !ok {
		return ""
	}
	return w.rowText(field, row)
}

// rowText formats one field's display text for an arbitrary row of the
// window's relation (the current row for the card fields, any buffered row
// for a detail grid line).
func (w *Window) rowText(field *Field, row types.Tuple) string {
	var v types.Value
	if field.computed() {
		computed, err := field.Value.Eval(row)
		if err != nil {
			return "#ERR"
		}
		v = computed
	} else {
		v = row[field.Column]
	}
	if v.IsNull() {
		return ""
	}
	text := v.String()
	switch field.Def.Format {
	case "upper":
		text = strings.ToUpper(text)
	case "lower":
		text = strings.ToLower(text)
	}
	return text
}

// SetFieldText types a value into a field programmatically. In browse mode it
// switches the window into edit mode over the current row first.
func (w *Window) SetFieldText(name, text string) error {
	field, ok := w.form.fieldByName(name)
	if !ok {
		return fmt.Errorf("core: form %q has no field %q", w.form.Def.Name, name)
	}
	if w.mode == ModeBrowse {
		if err := w.beginEdit(); err != nil {
			return err
		}
	}
	if w.mode != ModeQuery && (field.Def.ReadOnly || field.computed()) {
		return fmt.Errorf("core: field %q is read-only", name)
	}
	w.buffer[field.name()] = text
	w.dirty = true
	return nil
}

// beginEdit switches to edit mode over the current row, loading the edit
// buffer from it.
func (w *Window) beginEdit() error {
	if w.form.readOnly() {
		return fmt.Errorf("core: form %q is read-only (its view cannot be updated)", w.form.Def.Name)
	}
	if _, ok := w.CurrentRow(); !ok {
		return fmt.Errorf("core: no current row to edit")
	}
	w.mode = ModeEdit
	w.buffer = map[string]string{}
	for _, field := range w.form.Fields {
		if field.computed() {
			continue
		}
		w.buffer[field.name()] = w.fieldTextFromRow(field)
	}
	w.dirty = false
	w.setStatus("editing row %d of %d", w.cursor+1, w.RowCount())
	w.Render()
	return nil
}

func (w *Window) fieldTextFromRow(field *Field) string {
	row, ok := w.CurrentRow()
	if !ok || field.Column < 0 {
		return ""
	}
	v := row[field.Column]
	if v.IsNull() {
		return ""
	}
	return v.String()
}

// BeginInsert switches to insert mode with an empty buffer pre-filled from
// field defaults.
func (w *Window) BeginInsert() error {
	if w.form.readOnly() {
		return fmt.Errorf("core: form %q is read-only (its view cannot be updated)", w.form.Def.Name)
	}
	w.mode = ModeInsert
	w.buffer = map[string]string{}
	blank := make(types.Tuple, w.form.Schema.Len())
	for i := range blank {
		blank[i] = types.Null()
	}
	for _, field := range w.form.Fields {
		if field.Default == nil || field.computed() {
			continue
		}
		if v, err := field.Default.Eval(blank); err == nil && !v.IsNull() {
			w.buffer[field.name()] = v.String()
		}
	}
	w.focus = w.firstEditableField()
	w.dirty = false
	w.setStatus("inserting a new row; press F6 to save, ESC to cancel")
	w.Render()
	return nil
}

// beginQuery switches to query-by-form mode with a blank buffer.
func (w *Window) beginQuery() {
	w.mode = ModeQuery
	w.buffer = map[string]string{}
	w.focus = 0
	w.setStatus("enter query patterns; press F4 to execute, ESC to cancel")
	w.Render()
}

// executeQuery leaves query mode and runs the patterns typed into the buffer.
func (w *Window) executeQuery() error {
	if w.mode != ModeQuery {
		return fmt.Errorf("core: the window is not in query mode")
	}
	patterns := map[string]string{}
	for name, text := range w.buffer {
		if strings.TrimSpace(text) != "" {
			patterns[name] = text
		}
	}
	w.mode = ModeBrowse
	w.buffer = map[string]string{}
	if err := w.Query(patterns); err != nil {
		return err
	}
	w.setStatus("%d row(s) selected", w.RowCount())
	w.Render()
	return nil
}

// cancel leaves edit, insert or query mode, discarding the buffer.
func (w *Window) cancel() {
	w.mode = ModeBrowse
	w.buffer = map[string]string{}
	w.dirty = false
	w.setStatus("cancelled")
	w.Render()
}

// firstEditableField returns the first field that accepts input.
func (w *Window) firstEditableField() int {
	for i, field := range w.form.Fields {
		if !field.Def.ReadOnly && !field.computed() {
			return i
		}
	}
	return 0
}

// --- saving and deleting -------------------------------------------------------

// candidateRow builds the full-width row the current buffer describes: for
// updates it starts from the current row, for inserts from NULLs and
// defaults. It is what validation rules and triggers are evaluated against.
func (w *Window) candidateRow() (types.Tuple, error) {
	var row types.Tuple
	if w.mode == ModeInsert {
		row = make(types.Tuple, w.form.Schema.Len())
		for i := range row {
			row[i] = types.Null()
		}
	} else {
		current, ok := w.CurrentRow()
		if !ok {
			return nil, fmt.Errorf("core: no current row")
		}
		row = current.Clone()
	}
	for _, field := range w.form.Fields {
		if field.computed() {
			continue
		}
		text, edited := w.buffer[field.name()]
		if !edited {
			continue
		}
		v, err := types.ParseAs(text, field.Kind)
		if err != nil {
			return nil, fmt.Errorf("core: field %q: %v", field.name(), err)
		}
		row[field.Column] = v
	}
	// Defaults for inserts where nothing was typed.
	if w.mode == ModeInsert {
		for _, field := range w.form.Fields {
			if field.computed() || field.Default == nil || field.Column < 0 {
				continue
			}
			if !row[field.Column].IsNull() {
				continue
			}
			v, err := field.Default.Eval(row)
			if err != nil {
				return nil, fmt.Errorf("core: default for %q: %v", field.name(), err)
			}
			row[field.Column] = v
		}
	}
	return row, nil
}

// validate checks required fields, per-field validation rules and the form's
// before-triggers for the given event against the candidate row.
func (w *Window) validate(row types.Tuple, event string) error {
	for _, field := range w.form.Fields {
		if field.computed() {
			continue
		}
		value := row[field.Column]
		if field.Def.Required && value.IsNull() {
			return fmt.Errorf("core: field %q is required", field.name())
		}
		if field.Validate != nil {
			// SQL CHECK semantics: a rule that evaluates to NULL (because an
			// operand is NULL) does not reject the row; only FALSE does.
			result, err := field.Validate.Eval(row)
			if err != nil {
				return fmt.Errorf("core: validating %q: %v", field.name(), err)
			}
			if !result.IsNull() && !(result.Kind() == types.KindBool && result.Bool()) {
				msg := field.Def.Message
				if msg == "" {
					msg = fmt.Sprintf("value %q is not allowed for %s", value.String(), field.name())
				}
				return fmt.Errorf("core: %s", msg)
			}
		}
	}
	return w.runTriggers(event, row)
}

// runTriggers evaluates the form's before-triggers for the given event.
func (w *Window) runTriggers(event string, row types.Tuple) error {
	for _, trigger := range w.form.Triggers {
		if trigger.Def.Event != event {
			continue
		}
		// As with field validation, a check that evaluates to NULL passes.
		result, err := trigger.Check.Eval(row)
		if err != nil {
			return fmt.Errorf("core: trigger before %s: %v", event, err)
		}
		if !result.IsNull() && !(result.Kind() == types.KindBool && result.Bool()) {
			msg := trigger.Def.Message
			if msg == "" {
				msg = fmt.Sprintf("%s is not allowed for this row", event)
			}
			return fmt.Errorf("core: %s", msg)
		}
	}
	return nil
}

// Save writes the edit or insert buffer through the bound relation (via the
// engine, so updatable-view translation and constraints apply), refreshes the
// window and notifies the window manager so other windows on the same world
// are refreshed too.
func (w *Window) Save() error {
	if w.form.readOnly() {
		return fmt.Errorf("core: form %q is read-only", w.form.Def.Name)
	}
	if w.mode != ModeEdit && w.mode != ModeInsert {
		return fmt.Errorf("core: nothing to save (not editing)")
	}
	event := "update"
	if w.mode == ModeInsert {
		event = "insert"
	}
	row, err := w.candidateRow()
	if err != nil {
		w.setError(err)
		return err
	}
	if err := w.validate(row, event); err != nil {
		w.setError(err)
		return err
	}
	var statement string
	var binds map[string]types.Value
	if w.mode == ModeInsert {
		statement, binds, err = w.insertStatement(row)
	} else {
		statement, binds, err = w.updateStatement(row)
	}
	if err != nil {
		w.setError(err)
		return err
	}
	if statement == "" {
		w.cancel()
		w.setStatus("no changes to save")
		return nil
	}
	res, err := w.execPrepared(statement, binds)
	if err != nil {
		w.setError(err)
		return err
	}
	w.stats.Saves++
	w.mode = ModeBrowse
	w.buffer = map[string]string{}
	w.dirty = false
	w.setStatus("%d row(s) saved", res.RowsAffected)
	if err := w.Refresh(); err != nil {
		return err
	}
	w.notifyWrite()
	return nil
}

// execPrepared runs a parameterized write through the window's prepared-
// statement cache: the text identifies the shape, the binds carry this save's
// values. Since writes are planned like reads, the shape's plan — target
// resolution, view translation and the key predicate's index access path —
// is built once at prepare and only rebound per save. Through a remote
// source the same call is one Bind and one Execute round trip.
func (w *Window) execPrepared(statement string, binds map[string]types.Value) (ExecSummary, error) {
	stmt, err := w.preparedFor(statement)
	if err != nil {
		return ExecSummary{}, err
	}
	for name, value := range binds {
		if err := stmt.BindNamed(name, value); err != nil {
			return ExecSummary{}, err
		}
	}
	return stmt.Exec()
}

// insertStatement builds the parameterized INSERT for the candidate row,
// supplying only the form's bound columns. Rows that fill the same fields
// share one prepared statement; only the bound values differ.
func (w *Window) insertStatement(row types.Tuple) (string, map[string]types.Value, error) {
	var cols, vals []string
	binds := map[string]types.Value{}
	for _, field := range w.form.Fields {
		if field.computed() {
			continue
		}
		v := row[field.Column]
		if v.IsNull() {
			continue // let table defaults / NULL apply
		}
		name := w.form.Schema.Columns[field.Column].Name
		param := "v_" + strings.ToLower(name)
		cols = append(cols, name)
		vals = append(vals, "@"+param)
		binds[param] = v
	}
	if len(cols) == 0 {
		return "", nil, fmt.Errorf("core: the new row is empty")
	}
	return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
		w.form.Relation, strings.Join(cols, ", "), strings.Join(vals, ", ")), binds, nil
}

// updateStatement builds the parameterized UPDATE for the changed fields of
// the current row, addressed by the form's key.
func (w *Window) updateStatement(row types.Tuple) (string, map[string]types.Value, error) {
	current, ok := w.CurrentRow()
	if !ok {
		return "", nil, fmt.Errorf("core: no current row")
	}
	var sets []string
	binds := map[string]types.Value{}
	for _, field := range w.form.Fields {
		if field.computed() || field.Def.ReadOnly {
			continue
		}
		if row[field.Column].Equal(current[field.Column]) {
			continue
		}
		name := w.form.Schema.Columns[field.Column].Name
		param := "s_" + strings.ToLower(name)
		sets = append(sets, fmt.Sprintf("%s = @%s", name, param))
		binds[param] = row[field.Column]
	}
	if len(sets) == 0 {
		return "", nil, nil
	}
	where, err := w.keyPredicate(current, binds)
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("UPDATE %s SET %s WHERE %s", w.form.Relation, strings.Join(sets, ", "), where), binds, nil
}

// keyPredicate renders "key1 = @k_key1 AND key2 = @k_key2" for the given row,
// adding the key values to binds.
func (w *Window) keyPredicate(row types.Tuple, binds map[string]types.Value) (string, error) {
	var parts []string
	for _, pos := range w.form.Key {
		v := row[pos]
		if v.IsNull() {
			return "", fmt.Errorf("core: key column %q is NULL", w.form.Schema.Columns[pos].Name)
		}
		name := w.form.Schema.Columns[pos].Name
		param := "k_" + strings.ToLower(name)
		parts = append(parts, fmt.Sprintf("%s = @%s", name, param))
		binds[param] = v
	}
	return strings.Join(parts, " AND "), nil
}

// deleteCurrent deletes the row under the cursor through the bound relation.
func (w *Window) deleteCurrent() error {
	if w.form.readOnly() {
		return fmt.Errorf("core: form %q is read-only", w.form.Def.Name)
	}
	current, ok := w.CurrentRow()
	if !ok {
		return fmt.Errorf("core: no current row to delete")
	}
	if err := w.runTriggers("delete", current); err != nil {
		w.setError(err)
		return err
	}
	binds := map[string]types.Value{}
	where, err := w.keyPredicate(current, binds)
	if err != nil {
		w.setError(err)
		return err
	}
	res, err := w.execPrepared(fmt.Sprintf("DELETE FROM %s WHERE %s", w.form.Relation, where), binds)
	if err != nil {
		w.setError(err)
		return err
	}
	w.stats.Deletes++
	w.setStatus("%d row(s) deleted", res.RowsAffected)
	if err := w.Refresh(); err != nil {
		return err
	}
	w.notifyWrite()
	return nil
}

// notifyWrite tells the window manager this window wrote its base table so
// that the other windows reading that table refresh.
func (w *Window) notifyWrite() {
	if w.wm == nil {
		return
	}
	w.wm.propagateChange(w.form.BaseTable, w)
}

// computed reports whether the field is display-only.
func (f *Field) computed() bool { return f.Def.Computed }
