package core

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// bigTableForm is a browse form over the pager tests' table: keyed and
// ordered by id, so the window pages by keyset.
const bigTableForm = `
form t_form on t
  title "T"
  size 60 12
  key id
  field id   at 2 10 width 8  label "Id"
  field grp  at 3 10 width 8  label "Grp"
  field name at 4 10 width 14 label "Name"
  order by id
end
`

// bigTableEnv creates a database with table t of n rows (id 1..n) and
// compiles the browse form over it.
func bigTableEnv(t *testing.T, n int) (*engine.Database, *Form) {
	t.Helper()
	db := engine.OpenMemory()
	s := db.Session()
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Prepare("INSERT INTO t VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for i := 1; i <= n; i++ {
		rows = append(rows, []types.Value{
			types.NewInt(int64(i)), types.NewInt(int64(i % 7)), types.NewString(fmt.Sprintf("row-%d", i)),
		})
	}
	if _, err := st.ExecBatch(rows); err != nil {
		t.Fatal(err)
	}
	st.Close()
	forms, err := NewCompiler(db).CompileSource(bigTableForm)
	if err != nil {
		t.Fatal(err)
	}
	return db, forms[0]
}

// pagerOver builds a bare pager over the table, paging by id.
func pagerOver(db *engine.Database, pageSize int) (*Pager, *Stats) {
	stats := &Stats{}
	src := NewEngineSource(db.Session())
	p := newPager(src.Prepare, stats)
	p.configure("t", nil, nil, []pagerKey{{column: "id", pos: 0}}, true, pageSize)
	return p, stats
}

func rowID(t *testing.T, p *Pager, abs int) int {
	t.Helper()
	row, ok := p.row(abs)
	if !ok {
		start, end := buffered(p)
		t.Fatalf("row %d is not buffered (buffer [%d,%d))", abs, start, end)
	}
	return int(row[0].Int())
}

// TestPagerForwardBackward pages a bare pager across a 500-row table in both
// directions and to both ends, checking every position resolves to the right
// row while the fetch volume stays O(page), not O(table).
func TestPagerForwardBackward(t *testing.T) {
	const n, page = 500, 10
	db, _ := bigTableEnv(t, n)
	defer db.Close()
	p, stats := pagerOver(db, page)

	if err := p.refresh(nil, -1); err != nil {
		t.Fatal(err)
	}
	if p.total != n {
		t.Fatalf("total = %d, want %d", p.total, n)
	}
	if got := rowID(t, p, 0); got != 1 {
		t.Fatalf("first row id = %d", got)
	}
	if stats.RowsFetched > uint64(page+1) {
		t.Fatalf("refresh fetched %d rows, want <= %d (page + count)", stats.RowsFetched, page+1)
	}

	// Walk forward page by page.
	for _, target := range []int{page - 1, page, 3*page - 1, 3 * page} {
		pos, err := p.seek(target)
		if err != nil {
			t.Fatal(err)
		}
		if pos != target {
			t.Fatalf("Seek(%d) landed on %d", target, pos)
		}
		if got := rowID(t, p, target); got != target+1 {
			t.Fatalf("row %d id = %d, want %d", target, got, target+1)
		}
	}

	// Jump to the end: one reversed page, not a 500-row walk.
	before := stats.RowsFetched
	pos, err := p.seekLast()
	if err != nil {
		t.Fatal(err)
	}
	if pos != n-1 {
		t.Fatalf("SeekLast = %d, want %d", pos, n-1)
	}
	if got := rowID(t, p, n-1); got != n {
		t.Fatalf("last row id = %d, want %d", got, n)
	}
	if fetched := stats.RowsFetched - before; fetched > uint64(2*page) {
		t.Fatalf("SeekLast fetched %d rows, want O(page)", fetched)
	}

	// Walk backward off the buffered range.
	start, _ := buffered(p)
	target := start - 3
	pos, err = p.seek(target)
	if err != nil {
		t.Fatal(err)
	}
	if pos != target || rowID(t, p, target) != target+1 {
		t.Fatalf("backward Seek(%d) = %d (id %d)", target, pos, rowID(t, p, pos))
	}

	// And all the way home: first page again, O(page).
	before = stats.RowsFetched
	pos, err = p.seek(0)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 0 || rowID(t, p, 0) != 1 {
		t.Fatalf("Seek(0) = %d (id %d)", pos, rowID(t, p, 0))
	}
	if fetched := stats.RowsFetched - before; fetched > uint64(2*page) {
		t.Fatalf("Seek(0) fetched %d rows, want O(page)", fetched)
	}
	if stats.RowsFetched > uint64(12*page) {
		t.Fatalf("the whole walk fetched %d rows; paging should stay far below the %d-row table", stats.RowsFetched, n)
	}
}

// TestPagerMutatedMidBrowse deletes and inserts rows while the pager is
// positioned mid-table, then refreshes anchored at the current row: the
// pager must re-count, keep the cursor's row (or its successor when it was
// deleted), and keep paging correctly — all in O(page) fetches.
func TestPagerMutatedMidBrowse(t *testing.T) {
	const n, page = 300, 10
	db, _ := bigTableEnv(t, n)
	defer db.Close()
	s := db.Session()
	p, _ := pagerOver(db, page)

	if err := p.refresh(nil, -1); err != nil {
		t.Fatal(err)
	}
	pos, err := p.seek(149) // id 150
	if err != nil || pos != 149 {
		t.Fatalf("seek: pos=%d err=%v", pos, err)
	}
	anchor, _ := p.row(149)

	// Delete the anchored row and a range ahead of it; insert new rows at the end.
	if _, err := s.Execute("DELETE FROM t WHERE id = 150"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("DELETE FROM t WHERE id > 160 AND id <= 170"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("INSERT INTO t VALUES (1000, 0, 'late')"); err != nil {
		t.Fatal(err)
	}

	if err := p.refresh(anchor, 149); err != nil {
		t.Fatal(err)
	}
	if want := n - 11 + 1; p.total != want {
		t.Fatalf("total after mutation = %d, want %d", p.total, want)
	}
	// The anchor (id 150) is gone: the page re-anchors on its successor.
	pos, err = p.seek(149)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowID(t, p, pos); got != 151 {
		t.Fatalf("row under cursor after delete = id %d, want 151 (the successor)", got)
	}
	// Paging forward skips the deleted range.
	pos, err = p.seek(pos + 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowID(t, p, pos); got != 171 {
		t.Fatalf("ten rows on = id %d, want 171 (160 -> 171 skips the deleted range)", got)
	}
	// The late insert is reachable at the end.
	pos, err = p.seekLast()
	if err != nil {
		t.Fatal(err)
	}
	if got := rowID(t, p, pos); got != 1000 {
		t.Fatalf("last row = id %d, want 1000", got)
	}
}

// TestPagerReprepairesAfterDDL is the staleness regression: a schema change
// (CREATE INDEX bumps the catalog version) lands between two page fetches.
// The keyset statements were prepared before the change; serving their
// cached plans unchecked would be a stale read. The engine must re-prepare
// them, and paging must keep returning correct rows.
func TestPagerReprepairesAfterDDL(t *testing.T) {
	const n, page = 200, 10
	db, _ := bigTableEnv(t, n)
	defer db.Close()
	p, _ := pagerOver(db, page)

	if err := p.refresh(nil, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.seek(50); err != nil {
		t.Fatal(err)
	}

	misses := db.Stats().PlanCacheMisses
	if _, err := db.Session().Execute("CREATE INDEX t_grp ON t (grp)"); err != nil {
		t.Fatal(err)
	}

	// Every pager shape is now stale; the next fetches must replan, not
	// serve the pre-DDL skeletons.
	pos, err := p.seek(120)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowID(t, p, pos); got != 121 {
		t.Fatalf("post-DDL forward page: id = %d, want 121", got)
	}
	pos, err = p.seekLast()
	if err != nil {
		t.Fatal(err)
	}
	if got := rowID(t, p, pos); got != n {
		t.Fatalf("post-DDL last page: id = %d, want %d", got, n)
	}
	if db.Stats().PlanCacheMisses <= misses {
		t.Fatalf("no plans were recompiled after the catalog version changed")
	}
}

// TestWindowPagedBrowse drives a window over a 2000-row table through the
// keyboard model: the initial refresh, page-downs, End and Home must each
// fetch O(page) rows while the status line keeps reporting exact positions.
func TestWindowPagedBrowse(t *testing.T) {
	const n = 2000
	db, form := bigTableEnv(t, n)
	defer db.Close()
	m := NewManager(db, 100, 30)
	w, err := m.Open(form, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != n {
		t.Fatalf("RowCount = %d, want %d", w.RowCount(), n)
	}
	budget := uint64(w.bufferPageSize() + 1) // one buffer page + the count row
	if got := w.Stats().RowsFetched; got > budget {
		t.Fatalf("opening fetched %d rows over a %d-row table, want <= %d", got, n, budget)
	}

	// Page down a few times.
	for i := 0; i < 5; i++ {
		if err := w.MoveCursor(w.pageSize()); err != nil {
			t.Fatal(err)
		}
	}
	row, _ := w.CurrentRow()
	if got := int(row[0].Int()); got != 5*w.pageSize()+1 {
		t.Fatalf("after 5 page-downs: id = %d, want %d", got, 5*w.pageSize()+1)
	}

	// End jumps to the last row without walking the table.
	before := w.Stats().RowsFetched
	if err := w.lastRow(); err != nil {
		t.Fatal(err)
	}
	if w.Cursor() != n-1 {
		t.Fatalf("End: cursor = %d, want %d", w.Cursor(), n-1)
	}
	row, _ = w.CurrentRow()
	if got := int(row[0].Int()); got != n {
		t.Fatalf("End: id = %d, want %d", got, n)
	}
	if fetched := w.Stats().RowsFetched - before; fetched > budget {
		t.Fatalf("End fetched %d rows, want <= %d", fetched, budget)
	}

	// Home comes back the same way.
	if err := w.firstRow(); err != nil {
		t.Fatal(err)
	}
	row, _ = w.CurrentRow()
	if w.Cursor() != 0 || int(row[0].Int()) != 1 {
		t.Fatalf("Home: cursor=%d id=%d", w.Cursor(), row[0].Int())
	}

	// A refresh mid-table re-anchors instead of re-reading from the top.
	if _, err := w.pager.seek(n / 2); err != nil {
		t.Fatal(err)
	}
	w.cursor = n / 2
	before = w.Stats().RowsFetched
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if fetched := w.Stats().RowsFetched - before; fetched > budget {
		t.Fatalf("mid-table refresh fetched %d rows, want <= %d", fetched, budget)
	}
	row, _ = w.CurrentRow()
	if got := int(row[0].Int()); got != n/2+1 {
		t.Fatalf("after anchored refresh: id = %d, want %d", got, n/2+1)
	}
	if !strings.Contains(w.Screen().String(), fmt.Sprintf("row %d of %d", n/2+1, n)) {
		t.Errorf("status line should report the absolute position")
	}
}

// TestWindowRemotePagedBrowse opens the same window over a wire connection:
// the pager's page fetches become page-sized Run round trips against the
// server, and the server streams O(page) rows per navigation step.
func TestWindowRemotePagedBrowse(t *testing.T) {
	const n = 1500
	db, form := bigTableEnv(t, n)
	defer db.Close()

	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()

	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	m := NewManager(db, 100, 30)
	w, err := m.OpenOn(form, NewRemoteSource(conn), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != n {
		t.Fatalf("remote RowCount = %d, want %d", w.RowCount(), n)
	}
	budget := uint64(w.bufferPageSize() + 1)
	if got := w.Stats().RowsFetched; got > budget {
		t.Fatalf("remote open fetched %d rows, want <= %d", got, budget)
	}
	sent := srv.Stats().RowsSent
	if sent > uint64(w.bufferPageSize()+1) {
		t.Fatalf("server sent %d rows for the opening page, want <= %d", sent, w.bufferPageSize()+1)
	}

	// Navigate: page down, End, a backward step — all remote, all O(page).
	if err := w.MoveCursor(w.pageSize()); err != nil {
		t.Fatal(err)
	}
	if err := w.lastRow(); err != nil {
		t.Fatal(err)
	}
	// A page is one Run that binds, executes and carries the rows back, plus
	// at most a CloseCursor when the page filled before the cursor ran dry.
	// Home then End repeats statements the walk has already prepared.
	if err := w.firstRow(); err != nil {
		t.Fatal(err)
	}
	queries, msgs := w.Stats().Queries, srv.Stats().MessagesServed
	if err := w.lastRow(); err != nil {
		t.Fatal(err)
	}
	queries, msgs = w.Stats().Queries-queries, srv.Stats().MessagesServed-msgs
	if queries == 0 || msgs > 2*queries {
		t.Fatalf("End ran %d page queries in %d messages, want <= 2 per page", queries, msgs)
	}
	row, _ := w.CurrentRow()
	if w.Cursor() != n-1 || int(row[0].Int()) != n {
		t.Fatalf("remote End: cursor=%d id=%d", w.Cursor(), row[0].Int())
	}
	if err := w.prevRow(); err != nil {
		t.Fatal(err)
	}
	row, _ = w.CurrentRow()
	if int(row[0].Int()) != n-1 {
		t.Fatalf("remote PrevRow: id = %d", row[0].Int())
	}
	if total := srv.Stats().RowsSent; total > uint64(6*w.bufferPageSize()) {
		t.Fatalf("the whole remote walk shipped %d rows; want O(pages), far below the %d-row table", total, n)
	}

	// Writes go through the same wire statements: edit the last row's name.
	if err := w.SetFieldText("name", "edited"); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Session().Query("SELECT name FROM t WHERE id = " + fmt.Sprint(n-1))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got != "edited" {
		t.Fatalf("remote save wrote %q", got)
	}
}

// TestKeylessFormKeepsOrderBy is the regression test for the materialise
// fallback: a form with a declared ORDER BY but no key (a view form with no
// key line) cannot page by keyset, but its ordering must still apply — the
// pre-pager windows always emitted it.
func TestKeylessFormKeepsOrderBy(t *testing.T) {
	db := engine.OpenMemory()
	defer db.Close()
	s := db.Session()
	if _, err := s.ExecuteScript(`
		CREATE TABLE scores (id INT PRIMARY KEY, points INT);
		CREATE VIEW score_view AS SELECT id, points FROM scores;
		INSERT INTO scores VALUES (1, 30), (2, 5), (3, 20);
	`); err != nil {
		t.Fatal(err)
	}
	forms, err := NewCompiler(db).CompileSource(`
form scores_form on score_view
  title "Scores"
  field id     width 6
  field points width 6
  order by points desc
end
`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(db, 80, 24)
	w, err := m.Open(forms[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i := 0; i < w.RowCount(); i++ {
		row, ok := w.pager.row(i)
		if !ok {
			t.Fatalf("row %d not available in materialise mode", i)
		}
		got = append(got, row[1].Int())
	}
	if fmt.Sprint(got) != "[30 20 5]" {
		t.Fatalf("keyless form rows = %v, want points descending [30 20 5]", got)
	}
}

// TestAnchoredRefreshBuffersAboveCursor is the regression test for the
// centered re-anchor: after a refresh deep in the table, the rows *above*
// the cursor that a grid displays (offset back to selection-visible+1) must
// be buffered too, not just the rows from the cursor down.
func TestAnchoredRefreshBuffersAboveCursor(t *testing.T) {
	const n, page = 400, 12
	db, _ := bigTableEnv(t, n)
	defer db.Close()
	p, _ := pagerOver(db, page)

	if err := p.refresh(nil, -1); err != nil {
		t.Fatal(err)
	}
	pos, err := p.seek(200)
	if err != nil || pos != 200 {
		t.Fatalf("seek: %d %v", pos, err)
	}
	anchor, _ := p.row(200)

	if err := p.refresh(anchor, 200); err != nil {
		t.Fatal(err)
	}
	start, end := buffered(p)
	if wantAbove := 200 - page/2; start > wantAbove {
		t.Errorf("buffer starts at %d; rows above the cursor (down to %d) must stay buffered for the visible window", start, wantAbove)
	}
	if end <= 200 {
		t.Errorf("buffer ends at %d; the cursor row must be buffered", end)
	}
	// The cursor position still maps to the anchored row.
	if got := rowID(t, p, 200); got != 201 {
		t.Errorf("row at cursor after anchored refresh = id %d, want 201", got)
	}
	// And rows above it are really servable.
	if got := rowID(t, p, 195); got != 196 {
		t.Errorf("row above cursor = id %d, want 196", got)
	}
}

// TestPagerWorkIndependentOfDepth is the mechanism behind "every keystroke is
// O(page)": on a 50 000-row table a keyset page in either direction, Home,
// End and an anchored refresh (its COUNT(*) included, which reads no row)
// each make the engine fetch about a page of rows from the buffer pool —
// Hits+Misses, one per row read — no matter how deep in the table the cursor
// stands, with and without a query-by-form range on the key column.
func TestPagerWorkIndependentOfDepth(t *testing.T) {
	const n, page = 50000, 20
	const budget = 2 * page // a page of rows, with slack for a refresh's two halves
	db, _ := bigTableEnv(t, n)
	defer db.Close()
	poolFetches := func(step func() error) uint64 {
		t.Helper()
		before := db.Stats().BufferPool
		if err := step(); err != nil {
			t.Fatal(err)
		}
		after := db.Stats().BufferPool
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	check := func(what string, depth int, fetched uint64) {
		t.Helper()
		if fetched > budget {
			t.Errorf("%s at row %d of %d fetched %d pool pages, want <= %d at any depth", what, depth, n, fetched, budget)
		}
	}

	for _, filterFrom := range []int{0, 1000} {
		p, _ := pagerOver(db, page)
		base := 0 // rows the filter hides below the window
		if filterFrom > 0 {
			p.configure("t", []string{"(id >= @q_id)"}, map[string]types.Value{"q_id": types.NewInt(int64(filterFrom))},
				[]pagerKey{{column: "id", pos: 0}}, true, page)
			base = filterFrom - 1
		}
		if err := p.refresh(nil, -1); err != nil {
			t.Fatal(err)
		}
		total := p.total
		if total != n-base {
			t.Fatalf("total = %d, want %d", total, n-base)
		}
		for _, depth := range []int{100, total / 2, total - 500} {
			anchor := types.Tuple{types.NewInt(int64(base + depth + 1)), types.Null(), types.Null()}
			check("anchored refresh", depth, poolFetches(func() error { return p.refresh(anchor, depth) }))
			if got := rowID(t, p, depth); got != base+depth+1 {
				t.Fatalf("row %d after the anchored refresh has id %d, want %d", depth, got, base+depth+1)
			}
			_, end := buffered(p)
			check("forward keyset page", depth, poolFetches(func() error { _, err := p.seek(end); return err }))
			if got := rowID(t, p, end); got != base+end+1 {
				t.Fatalf("row %d after the forward page has id %d", end, got)
			}
			start, _ := buffered(p)
			check("backward keyset page", depth, poolFetches(func() error { _, err := p.seek(start - 1); return err }))
			if got := rowID(t, p, start-1); got != base+start {
				t.Fatalf("row %d after the backward page has id %d", start-1, got)
			}
		}
		// Still deep in the table: Home, then End from the top.
		check("Home", total-500, poolFetches(func() error { _, err := p.seek(0); return err }))
		if got := rowID(t, p, 0); got != base+1 {
			t.Fatalf("Home landed on id %d", got)
		}
		check("End", 0, poolFetches(func() error { _, err := p.seekLast(); return err }))
		if got := rowID(t, p, total-1); got != n {
			t.Fatalf("End landed on id %d", got)
		}
	}
}

// buffered returns the buffered absolute range [start, end) — what can be
// served without fetching.
func buffered(p *Pager) (start, end int) { return p.bufStart, p.bufStart + len(p.buf) }
