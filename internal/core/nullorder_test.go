package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/types"
)

// nullDensities are the shares of NULLs the NULL-order tests draw: none, a
// third, half and all.
var nullDensities = []float64{0, 1.0 / 3, 0.5, 1}

// nullOrderDB creates table p (id, city, zip) of n rows whose city and zip
// are NULL with the given probability and otherwise drawn from a few values,
// so the order has long runs of ties and of NULLs. With index set, city is
// indexed, so a plan may read the order from the index instead of sorting.
func nullOrderDB(t *testing.T, rng *rand.Rand, n int, density float64, index bool) *engine.Database {
	t.Helper()
	db := engine.OpenMemory()
	s := db.Session()
	if _, err := s.Execute("CREATE TABLE p (id INT PRIMARY KEY, city TEXT, zip INT)"); err != nil {
		t.Fatal(err)
	}
	if index {
		if _, err := s.Execute("CREATE INDEX p_city ON p (city)"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Prepare("INSERT INTO p VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Value
	for id := 1; id <= n; id++ {
		city, zip := types.Null(), types.Null()
		if rng.Float64() >= density {
			city = types.NewString([]string{"Austin", "Boston", "Chicago"}[rng.Intn(3)])
		}
		if rng.Float64() >= density {
			zip = types.NewInt(int64(rng.Intn(3)))
		}
		rows = append(rows, []types.Value{types.NewInt(int64(id)), city, zip})
	}
	if _, err := st.ExecBatch(rows); err != nil {
		t.Fatal(err)
	}
	st.Close()
	return db
}

// nullOrderForm compiles a form over p keyed by id and ordered by order. Its
// window shows 4 rows a page, so the pager's buffer page is 12 rows.
func nullOrderForm(t *testing.T, db *engine.Database, order string) *Form {
	t.Helper()
	forms, err := NewCompiler(db).CompileSource(`
form p_form on p
  size 60 10
  key id
  field id   width 6
  field city width 10
  field zip  width 6
  order by ` + order + `
end
`)
	if err != nil {
		t.Fatal(err)
	}
	return forms[0]
}

// orderedIDs returns p's ids as SELECT … ORDER BY returns them.
func orderedIDs(t *testing.T, db *engine.Database, order string) []int64 {
	t.Helper()
	res, err := db.Session().Query("SELECT id FROM p ORDER BY " + order + ", id")
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, row := range res.Rows {
		ids = append(ids, row[0].Int())
	}
	return ids
}

// TestWindowOrderOracleThroughNulls is the generated order oracle: over
// seeded NULL densities, ascending and descending one- and two-column
// orders, with and without an index on the first order column, a window
// walks its result row by row forward and back, by PgDn and PgUp, by Home
// and End, refreshes anchored on NULL rows and then takes a seeded random
// walk of those keys. At every step the row under the cursor must be the row
// SELECT … ORDER BY puts at that position, and the window must count every
// row. It runs for a local and a remote window.
func TestWindowOrderOracleThroughNulls(t *testing.T) {
	const n = 90
	orders := []string{"city", "city desc", "city, zip", "city desc, zip", "city, zip desc", "city desc, zip desc"}
	for _, remote := range []bool{false, true} {
		seed := int64(1)
		for _, density := range nullDensities {
			for _, order := range orders {
				seed++
				name := fmt.Sprintf("remote=%v/density=%.2f/order=%s", remote, density, order)
				t.Run(name, func(t *testing.T) {
					t.Logf("order oracle: seed %d", seed)
					runOrderOracle(t, seed, n, density, order, remote)
				})
			}
		}
	}
}

func runOrderOracle(t *testing.T, seed int64, n int, density float64, order string, remote bool) {
	rng := rand.New(rand.NewSource(seed))
	db := nullOrderDB(t, rng, n, density, seed%2 == 0)
	form := nullOrderForm(t, db, order)
	want := orderedIDs(t, db, order)
	m := NewManager(db, 100, 30)
	src := NewEngineSource(db.Session())
	if remote {
		_, addr := serveRemote(t, db)
		conn, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		src = NewRemoteSource(conn)
	} else {
		t.Cleanup(func() { db.Close() })
	}
	w, err := m.OpenOn(form, src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, do func() error) {
		t.Helper()
		if err := do(); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, what, err)
		}
		if w.statusError {
			t.Fatalf("seed %d: %s: window status %q", seed, what, w.Status())
		}
		if got := w.RowCount(); got != n {
			t.Fatalf("seed %d: %s: the window counts %d rows, want %d", seed, what, got, n)
		}
		row, ok := w.CurrentRow()
		if !ok {
			t.Fatalf("seed %d: %s: no row under the cursor at %d", seed, what, w.Cursor())
		}
		if got := row[0].Int(); got != want[w.Cursor()] {
			t.Fatalf("seed %d: %s: position %d shows id %d, SELECT … ORDER BY has id %d there", seed, what, w.Cursor(), got, want[w.Cursor()])
		}
	}
	keys := func(script string) func() error { return func() error { return w.HandleScript(script) } }
	step("open", func() error { return nil })
	for w.Cursor() < n-1 {
		step("row-by-row forward", keys("<DOWN>"))
	}
	for w.Cursor() > 0 {
		step("row-by-row backward", keys("<UP>"))
	}
	for w.Cursor() < n-1 {
		step("PgDn", keys("<PGDN>"))
	}
	for w.Cursor() > 0 {
		step("PgUp", keys("<PGUP>"))
	}
	step("End", keys("<END>"))
	step("Home", keys("<HOME>"))
	// Sit on rows with a NULL in the order and refresh anchored there, then
	// move off them.
	for range n {
		row, ok := w.pager.row(w.Cursor())
		if ok && (row[1].IsNull() || row[2].IsNull()) && rng.Intn(3) == 0 {
			step("anchored refresh on a NULL row", w.Refresh)
			step("row after the refreshed NULL row", keys("<DOWN>"))
			step("row before it again", keys("<UP>"))
		}
		step("row-by-row forward", keys("<DOWN>"))
	}
	walk := []string{"<DOWN>", "<UP>", "<PGDN>", "<PGUP>", "<HOME>", "<END>", "refresh"}
	for i := 0; i < 60; i++ {
		if k := walk[rng.Intn(len(walk))]; k == "refresh" {
			step("random walk: anchored refresh", w.Refresh)
		} else {
			step("random walk: "+k, keys(k))
		}
	}
}

// TestPagerFetchesThroughNullsLinear is the mechanism test, counted and not
// timed: at every NULL density, a pager in a form's order scrolling row by
// row over N rows — to the end, then back to the top — fetches at most
// N·pageFactor/(pageFactor−1) rows plus one page each way.
func TestPagerFetchesThroughNullsLinear(t *testing.T) {
	const n, page = 1200, 24
	const budget = n*pageFactor/(pageFactor-1) + page
	for i, density := range nullDensities {
		for _, order := range []string{"city", "city desc"} {
			db := nullOrderDB(t, rand.New(rand.NewSource(int64(i+1))), n, density, false)
			stats := &Stats{}
			p := newPager(NewEngineSource(db.Session()).Prepare, stats)
			p.configure("p", nil, nil, nullOrderForm(t, db, order).order, page)
			if err := p.refresh(nil, -1); err != nil {
				t.Fatal(err)
			}
			for _, dir := range []struct{ from, to, by int }{{0, n - 1, 1}, {n - 1, 0, -1}} {
				before := stats.RowsFetched
				for pos := dir.from; pos != dir.to; {
					next, err := p.seek(pos + dir.by)
					if err != nil {
						t.Fatal(err)
					}
					if next != pos+dir.by {
						t.Fatalf("density %.2f, order by %s: seek(%d) reached %d", density, order, pos+dir.by, next)
					}
					pos = next
				}
				if fetched := stats.RowsFetched - before; fetched > budget {
					t.Errorf("density %.2f, order by %s: scrolling from %d to %d row by row fetched %d rows, want <= %d",
						density, order, dir.from, dir.to, fetched, budget)
				}
			}
			db.Close()
		}
	}
}

// TestPagerKeysetTexts builds the pager's SQL text. An order of key columns
// renders no NULL clause, so its texts, which the statement and plan caches
// key on, stay exactly these strings; an order over a nullable column
// renders the three NULL clause shapes, and a NULL anchor value binds no
// parameter.
func TestPagerKeysetTexts(t *testing.T) {
	id := pagerKey{column: "id", pos: 0}
	a, bDesc := pagerKey{column: "a", pos: 0}, pagerKey{column: "b", pos: 1, desc: true}
	city, cityDesc := pagerKey{column: "city", pos: 1, nullable: true}, pagerKey{column: "city", pos: 1, desc: true, nullable: true}
	anchor := types.Tuple{types.NewInt(7), types.NewString("Boston")}
	nullAnchor := types.Tuple{types.NewInt(7), types.Null()}
	shapes := func(keys []pagerKey, where []string, anchor types.Tuple) []string {
		p := newPager(nil, &Stats{})
		p.configure("t", where, map[string]types.Value{}, keys, 10)
		forward, _ := p.keyset(anchor, false, false)
		backward, _ := p.keyset(anchor, false, true)
		inclusive, _ := p.keyset(anchor, true, false)
		return []string{p.pageSQL(forward, false), p.pageSQL(backward, true), p.pageSQL(inclusive, false), p.countSQL()}
	}
	cases := []struct {
		name   string
		keys   []pagerKey
		where  []string
		anchor types.Tuple
		want   []string
	}{
		{"key id", []pagerKey{id}, nil, anchor, []string{
			"SELECT * FROM t WHERE ((id > @ks_0)) ORDER BY id",
			"SELECT * FROM t WHERE ((id < @ks_0)) ORDER BY id DESC",
			"SELECT * FROM t WHERE ((id >= @ks_0)) ORDER BY id",
			"SELECT COUNT(*) FROM t",
		}},
		{"key id under a query", []pagerKey{id}, []string{"(grp = @q_grp)"}, anchor, []string{
			"SELECT * FROM t WHERE (grp = @q_grp) AND ((id > @ks_0)) ORDER BY id",
			"SELECT * FROM t WHERE (grp = @q_grp) AND ((id < @ks_0)) ORDER BY id DESC",
			"SELECT * FROM t WHERE (grp = @q_grp) AND ((id >= @ks_0)) ORDER BY id",
			"SELECT COUNT(*) FROM t WHERE (grp = @q_grp)",
		}},
		{"key a, b desc", []pagerKey{a, bDesc}, nil, types.Tuple{types.NewInt(1), types.NewInt(2)}, []string{
			"SELECT * FROM t WHERE ((a > @ks_0) OR (a = @ks_0 AND b < @ks_1)) ORDER BY a, b DESC",
			"SELECT * FROM t WHERE ((a < @ks_0) OR (a = @ks_0 AND b > @ks_1)) ORDER BY a DESC, b",
			"SELECT * FROM t WHERE ((a > @ks_0) OR (a = @ks_0 AND b <= @ks_1)) ORDER BY a, b DESC",
			"SELECT COUNT(*) FROM t",
		}},
		{"city from a value", []pagerKey{city, id}, nil, anchor, []string{
			"SELECT * FROM t WHERE ((city > @ks_0) OR (city = @ks_0 AND id > @ks_1)) ORDER BY city, id",
			"SELECT * FROM t WHERE ((city < @ks_0) OR (city IS NULL) OR (city = @ks_0 AND id < @ks_1)) ORDER BY city DESC, id DESC",
			"SELECT * FROM t WHERE ((city > @ks_0) OR (city = @ks_0 AND id >= @ks_1)) ORDER BY city, id",
			"SELECT COUNT(*) FROM t",
		}},
		{"city from NULL", []pagerKey{city, id}, nil, nullAnchor, []string{
			"SELECT * FROM t WHERE ((city IS NOT NULL) OR (city IS NULL AND id > @ks_1)) ORDER BY city, id",
			"SELECT * FROM t WHERE ((city IS NULL AND id < @ks_1)) ORDER BY city DESC, id DESC",
			"SELECT * FROM t WHERE ((city IS NOT NULL) OR (city IS NULL AND id >= @ks_1)) ORDER BY city, id",
			"SELECT COUNT(*) FROM t",
		}},
		{"city desc from a value", []pagerKey{cityDesc, id}, nil, anchor, []string{
			"SELECT * FROM t WHERE ((city < @ks_0) OR (city IS NULL) OR (city = @ks_0 AND id > @ks_1)) ORDER BY city DESC, id",
			"SELECT * FROM t WHERE ((city > @ks_0) OR (city = @ks_0 AND id < @ks_1)) ORDER BY city, id DESC",
			"SELECT * FROM t WHERE ((city < @ks_0) OR (city IS NULL) OR (city = @ks_0 AND id >= @ks_1)) ORDER BY city DESC, id",
			"SELECT COUNT(*) FROM t",
		}},
		{"city desc from NULL", []pagerKey{cityDesc, id}, nil, nullAnchor, []string{
			"SELECT * FROM t WHERE ((city IS NULL AND id > @ks_1)) ORDER BY city DESC, id",
			"SELECT * FROM t WHERE ((city IS NOT NULL) OR (city IS NULL AND id < @ks_1)) ORDER BY city, id DESC",
			"SELECT * FROM t WHERE ((city IS NULL AND id >= @ks_1)) ORDER BY city DESC, id",
			"SELECT COUNT(*) FROM t",
		}},
	}
	for _, c := range cases {
		if got := shapes(c.keys, c.where, c.anchor); !slices.Equal(got, c.want) {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}

	p := newPager(nil, &Stats{})
	p.configure("t", nil, map[string]types.Value{"q_grp": types.NewInt(3)}, []pagerKey{city, id}, 10)
	_, binds := p.keyset(nullAnchor, false, false)
	if len(binds) != 2 || !binds["ks_1"].Equal(types.NewInt(7)) || !binds["q_grp"].Equal(types.NewInt(3)) {
		t.Errorf("binds from a NULL anchor = %v, want q_grp and ks_1 only", binds)
	}
}
