package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// TestAggregateFoldAllocatesNothingPerRow counts what an aggregate over a
// base table costs per visible row. The aggregate folds each visible
// version inside the scan's loop through one reused tuple and decodes only
// the columns it names, so the TEXT customer column, which none of the
// queries name, is skipped in the payload, and a global aggregate looks no
// group up. Decoding each row into its own tuple, as the scan's Next does,
// allocated 2 objects per visible row (the tuple and the customer string).
func TestAggregateFoldAllocatesNothingPerRow(t *testing.T) {
	const rows = 10000
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	fillOrders(t, s, rows)
	queries := []struct{ name, text string }{
		{"seq scan", "SELECT COUNT(*), SUM(total), MIN(qty), MAX(total) FROM orders"},
		{"index range", "SELECT COUNT(*), SUM(total), MIN(qty), MAX(total) FROM orders WHERE id >= 0"},
		{"seq scan", "SELECT qty, COUNT(*), SUM(total), MIN(id), MAX(total) FROM orders GROUP BY qty"},
		{"index range", "SELECT qty, COUNT(*), SUM(total), MIN(id), MAX(total) FROM orders WHERE id >= 0 GROUP BY qty"},
	}
	for _, q := range queries {
		st, err := s.Prepare(q.text)
		if err != nil {
			t.Fatal(err)
		}
		if plan := st.ExplainPlan(); !strings.Contains(plan, q.name) {
			t.Fatalf("%s is not a %s:\n%s", q.text, q.name, plan)
		}
		var count int64
		allocs := testing.AllocsPerRun(5, func() {
			cursor, err := st.Query()
			if err != nil {
				t.Fatal(err)
			}
			count = 0
			for cursor.Next() {
				count += cursor.Row()[len(cursor.Row())-4].Int()
			}
			if err := cursor.Err(); err != nil {
				t.Fatal(err)
			}
		})
		st.Close()
		if count != rows {
			t.Fatalf("%s counted %d rows, want %d", q.text, count, rows)
		}
		perRow := allocs / rows
		t.Logf("%s: %.0f allocations, %.4f per visible row", q.text, allocs, perRow)
		if perRow >= 0.01 {
			t.Errorf("%s allocates %.4f objects per visible row, want under 0.01", q.text, perRow)
		}
	}
}

// TestAggregateFoldMatchesMaterialisedRows is a generated differential test:
// each seed fills a table with every column kind and NULLs, updates and
// deletes some rows so that dead versions sit beside live ones, and runs
// random aggregates — with and without GROUP BY, with residual filters, on
// the sequential and the index-range path — against the table, where the
// aggregate folds stored rows, and against a view over it, where the
// aggregate reads the decoded rows of a projection. Both must give the same
// rows, or fail with the same error. Seeds are logged in every failure.
func TestAggregateFoldMatchesMaterialisedRows(t *testing.T) {
	cols := []string{"i", "f", "s", "b", "d"}
	aggs := func(rng *rand.Rand) []string {
		var out []string
		for n := 1 + rng.Intn(4); n > 0; n-- {
			col := cols[rng.Intn(len(cols))]
			switch rng.Intn(7) {
			case 0:
				out = append(out, "COUNT(*)")
			case 1:
				out = append(out, "COUNT("+col+")")
			case 2:
				out = append(out, "MIN("+col+")")
			case 3:
				out = append(out, "MAX("+col+")")
			case 4:
				// SUM of a TEXT, BOOL or DATE column fails, on both paths.
				out = append(out, "SUM("+[]string{"i", "f", "i", "f", col}[rng.Intn(5)]+")")
			case 5:
				out = append(out, "AVG("+[]string{"i", "f"}[rng.Intn(2)]+")")
			default:
				out = append(out, "SUM(i * 2 + id)")
			}
		}
		return out
	}
	filters := []string{
		"i > 0", "f < 10.5", "s LIKE 'a%'", "b = TRUE", "d IS NULL", "s IS NOT NULL AND i < 100",
		"COALESCE(i, 0) + id > 150", "NOT b OR f IS NULL", "d > '1983-06-01'", "i IN (1, 2, 3, 50)",
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := OpenMemory()
		s := db.Session()
		if _, err := s.ExecuteScript(`CREATE TABLE k (id INT PRIMARY KEY, i INT, f FLOAT, s TEXT, b BOOL, d DATE);
CREATE VIEW kv AS SELECT * FROM k;`); err != nil {
			t.Fatal(err)
		}
		ins, err := s.Prepare("INSERT INTO k VALUES (?, ?, ?, ?, ?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		maybe := func(v types.Value) types.Value {
			if rng.Intn(5) == 0 {
				return types.Null()
			}
			return v
		}
		const rows = 300
		for id := 0; id < rows; id++ {
			// FLOAT values are quarters, so sums are exact in either order.
			if _, err := ins.Exec(types.NewInt(int64(id)),
				maybe(types.NewInt(int64(rng.Intn(200)-50))),
				maybe(types.NewFloat(float64(rng.Intn(400)-100)/4)),
				maybe(types.NewString(string(rune('a'+rng.Intn(4)))+strings.Repeat("x", rng.Intn(3)))),
				maybe(types.NewBool(rng.Intn(2) == 0)),
				maybe(types.NewDate(1983, time.Month(1+rng.Intn(12)), 1+rng.Intn(28)))); err != nil {
				t.Fatal(err)
			}
		}
		ins.Close()
		if _, err := s.ExecuteScript(`UPDATE k SET i = i + 1, s = 'u' WHERE id % 7 = 0;
DELETE FROM k WHERE id % 11 = 0;`); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 40; q++ {
			selected := aggs(rng)
			var where []string
			if rng.Intn(2) == 0 {
				where = append(where, fmt.Sprintf("id >= %d", rng.Intn(rows)))
			}
			if rng.Intn(3) != 0 {
				where = append(where, filters[rng.Intn(len(filters))])
			}
			group := ""
			if rng.Intn(2) == 0 {
				g := cols[rng.Intn(len(cols))]
				selected = append([]string{g}, selected...)
				group = " GROUP BY " + g
			}
			tail := ""
			if len(where) > 0 {
				tail = " WHERE " + strings.Join(where, " AND ")
			}
			tail += group
			list := strings.Join(selected, ", ")
			folded, foldErr := s.Query("SELECT " + list + " FROM k" + tail)
			built, builtErr := s.Query("SELECT " + list + " FROM kv" + tail)
			if (foldErr == nil) != (builtErr == nil) || (foldErr != nil && foldErr.Error() != builtErr.Error()) {
				t.Fatalf("seed %d: SELECT %s FROM k%s: fold error %v, materialised error %v", seed, list, tail, foldErr, builtErr)
			}
			if foldErr != nil {
				continue
			}
			if got, want := resultText(folded), resultText(built); got != want {
				t.Fatalf("seed %d: SELECT %s FROM k%s:\nfold         %s\nmaterialised %s", seed, list, tail, got, want)
			}
		}
		s.Close()
		db.Close()
	}
}

// resultText renders a result's rows with each value's kind, so an INT and
// a FLOAT of the same number differ.
func resultText(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(&b, "%s:%s ", v.Kind(), v)
		}
		b.WriteString("| ")
	}
	return b.String()
}
