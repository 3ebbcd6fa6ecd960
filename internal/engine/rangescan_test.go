package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestIndexRangeMatchesSeqScanSort is a plan differential test: two tables
// hold the same rows, one with an index on k and one without, so the same
// range query streams from the index cursor on the first (no Sort node) and
// runs as seq scan + filter + sort on the second. Random bounds — absent,
// inclusive, exclusive, literal, parameter, two on one side — in both
// directions must produce the same k sequence and the same rows.
func TestIndexRangeMatchesSeqScanSort(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	s := db.Session()
	if _, err := s.ExecuteScript(`
		CREATE TABLE ix (id INT PRIMARY KEY, k INT);
		CREATE INDEX ix_k ON ix (k);
		CREATE TABLE sq (id INT PRIMARY KEY, k INT);`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	const rows, keySpace = 800, 300 // duplicates of k are common, and a few NULLs
	for id := 0; id < rows; id++ {
		k := fmt.Sprint(rng.Intn(keySpace))
		if rng.Intn(25) == 0 {
			k = "NULL"
		}
		for _, table := range []string{"ix", "sq"} {
			if _, err := s.Execute(fmt.Sprintf("INSERT INTO %s VALUES (%d, %s)", table, id, k)); err != nil {
				t.Fatal(err)
			}
		}
	}

	run := func(table, where, order string, args []types.Value) (plan string, ks []string, ids []int64) {
		t.Helper()
		st, err := s.Prepare(fmt.Sprintf("SELECT id, k FROM %s%s ORDER BY k%s", table, where, order))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		res, err := st.Exec(args...)
		if err != nil {
			t.Fatalf("%s%s%s %v: %v", table, where, order, args, err)
		}
		for _, row := range res.Rows {
			ids = append(ids, row[0].Int())
			ks = append(ks, row[1].String())
		}
		slices.Sort(ids) // rows that tie on k come in no promised order
		return st.ExplainPlan(), ks, ids
	}

	for round := 0; round < 300; round++ {
		var conds []string
		var args []types.Value
		bound := func(ops ...string) {
			v := rng.Intn(keySpace+40) - 20 // sometimes outside every key
			op := ops[rng.Intn(len(ops))]
			if rng.Intn(2) == 0 {
				conds = append(conds, fmt.Sprintf("k %s %d", op, v))
			} else {
				conds = append(conds, fmt.Sprintf("k %s ?", op))
				args = append(args, types.NewInt(int64(v)))
			}
		}
		for i := rng.Intn(3); i > 0; i-- { // 0, 1 or 2 lower bounds
			bound(">", ">=")
		}
		for i := rng.Intn(3); i > 0; i-- {
			bound("<", "<=")
		}
		where := ""
		if len(conds) > 0 {
			where = " WHERE " + strings.Join(conds, " AND ")
		}
		order := ""
		if rng.Intn(2) == 0 {
			order = " DESC"
		}
		ixPlan, ixKs, ixIDs := run("ix", where, order, args)
		sqPlan, sqKs, sqIDs := run("sq", where, order, args)
		if !strings.Contains(ixPlan, "index range scan on ix_k") || strings.Contains(ixPlan, "Sort") {
			t.Fatalf("ix%s%s should stream from the index:\n%s", where, order, ixPlan)
		}
		if !strings.Contains(sqPlan, "seq scan") || !strings.Contains(sqPlan, "Sort") {
			t.Fatalf("sq%s%s should be seq scan + sort:\n%s", where, order, sqPlan)
		}
		if !slices.Equal(ixKs, sqKs) {
			t.Fatalf("%s%s %v: k sequences differ\nindex:    %v\nseq+sort: %v", where, order, args, ixKs, sqKs)
		}
		if !slices.Equal(ixIDs, sqIDs) {
			t.Fatalf("%s%s %v: row sets differ\nindex:    %v\nseq+sort: %v", where, order, args, ixIDs, sqIDs)
		}
	}
}

// TestCountStarMatchesSelectStar holds COUNT(*) — answered from version
// headers, never decoding a row — to the rows SELECT * returns under the same
// snapshot, through both access paths, in the states where headers and rows
// could disagree: another session's uncommitted writes, the session's own,
// aborted inserts, and committed updates whose dead versions no vacuum has
// reclaimed yet.
func TestCountStarMatchesSelectStar(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	reader, writer := db.Session(), db.Session()
	if _, err := reader.Execute("CREATE TABLE c (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 100; id++ {
		if _, err := reader.Execute(fmt.Sprintf("INSERT INTO c VALUES (%d, 0)", id)); err != nil {
			t.Fatal(err)
		}
	}
	// check compares the two through a seq scan and through the primary-key
	// range, and returns the table's row count as s sees it.
	check := func(s *Session, when string) int {
		t.Helper()
		var whole int
		for _, where := range []string{"", " WHERE id >= 20", " WHERE id > 10 AND id < 150"} {
			count, err := s.Prepare("SELECT COUNT(*) FROM c" + where)
			if err != nil {
				t.Fatal(err)
			}
			wantPath := "seq scan"
			if where != "" {
				wantPath = "index range scan on c_pkey"
			}
			if plan := count.ExplainPlan(); !strings.Contains(plan, wantPath) || strings.Contains(plan, "filter") {
				t.Fatalf("COUNT(*)%s should be a %s with no residual filter:\n%s", where, wantPath, plan)
			}
			res, err := count.Exec()
			count.Close()
			if err != nil {
				t.Fatal(err)
			}
			rows, err := s.Query("SELECT * FROM c" + where)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(res.Rows[0][0].Int()); got != len(rows.Rows) {
				t.Errorf("%s: COUNT(*)%s = %d, SELECT * returns %d rows", when, where, got, len(rows.Rows))
			}
			if where == "" {
				whole = len(rows.Rows)
			}
		}
		return whole
	}
	exec := func(s *Session, text string) {
		t.Helper()
		if _, err := s.Execute(text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}

	if n := check(reader, "quiet table"); n != 100 {
		t.Fatalf("quiet table has %d rows", n)
	}
	exec(writer, "BEGIN")
	exec(writer, "INSERT INTO c VALUES (100, 1), (101, 1), (102, 1)")
	exec(writer, "UPDATE c SET v = 1 WHERE id >= 40 AND id < 60")
	exec(writer, "DELETE FROM c WHERE id < 5")
	if n := check(reader, "writer transaction open, another session"); n != 100 {
		t.Errorf("an uncommitted transaction changed another session's count to %d", n)
	}
	if n := check(writer, "writer transaction open, its own session"); n != 98 {
		t.Errorf("the writer sees %d rows of its own, want 98", n)
	}
	exec(writer, "ROLLBACK")
	if n := check(reader, "after the aborted inserts"); n != 100 {
		t.Errorf("an aborted transaction left %d rows", n)
	}
	// Thirty committed updates leave thirty dead versions, under the
	// on-commit vacuum's threshold: they stay in the heap and in the index.
	for id := 30; id < 60; id++ {
		exec(writer, fmt.Sprintf("UPDATE c SET v = 2 WHERE id = %d", id))
	}
	table, err := db.Catalog().GetTable("c")
	if err != nil {
		t.Fatal(err)
	}
	if table.DeadVersions() == 0 {
		t.Fatal("the updates left no dead version: nothing un-vacuumed to count past")
	}
	if n := check(reader, "dead versions not vacuumed"); n != 100 {
		t.Errorf("dead versions changed the count to %d", n)
	}
}

// TestUpdateOfScannedKeyTouchesEachRowOnce moves every matching row's indexed
// key forward, past rows the streaming index scan has yet to reach. The write
// collects its targets before the first write, so it must not meet its own
// new versions and update a row twice.
func TestUpdateOfScannedKeyTouchesEachRowOnce(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	s := db.Session()
	if _, err := s.ExecuteScript("CREATE TABLE h (id INT PRIMARY KEY, k INT); CREATE INDEX h_k ON h (k);"); err != nil {
		t.Fatal(err)
	}
	const rows, shift = 500, 7 // more than one leaf; the shift lands among later keys
	for id := 0; id < rows; id++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO h VALUES (%d, %d)", id, id)); err != nil {
			t.Fatal(err)
		}
	}
	upd, err := s.Prepare(fmt.Sprintf("UPDATE h SET k = k + %d WHERE k > ?", shift))
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	if plan := upd.ExplainPlan(); !strings.Contains(plan, "index range scan on h_k") {
		t.Fatalf("the update should scan the index it modifies:\n%s", plan)
	}
	res, err := upd.Exec(types.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != rows-100 {
		t.Errorf("updated %d rows, want %d", res.RowsAffected, rows-100)
	}
	got, err := s.Query("SELECT id, k FROM h ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != rows {
		t.Fatalf("%d rows after the update, want %d", len(got.Rows), rows)
	}
	for _, row := range got.Rows {
		id, want := row[0].Int(), row[0].Int()
		if id > 99 {
			want += shift
		}
		if row[1].Int() != want {
			t.Fatalf("id %d has k = %d, want %d: updated other than exactly once", id, row[1].Int(), want)
		}
	}
}
