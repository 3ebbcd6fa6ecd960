package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/types"
)

// TestCreateIndexOverPopulatedTable builds indexes over a table of 5 000
// rows while an open reader pins the dead versions a writer's updates and
// deletes left behind, so the backfill sees live and dead versions alike.
// Reads through each new index must equal the same reads by full scan, both
// in the writer's view and in the pinned reader's older one. A UNIQUE index
// builds when the only duplicates are dead versions, and fails, leaving no
// index behind, when two live versions collide.
func TestCreateIndexOverPopulatedTable(t *testing.T) {
	const rows = 5000
	db := OpenMemory()
	defer db.Close()
	s := db.Session()
	defer s.Close()
	exec := func(s *Session, q string) *Result {
		t.Helper()
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	exec(s, "CREATE TABLE p (id INT PRIMARY KEY, a INT, b INT)")
	ins, err := s.Prepare("INSERT INTO p VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]types.Value, rows)
	for i := range batch {
		batch[i] = []types.Value{intv(i), intv(i % 50), intv(i)}
	}
	if _, err := ins.ExecBatch(batch); err != nil {
		t.Fatal(err)
	}

	reader := db.Session()
	defer reader.Close()
	exec(reader, "BEGIN")
	exec(reader, "SELECT COUNT(*) FROM p")
	// Dead versions the reader still sees: every updated row leaves one
	// sharing its b with the live version, and a deleted and re-inserted row
	// leaves one sharing its b with a different live row.
	exec(s, "UPDATE p SET a = a + 1 WHERE id < 2000")
	exec(s, fmt.Sprintf("DELETE FROM p WHERE id >= %d", rows-100))
	for i := rows - 100; i < rows; i++ {
		exec(s, fmt.Sprintf("INSERT INTO p VALUES (%d, %d, %d)", rows+i, i%7, i))
	}
	if n := db.Vacuum(); n != 0 {
		t.Fatalf("a sweep reclaimed %d versions the reader pins", n)
	}

	// read returns q's rows through the index the plan must use, and the
	// same read with the indexed column hidden from the planner.
	read := func(s *Session, q, column string) (indexed, scanned string) {
		t.Helper()
		st, err := s.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if explain := st.ExplainPlan(); !strings.Contains(explain, "index") {
			t.Fatalf("%s does not read through an index:\n%s", q, explain)
		}
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		hidden := strings.ReplaceAll(q, column+" ", column+" + 0 ")
		full, err := s.Query(hidden)
		if err != nil {
			t.Fatalf("%s: %v", hidden, err)
		}
		return fmt.Sprint(res.Rows), fmt.Sprint(full.Rows)
	}
	check := func(column string, queries ...string) {
		t.Helper()
		for _, q := range queries {
			for who, sess := range map[string]*Session{"writer": s, "reader": reader} {
				got, want := read(sess, q, column)
				if got != want {
					t.Errorf("%s: %s through the index differs from a full scan\n got: %.200s\nwant: %.200s", who, q, got, want)
				}
				if got == "[]" && strings.Contains(q, "= 7") {
					t.Errorf("%s: %s found nothing", who, q)
				}
			}
		}
	}

	exec(s, "CREATE INDEX p_a ON p (a)")
	check("a",
		"SELECT * FROM p WHERE a = 7 ORDER BY id",
		"SELECT * FROM p WHERE a = 50 ORDER BY id",
		"SELECT * FROM p WHERE a >= 10 AND a < 13 ORDER BY id",
		"SELECT COUNT(*) FROM p WHERE a > 45")

	exec(s, "CREATE UNIQUE INDEX p_b ON p (b)")
	check("b",
		"SELECT * FROM p WHERE b = 7 ORDER BY id",
		fmt.Sprintf("SELECT * FROM p WHERE b >= %d ORDER BY id", rows-150),
		"SELECT COUNT(*) FROM p WHERE b < 2500")

	table, err := db.Catalog().GetTable("p")
	if err != nil {
		t.Fatal(err)
	}
	if got := table.IndexOn("b").Tree.CountRange(btree.Range{}); got != rows+2100 {
		t.Errorf("p_b holds %d entries, want %d live and 2100 dead versions", got, rows)
	}

	// Two live rows share a: the unique build fails and registers nothing.
	_, err = s.Execute("CREATE UNIQUE INDEX p_a_unique ON p (a)")
	if !errors.Is(err, catalog.ErrUniqueViolation) {
		t.Fatalf("CREATE UNIQUE INDEX over duplicate live values: %v, want a unique violation", err)
	}
	for _, idx := range table.Indexes() {
		if idx.Name == "p_a_unique" {
			t.Fatal("the failed CREATE UNIQUE INDEX left its index registered")
		}
	}
	if _, err := s.Execute("DROP INDEX p_a_unique"); err == nil {
		t.Error("DROP INDEX found the index a failed CREATE UNIQUE INDEX left behind")
	}
	exec(reader, "COMMIT")
}
