package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
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

// TestCountStarMatchesSelectStar holds COUNT(*) — answered from entry counts
// and the table's unsettled list, never reading a row — to the rows SELECT *
// returns under the same snapshot, through both access paths, in the states
// where the two could disagree: another session's uncommitted writes, the
// session's own, aborted inserts, and committed updates whose dead versions a
// held snapshot keeps from being reclaimed.
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
	// A held snapshot pins the thirty versions the committed updates
	// supersede: every commit's sweep leaves them in the heap, the index and
	// the unsettled list.
	pin := db.Transactions().AcquireSnapshot()
	for id := 30; id < 60; id++ {
		exec(writer, fmt.Sprintf("UPDATE c SET v = 2 WHERE id = %d", id))
	}
	table, err := db.Catalog().GetTable("c")
	if err != nil {
		t.Fatal(err)
	}
	if n := table.UnsettledVersions(); n < 30 {
		t.Fatalf("%d unsettled versions after thirty pinned updates: nothing unreclaimed to count past", n)
	}
	if n := check(reader, "dead versions pinned"); n != 100 {
		t.Errorf("dead versions changed the count to %d", n)
	}
	pin.Release()
	if n := db.Vacuum(); n != 30 {
		t.Errorf("vacuum after the release reclaimed %d versions, want 30", n)
	}
	if n := check(reader, "dead versions reclaimed"); n != 100 {
		t.Errorf("reclaiming changed the count to %d", n)
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

// countShape is one COUNT(*) predicate of the exactness oracle: count runs as
// a filterless scan on the access path named by path, and ref selects the
// same rows through a residual filter the planner cannot turn into an access
// path, so the two reach their answer by different code.
type countShape struct {
	name, count, ref, path string
	args                   func(rng *rand.Rand) []types.Value
}

func countShapes(keySpace int) []countShape {
	key := func(rng *rand.Rand) types.Value { return types.NewInt(int64(rng.Intn(keySpace+4) - 2)) }
	return []countShape{
		{"whole table", "SELECT COUNT(*) FROM g", "SELECT * FROM g WHERE id + 0 = id", "seq scan",
			func(*rand.Rand) []types.Value { return nil }},
		{"primary-key range", "SELECT COUNT(*) FROM g WHERE id >= ? AND id < ?", "SELECT * FROM g WHERE id + 0 >= ? AND id + 0 < ?",
			"index range scan on g_pkey", func(rng *rand.Rand) []types.Value { return []types.Value{key(rng), key(rng)} }},
		{"primary-key equality", "SELECT COUNT(*) FROM g WHERE id = ?", "SELECT * FROM g WHERE id + 0 = ?",
			"index lookup on g_pkey", func(rng *rand.Rand) []types.Value { return []types.Value{key(rng)} }},
		{"secondary range", "SELECT COUNT(*) FROM g WHERE k > ?", "SELECT * FROM g WHERE k + 0 > ?",
			"index range scan on g_k", func(rng *rand.Rand) []types.Value { return []types.Value{types.NewInt(int64(rng.Intn(12) - 1))} }},
	}
}

// TestCountStarOracleGeneratedHistories is the exactness oracle for
// COUNT(*) over generated multi-session histories. Three sessions run random
// inserts, key-changing updates and deletes, in autocommit or inside BEGIN …
// COMMIT/ROLLBACK; read snapshots are held open across steps to pin dead
// versions past the commits' sweeps; Database.Vacuum runs now and then, and
// inserts after a reclaim reuse the freed heap slots. After every step, in
// every session, each count shape must equal the number of rows its
// residual-filter twin returns under the same snapshot. Each session writes
// only the ids it owns (id mod 3), so no statement waits on another
// session's lock. The seed is in every failure.
func TestCountStarOracleGeneratedHistories(t *testing.T) {
	const sessions, keySpace, steps = 3, 60, 200
	for seed := int64(1); seed <= 8; seed++ {
		runCountOracle(t, seed, sessions, keySpace, steps)
	}
}

func runCountOracle(t *testing.T, seed int64, sessions, keySpace, steps int) {
	t.Helper()
	db := OpenMemory()
	defer db.Close()
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	setup := db.Session()
	defer setup.Close()
	if _, err := setup.ExecuteScript("CREATE TABLE g (id INT PRIMARY KEY, k INT, v INT); CREATE INDEX g_k ON g (k);"); err != nil {
		fail("%v", err)
	}
	randK := func() string {
		if rng.Intn(8) == 0 {
			return "NULL"
		}
		return fmt.Sprint(rng.Intn(10))
	}
	// ownID picks an id session s owns.
	ownID := func(s int) int { return rng.Intn(keySpace/sessions)*sessions + s }

	type session struct {
		s      *Session
		count  []*Stmt
		ref    []*Stmt
		inTxn  bool
		writes bool // the open transaction has written
	}
	shapes := countShapes(keySpace)
	ss := make([]*session, sessions)
	for i := range ss {
		x := &session{s: db.Session()}
		defer x.s.Close()
		for _, sh := range shapes {
			c, err := x.s.Prepare(sh.count)
			if err != nil {
				fail("%s: %v", sh.count, err)
			}
			r, err := x.s.Prepare(sh.ref)
			if err != nil {
				fail("%s: %v", sh.ref, err)
			}
			if plan := c.ExplainPlan(); !strings.Contains(plan, sh.path) || strings.Contains(plan, "filter") {
				fail("%s should be a %s with no residual filter:\n%s", sh.name, sh.path, plan)
			}
			if plan := r.ExplainPlan(); !strings.Contains(plan, "seq scan") || !strings.Contains(plan, "filter") {
				fail("the %s reference should be a filtered seq scan:\n%s", sh.name, plan)
			}
			x.count, x.ref = append(x.count, c), append(x.ref, r)
		}
		ss[i] = x
	}
	var pins []interface{ Release() }
	defer func() {
		for _, p := range pins {
			p.Release()
		}
	}()
	// exec runs text and returns what became of it for the history.
	exec := func(x *session, text string) string {
		t.Helper()
		_, err := x.s.Execute(text)
		if errors.Is(err, catalog.ErrUniqueViolation) && x.inTxn {
			// The failed statement poisoned its transaction.
			text += " -> unique violation, ROLLBACK"
			_, err = x.s.Execute("ROLLBACK")
			x.inTxn = false
		}
		if err != nil && !errors.Is(err, catalog.ErrUniqueViolation) {
			fail("%s: %v", text, err)
		}
		return text
	}
	var history []string
	for step := 0; step < steps; step++ {
		i := rng.Intn(sessions)
		x := ss[i]
		var did string
		switch op := rng.Intn(20); {
		case op < 5:
			did = fmt.Sprintf("INSERT INTO g VALUES (%d, %s, %d)", ownID(i), randK(), step)
		case op < 9:
			did = fmt.Sprintf("UPDATE g SET id = %d, k = %s WHERE id = %d", ownID(i), randK(), ownID(i))
		case op < 11:
			did = fmt.Sprintf("UPDATE g SET v = %d WHERE id = %d", step, ownID(i))
		case op < 13:
			did = fmt.Sprintf("DELETE FROM g WHERE id = %d", ownID(i))
		case op < 15:
			if x.inTxn {
				did = "COMMIT"
				if rng.Intn(3) == 0 {
					did = "ROLLBACK"
				}
				x.inTxn = false
			} else {
				did, x.inTxn = "BEGIN", true
			}
		case op < 17:
			if len(pins) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(pins))
				pins[j].Release()
				pins = append(pins[:j], pins[j+1:]...)
				did = "release a held snapshot"
			} else {
				pins = append(pins, db.Transactions().AcquireSnapshot())
				did = "hold a snapshot"
			}
		default:
			did = fmt.Sprintf("vacuum (reclaimed %d)", db.Vacuum())
		}
		if strings.HasPrefix(did, "INSERT") || strings.HasPrefix(did, "UPDATE") || strings.HasPrefix(did, "DELETE") ||
			did == "BEGIN" || did == "COMMIT" || did == "ROLLBACK" {
			did = exec(x, did)
		}
		history = append(history, fmt.Sprintf("s%d: %s", i, did))

		for j, y := range ss {
			for n, sh := range shapes {
				args := sh.args(rng)
				c, err := y.count[n].Exec(args...)
				if err != nil {
					fail("step %d, s%d: %s %v: %v", step, j, sh.count, args, err)
				}
				r, err := y.ref[n].Exec(args...)
				if err != nil {
					fail("step %d, s%d: %s %v: %v", step, j, sh.ref, args, err)
				}
				if got, want := c.Rows[0][0].Int(), int64(len(r.Rows)); got != want {
					fail("step %d, s%d: %s COUNT(*) %v = %d, the filtered scan returns %d rows\nhistory:\n%s",
						step, j, sh.name, args, got, want, strings.Join(history, "\n"))
				}
			}
		}
	}
}
