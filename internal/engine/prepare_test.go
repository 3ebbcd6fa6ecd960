package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

const prepareSchema = `
CREATE TABLE customers (
	id INT PRIMARY KEY,
	name TEXT NOT NULL,
	city TEXT,
	credit FLOAT DEFAULT 0
);
CREATE INDEX customers_city ON customers (city);
INSERT INTO customers (id, name, city, credit) VALUES
	(1, 'Ada', 'Boston', 1000),
	(2, 'Bob', 'Boston', 250),
	(3, 'Cyd', 'Denver', 700),
	(4, 'Dee', 'Austin', 50);
`

func prepareTestDB(t *testing.T) (*Database, *Session) {
	t.Helper()
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(prepareSchema); err != nil {
		t.Fatal(err)
	}
	return db, s
}

func TestPreparePositionalParams(t *testing.T) {
	_, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT name FROM customers WHERE city = ? AND credit > ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if len(stmt.frame.Values) != 2 {
		t.Fatalf("NumParams = %d, want 2", len(stmt.frame.Values))
	}
	rows, err := stmt.Query(types.NewString("Boston"), types.NewFloat(500))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for rows.Next() {
		var name string
		if err := rows.Scan(&name); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "Ada" {
		t.Fatalf("names = %v, want [Ada]", names)
	}
}

func TestPrepareNamedParams(t *testing.T) {
	_, s := prepareTestDB(t)
	// The same named parameter appears twice and binds once.
	stmt, err := s.Prepare("SELECT id FROM customers WHERE credit > @floor OR credit = @floor ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if len(stmt.frame.Values) != 1 {
		t.Fatalf("NumParams = %d, want 1 (repeated @floor shares an ordinal)", len(stmt.frame.Values))
	}
	if err := stmt.BindNamed("floor", types.NewFloat(700)); err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // credit >= 700: Ada (1000) and Cyd (700)
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if err := stmt.BindNamed("nosuch", types.NewInt(1)); err == nil {
		t.Fatal("binding an unknown name should fail")
	}
}

func TestBindTypeMismatch(t *testing.T) {
	_, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT name FROM customers WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	// The parameter's kind is inferred from the id column (INT): an
	// unparseable string must be rejected at bind time.
	err = stmt.Bind(types.NewString("not-a-number"))
	if err == nil || !strings.Contains(err.Error(), "cannot bind") {
		t.Fatalf("bind mismatch error = %v", err)
	}
	// A numeric string coerces into the column's domain.
	if err := stmt.Bind(types.NewString("3")); err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Cyd" {
		t.Fatalf("rows = %v, want [[Cyd]]", res.Rows)
	}
}

func TestUnboundParameterFails(t *testing.T) {
	_, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT name FROM customers WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("unbound query error = %v", err)
	}
}

func TestRebindAndReexecuteReusesPlan(t *testing.T) {
	db, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT name FROM customers WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	missesAfterPrepare := db.Stats().PlanCacheMisses

	want := map[int64]string{1: "Ada", 2: "Bob", 3: "Cyd", 4: "Dee"}
	for id, name := range want {
		res, err := stmt.Exec(types.NewInt(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != name {
			t.Fatalf("id %d: rows = %v, want %s", id, res.Rows, name)
		}
	}
	// Re-running never re-parses or re-plans: the miss counter is unchanged.
	if got := db.Stats().PlanCacheMisses; got != missesAfterPrepare {
		t.Fatalf("plan cache misses grew from %d to %d during re-execution", missesAfterPrepare, got)
	}
}

func TestPlanCacheHitMissCounters(t *testing.T) {
	db, s := prepareTestDB(t)
	before := db.Stats()

	first, err := s.Prepare("SELECT name FROM customers WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	afterFirst := db.Stats()
	if afterFirst.PlanCacheMisses != before.PlanCacheMisses+1 {
		t.Fatalf("first prepare: misses %d -> %d, want +1", before.PlanCacheMisses, afterFirst.PlanCacheMisses)
	}

	// Identical text — modulo whitespace — is a hit.
	second, err := s.Prepare("SELECT name  FROM customers\n\tWHERE id = ?;")
	if err != nil {
		t.Fatal(err)
	}
	second.Close()
	afterSecond := db.Stats()
	if afterSecond.PlanCacheHits != afterFirst.PlanCacheHits+1 {
		t.Fatalf("second prepare: hits %d -> %d, want +1", afterFirst.PlanCacheHits, afterSecond.PlanCacheHits)
	}
	if afterSecond.PlanCacheMisses != afterFirst.PlanCacheMisses {
		t.Fatalf("second prepare should not miss")
	}
	if afterSecond.StatementsPrepared != before.StatementsPrepared+2 {
		t.Fatalf("prepared counter = %d, want +2", afterSecond.StatementsPrepared-before.StatementsPrepared)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	db, err := Open(Options{PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.ExecuteScript(prepareSchema); err != nil {
		t.Fatal(err)
	}
	evictionsBefore := db.Stats().PlanCacheEvictions
	for _, q := range []string{
		"SELECT id FROM customers WHERE id = 1",
		"SELECT id FROM customers WHERE id = 2",
		"SELECT id FROM customers WHERE id = 3",
	} {
		st, err := s.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	if got := db.Stats().PlanCacheEvictions; got <= evictionsBefore {
		t.Fatalf("evictions = %d, want > %d with cache size 2", got, evictionsBefore)
	}
	if got := s.db.plans.len(); got != 2 {
		t.Fatalf("cache len = %d, want 2", got)
	}
}

// TestOpenCursorDoesNotBlockWriter is the MVCC acceptance regression test:
// a reader holding an open streaming cursor must never block a concurrent
// committed write, and the cursor must keep reading its own snapshot — it
// sees neither the new value (no torn read) nor a vanished row.
func TestOpenCursorDoesNotBlockWriter(t *testing.T) {
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(prepareSchema); err != nil {
		t.Fatal(err)
	}

	stmt, err := s.Prepare("SELECT id, credit FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row")
	}

	// A writer from another session commits while the cursor is open — under
	// the old table locks this timed out; under MVCC it must succeed at once.
	writer := db.Session()
	start := time.Now()
	if _, err := writer.Execute("UPDATE customers SET credit = 0 WHERE id = 4"); err != nil {
		t.Fatalf("writer blocked by an open cursor: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("write took %v with a cursor open; must not wait", elapsed)
	}

	// The open cursor keeps its snapshot: id 4 still shows its original 50.
	sawID4 := false
	for {
		var id int
		var credit float64
		if err := rows.Scan(&id, &credit); err != nil {
			t.Fatal(err)
		}
		if id == 4 {
			sawID4 = true
			if credit != 50 {
				t.Errorf("cursor saw credit=%v for id 4, want the snapshot's 50", credit)
			}
		}
		if !rows.Next() {
			break
		}
	}
	if !sawID4 {
		t.Error("cursor lost row id 4 mid-iteration")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()

	// A fresh read sees the committed write.
	res, err := s.Query("SELECT credit FROM customers WHERE id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 0 {
		t.Errorf("post-close read = %v, want 0", res.Rows[0][0])
	}

	stats := db.Stats()
	if stats.CursorsOpened == 0 || stats.CursorsOpened != stats.CursorsClosed {
		t.Fatalf("cursor counters opened=%d closed=%d", stats.CursorsOpened, stats.CursorsClosed)
	}
	if stats.SnapshotsTaken == 0 {
		t.Errorf("SnapshotsTaken = 0, want > 0 (cursor reads run on snapshots)")
	}
}

func TestCursorStreamsWithoutMaterializing(t *testing.T) {
	db, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT id, name, credit FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	streamedBefore := db.Stats().RowsStreamed
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 3 || got[0] != "id" {
		t.Fatalf("columns = %v", got)
	}
	count := 0
	for rows.Next() {
		var id int
		var name string
		var credit float64
		if err := rows.Scan(&id, &name, &credit); err != nil {
			t.Fatal(err)
		}
		count++
		if count == 2 {
			break // stop early; Close discards the rest
		}
	}
	rows.Close()
	if count != 2 {
		t.Fatalf("read %d rows, want 2", count)
	}
	if got := db.Stats().RowsStreamed - streamedBefore; got != 2 {
		t.Fatalf("rows streamed = %d, want 2 (no hidden materialisation)", got)
	}
}

func TestQueryWhileCursorOpenFails(t *testing.T) {
	_, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT id FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, err := stmt.Query(); err == nil {
		t.Fatal("second Query with an open cursor should fail")
	}
}

func TestPreparedDML(t *testing.T) {
	_, s := prepareTestDB(t)

	insert, err := s.Prepare("INSERT INTO customers (id, name, city, credit) VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer insert.Close()
	for i := 0; i < 3; i++ {
		res, err := insert.Exec(
			types.NewInt(int64(10+i)), types.NewString("New"), types.NewString("Keene"), types.NewFloat(5))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("insert affected %d", res.RowsAffected)
		}
	}

	update, err := s.Prepare("UPDATE customers SET credit = @credit WHERE city = @city")
	if err != nil {
		t.Fatal(err)
	}
	defer update.Close()
	if err := update.BindNamed("credit", types.NewFloat(77)); err != nil {
		t.Fatal(err)
	}
	if err := update.BindNamed("city", types.NewString("Keene")); err != nil {
		t.Fatal(err)
	}
	res, err := update.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("update affected %d, want 3", res.RowsAffected)
	}

	del, err := s.Prepare("DELETE FROM customers WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer del.Close()
	if res, err := del.Exec(types.NewInt(11)); err != nil || res.RowsAffected != 1 {
		t.Fatalf("delete: %v affected=%v", err, res)
	}
	check, err := s.Query("SELECT COUNT(*) FROM customers WHERE city = 'Keene'")
	if err != nil {
		t.Fatal(err)
	}
	if check.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %v, want 2", check.Rows[0][0])
	}
}

func TestPreparedParamUsesIndex(t *testing.T) {
	_, s := prepareTestDB(t)
	// The plan for "city = ?" must still choose the index on city even though
	// the key value is unknown at plan time.
	stmt, err := s.Prepare("SELECT name FROM customers WHERE city = ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	explain := stmt.ExplainPlan()
	if !strings.Contains(explain, "index lookup") {
		t.Fatalf("plan does not use the city index:\n%s", explain)
	}
	res, err := stmt.Exec(types.NewString("Boston"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("Boston rows = %d, want 2", len(res.Rows))
	}
	// Rebinding finds the other city through the same index path.
	res, err = stmt.Exec(types.NewString("Denver"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Cyd" {
		t.Fatalf("Denver rows = %v", res.Rows)
	}
}

func TestPreparedStatementSurvivesSchemaChange(t *testing.T) {
	_, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT name FROM customers WHERE credit >= ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if res, err := stmt.Exec(types.NewFloat(700)); err != nil || len(res.Rows) != 2 {
		t.Fatalf("before index: %v / %v", res, err)
	}
	// A new index invalidates the cached plan; the statement replans itself.
	if _, err := s.Execute("CREATE INDEX customers_credit ON customers (credit)"); err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(types.NewFloat(700))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("after index: rows = %d, want 2", len(res.Rows))
	}
	if !strings.Contains(stmt.ExplainPlan(), "index range") {
		t.Fatalf("replanned statement should use the new index:\n%s", stmt.ExplainPlan())
	}
}

func TestParamsRejectedInDDL(t *testing.T) {
	_, s := prepareTestDB(t)
	if _, err := s.Prepare("CREATE TABLE t (id INT PRIMARY KEY, v INT DEFAULT ?)"); err == nil {
		t.Fatal("parameters in DDL should be rejected at prepare time")
	}
}

// TestPreparedInExplicitTransactionRepeatsReads: inside BEGIN...COMMIT every
// query runs on the transaction's begin-timestamp snapshot, so a concurrent
// committed write neither blocks nor appears until the transaction ends.
func TestPreparedInExplicitTransactionRepeatsReads(t *testing.T) {
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(prepareSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	stmt, err := s.Prepare("SELECT credit FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	res, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 1000 {
		t.Fatalf("first read = %v, want 1000", res.Rows[0][0])
	}

	// Another session commits a write to the row mid-transaction, without
	// waiting on the reader.
	writer := db.Session()
	if _, err := writer.Execute("UPDATE customers SET credit = 0 WHERE id = 1"); err != nil {
		t.Fatalf("writer blocked by a reading transaction: %v", err)
	}

	// Re-running the read inside the transaction repeats the snapshot value.
	res, err = stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 1000 {
		t.Errorf("repeated read = %v, want the snapshot's 1000", res.Rows[0][0])
	}
	if _, err := s.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}
	// After commit a fresh snapshot sees the writer's value.
	res, err = stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 0 {
		t.Errorf("post-commit read = %v, want 0", res.Rows[0][0])
	}
}

func TestNullParamOnIndexedColumnMatchesNothing(t *testing.T) {
	_, s := prepareTestDB(t)
	// SQL comparison with NULL is never true. The planner turns these into
	// index access paths whose conjunct is consumed, so the scan itself must
	// produce the empty result when the key resolves to NULL.
	for _, q := range []string{
		"SELECT name FROM customers WHERE id > ?",
		"SELECT name FROM customers WHERE id = ?",
		"SELECT name FROM customers WHERE city = ?",
	} {
		stmt, err := s.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := stmt.Exec(types.Null())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%s with NULL returned %d rows, want 0", q, len(res.Rows))
		}
		stmt.Close()
	}
	// Literal NULL keys go the same way.
	res, err := s.Query("SELECT name FROM customers WHERE city = NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("city = NULL returned %d rows, want 0", len(res.Rows))
	}
}

// TestWriteWhileOwnCursorOpen: a session may write the very table its open
// cursor is streaming — the cursor keeps reading its own snapshot. Under the
// old table locks this was rejected outright.
func TestWriteWhileOwnCursorOpen(t *testing.T) {
	_, s := prepareTestDB(t)
	stmt, err := s.Prepare("SELECT id, credit FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a row")
	}
	if _, err := s.Execute("UPDATE customers SET credit = 0 WHERE id = 2"); err != nil {
		t.Fatalf("write to own cursor's table: %v", err)
	}
	// The cursor's snapshot predates the write: id 2 still shows 250.
	for {
		var id int
		var credit float64
		if err := rows.Scan(&id, &credit); err != nil {
			t.Fatal(err)
		}
		if id == 2 && credit != 250 {
			t.Errorf("cursor saw credit=%v for id 2, want the snapshot's 250", credit)
		}
		if !rows.Next() {
			break
		}
	}
	rows.Close()
	res, err := s.Query("SELECT credit FROM customers WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 0 {
		t.Errorf("fresh read = %v, want 0", res.Rows[0][0])
	}
	// DDL while a cursor is open stays allowed too.
	rows2, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if _, err := s.Execute("CREATE TABLE other (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("unrelated DDL: %v", err)
	}
}

func TestParseErrorPositionsSurviveNormalization(t *testing.T) {
	_, s := prepareTestDB(t)
	_, err := s.Prepare("SELECT name\nFROM customers\nWHERE &")
	if err == nil {
		t.Fatal("expected a syntax error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should point at line 3 of the original text, got: %v", err)
	}
}
