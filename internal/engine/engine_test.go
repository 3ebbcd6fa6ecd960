package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/txn"
	"repro/internal/types"
)

// seedSchema creates the customers/orders schema and a few rows through SQL.
const seedSchema = `
CREATE TABLE customers (
	id INT PRIMARY KEY,
	name TEXT NOT NULL,
	city TEXT DEFAULT 'Unknown',
	credit FLOAT DEFAULT 0
);
CREATE TABLE orders (
	id INT PRIMARY KEY,
	customer_id INT NOT NULL,
	total FLOAT,
	placed DATE
);
CREATE INDEX customers_city ON customers (city);
CREATE INDEX orders_customer ON orders (customer_id);
CREATE VIEW rich AS SELECT id, name, city, credit FROM customers WHERE credit >= 1000;
INSERT INTO customers (id, name, city, credit) VALUES
	(1, 'Ada', 'Boston', 1500),
	(2, 'Bob', 'Boston', 200),
	(3, 'Cyd', 'Chicago', 3000),
	(4, 'Dee', 'Denver', 50);
INSERT INTO orders VALUES
	(100, 1, 250, '1983-05-01'),
	(101, 1, 80, '1983-05-02'),
	(102, 3, 900, '1983-05-03');
`

func seededSession(t testing.TB) *Session {
	t.Helper()
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDDLAndInsertSelect(t *testing.T) {
	s := seededSession(t)
	res, err := s.Query("SELECT name, credit FROM customers WHERE city = 'Boston' ORDER BY credit DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "Ada" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "name" || res.Columns[1] != "credit" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestInsertDefaultsApplied(t *testing.T) {
	s := seededSession(t)
	if _, err := s.Execute("INSERT INTO customers (id, name) VALUES (10, 'Gus')"); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Query("SELECT city, credit FROM customers WHERE id = 10")
	if res.Rows[0][0].Str() != "Unknown" || res.Rows[0][1].Float() != 0 {
		t.Errorf("defaults = %v", res.Rows[0])
	}
}

func TestInsertErrors(t *testing.T) {
	s := seededSession(t)
	cases := []string{
		"INSERT INTO customers (id, name) VALUES (1, 'Dup')",  // duplicate pk
		"INSERT INTO customers (id) VALUES (11)",              // NOT NULL name
		"INSERT INTO customers VALUES (12, 'x')",              // arity
		"INSERT INTO nosuch VALUES (1)",                       // unknown table
		"INSERT INTO customers (id, nosuch) VALUES (13, 'x')", // unknown column
		"INSERT INTO customers (id, name) VALUES (14, name)",  // non-constant value
	}
	for _, q := range cases {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("Execute(%q) should fail", q)
		}
	}
	// Failed inserts must not leave partial rows behind.
	res, _ := s.Query("SELECT COUNT(*) FROM customers")
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("row count after failed inserts = %v", res.Rows[0][0])
	}
}

func TestUniqueKeysRejectDuplicates(t *testing.T) {
	s := OpenMemory().Session()
	if _, err := s.ExecuteScript(`CREATE TABLE users (id INT PRIMARY KEY, email TEXT UNIQUE);
		INSERT INTO users VALUES (1, 'a@x.com');
		INSERT INTO users VALUES (2, 'b@x.com');`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"INSERT INTO users VALUES (3, 'a@x.com')",         // duplicate UNIQUE column
		"INSERT INTO users VALUES (1, 'c@x.com')",         // duplicate primary key
		"UPDATE users SET id = 2 WHERE id = 1",            // onto another row's primary key
		"UPDATE users SET email = 'b@x.com' WHERE id = 1", // onto another row's UNIQUE value
	} {
		if _, err := s.Execute(q); !errors.Is(err, catalog.ErrUniqueViolation) {
			t.Errorf("Execute(%q) = %v, want a unique violation", q, err)
		}
	}
	// A row keeping its own key, or changing it to a free one, conflicts
	// with nothing: its old version is not a duplicate.
	for _, q := range []string{
		"UPDATE users SET email = 'a@x.com' WHERE id = 1",
		"UPDATE users SET id = 1, email = 'c@x.com' WHERE id = 1",
	} {
		if _, err := s.Execute(q); err != nil {
			t.Errorf("Execute(%q) = %v", q, err)
		}
	}
	res, err := s.Query("SELECT id, email FROM users ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[(1, c@x.com) (2, b@x.com)]" {
		t.Errorf("users = %s", got)
	}
}

func TestMultiRowInsertIsAtomic(t *testing.T) {
	s := seededSession(t)
	// The second row violates the primary key; the whole statement must roll back.
	_, err := s.Execute("INSERT INTO customers (id, name) VALUES (20, 'New'), (1, 'Dup')")
	if err == nil {
		t.Fatal("expected a unique violation")
	}
	res, _ := s.Query("SELECT COUNT(*) FROM customers WHERE id = 20")
	if res.Rows[0][0].Int() != 0 {
		t.Error("partial multi-row insert survived; statement should be atomic")
	}
}

func TestUpdateWithExpressionAndIndex(t *testing.T) {
	s := seededSession(t)
	res, err := s.Execute("UPDATE customers SET credit = credit + 100 WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	check, _ := s.Query("SELECT credit FROM customers WHERE id = 2")
	if check.Rows[0][0].Float() != 300 {
		t.Errorf("credit = %v", check.Rows[0][0])
	}
	// Multi-row update via unindexed predicate.
	res, err = s.Execute("UPDATE customers SET city = 'Hub' WHERE city = 'Boston'")
	if err != nil || res.RowsAffected != 2 {
		t.Errorf("affected = %d, %v", res.RowsAffected, err)
	}
}

func TestDeleteRows(t *testing.T) {
	s := seededSession(t)
	res, err := s.Execute("DELETE FROM orders WHERE customer_id = 1")
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("affected = %d, %v", res.RowsAffected, err)
	}
	left, _ := s.Query("SELECT COUNT(*) FROM orders")
	if left.Rows[0][0].Int() != 1 {
		t.Errorf("orders left = %v", left.Rows[0][0])
	}
	// DELETE without WHERE clears the table.
	if res, err := s.Execute("DELETE FROM orders"); err != nil || res.RowsAffected != 1 {
		t.Errorf("full delete = %+v, %v", res, err)
	}
}

func TestViewSelectAndInsertThroughView(t *testing.T) {
	s := seededSession(t)
	res, err := s.Query("SELECT name FROM rich ORDER BY credit DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "Cyd" {
		t.Errorf("rich rows = %v", res.Rows)
	}
	// Insert through the view: row satisfies the predicate.
	if _, err := s.Execute("INSERT INTO rich (id, name, city, credit) VALUES (5, 'Eve', 'Boston', 5000)"); err != nil {
		t.Fatal(err)
	}
	check, _ := s.Query("SELECT COUNT(*) FROM customers")
	if check.Rows[0][0].Int() != 5 {
		t.Errorf("customers = %v", check.Rows[0][0])
	}
	// Insert through the view violating its predicate must be rejected
	// (check option).
	if _, err := s.Execute("INSERT INTO rich (id, name, city, credit) VALUES (6, 'Sam', 'Boston', 10)"); err == nil {
		t.Error("insert violating the view predicate should fail")
	}
}

func TestUpdateAndDeleteThroughView(t *testing.T) {
	s := seededSession(t)
	// Update through the view touches only rows visible in the view.
	res, err := s.Execute("UPDATE rich SET city = 'Moved' WHERE city = 'Boston'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 { // only Ada is rich and in Boston
		t.Errorf("affected = %d", res.RowsAffected)
	}
	// An update that would push the row out of the view must be rejected.
	if _, err := s.Execute("UPDATE rich SET credit = 1 WHERE id = 3"); err == nil {
		t.Error("update violating the view predicate should fail")
	}
	// Delete through the view.
	res, err = s.Execute("DELETE FROM rich WHERE id = 1")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("delete through view = %+v, %v", res, err)
	}
	// Bob (not rich) is untouched.
	check, _ := s.Query("SELECT COUNT(*) FROM customers")
	if check.Rows[0][0].Int() != 3 {
		t.Errorf("customers = %v", check.Rows[0][0])
	}
}

func TestNonUpdatableViewRejectsWrites(t *testing.T) {
	s := seededSession(t)
	if _, err := s.Execute("CREATE VIEW spend AS SELECT customer_id, SUM(total) AS spent FROM orders GROUP BY customer_id"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("INSERT INTO spend VALUES (9, 100)"); err == nil {
		t.Error("insert into an aggregating view must fail")
	}
	if _, err := s.Execute("UPDATE spend SET spent = 0"); err == nil {
		t.Error("update of an aggregating view must fail")
	}
	if _, err := s.Execute("DELETE FROM spend"); err == nil {
		t.Error("delete from an aggregating view must fail")
	}
}

func TestExplicitTransactionCommitAndRollback(t *testing.T) {
	s := seededSession(t)
	if _, err := s.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if !(s.current != nil) {
		t.Error("InTransaction should be true after BEGIN")
	}
	if _, err := s.Execute("INSERT INTO customers (id, name) VALUES (30, 'Tmp')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Query("SELECT COUNT(*) FROM customers WHERE id = 30")
	if res.Rows[0][0].Int() != 0 {
		t.Error("rolled back insert is still visible")
	}

	if _, err := s.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("UPDATE customers SET credit = 9999 WHERE id = 4"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Query("SELECT credit FROM customers WHERE id = 4")
	if res.Rows[0][0].Float() != 9999 {
		t.Errorf("committed update lost: %v", res.Rows[0][0])
	}

	// Transaction-control misuse.
	if _, err := s.Execute("COMMIT"); err == nil {
		t.Error("COMMIT without BEGIN should fail")
	}
	if _, err := s.Execute("ROLLBACK"); err == nil {
		t.Error("ROLLBACK without BEGIN should fail")
	}
	if _, err := s.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("BEGIN"); err == nil {
		t.Error("nested BEGIN should fail")
	}
}

// TestConcurrentSessionsWriteRows: under MVCC two sessions writing different
// rows of the same table never wait on each other (this scenario timed out
// under table locks), and two writers racing for the same row resolve by
// first-updater-wins instead of a timeout.
func TestConcurrentSessionsWriteRows(t *testing.T) {
	db := OpenMemory()
	s1 := db.Session()
	if _, err := s1.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	s2 := db.Session()

	if _, err := s1.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Execute("UPDATE customers SET credit = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// s2 writes a different row of the same table while s1's transaction is
	// still open: no table lock, no wait, no error.
	if _, err := s2.Execute("UPDATE customers SET credit = 2 WHERE id = 2"); err != nil {
		t.Fatalf("write to a different row must not conflict: %v", err)
	}
	if _, err := s1.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}

	// Same row: s2 waits on s1's transaction until it commits, then aborts with
	// a write conflict rather than silently overwriting.
	if _, err := s1.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Execute("UPDATE customers SET credit = 10 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s2.Execute("UPDATE customers SET credit = 20 WHERE id = 1")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let s2 reach s1's claim
	if _, err := s1.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "write conflict") {
		t.Errorf("racing same-row write = %v, want a write conflict", err)
	}
	stats := db.Stats()
	if stats.Committed == 0 || stats.WriteConflicts == 0 {
		t.Errorf("stats committed=%d conflicts=%d", stats.Committed, stats.WriteConflicts)
	}
	res, err := s2.Query("SELECT credit FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 10 {
		t.Errorf("credit = %v, want the first updater's 10", res.Rows[0][0])
	}
}

func TestDropObjects(t *testing.T) {
	s := seededSession(t)
	for _, q := range []string{"DROP VIEW rich", "DROP INDEX customers_city", "DROP TABLE orders"} {
		if _, err := s.Execute(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
	if _, err := s.Query("SELECT * FROM orders"); err == nil {
		t.Error("orders should be gone")
	}
}

func TestCreateViewValidatesDefinition(t *testing.T) {
	s := seededSession(t)
	if _, err := s.Execute("CREATE VIEW broken AS SELECT nosuch FROM customers"); err == nil {
		t.Error("view over a missing column should be rejected at creation")
	}
	if _, err := s.Execute("CREATE VIEW rich AS SELECT id FROM customers"); err == nil {
		t.Error("duplicate view name should be rejected")
	}
}

func TestPlanHelper(t *testing.T) {
	s := seededSession(t)
	stmt, err := s.Prepare("SELECT * FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if node := stmt.entry.node; node == nil || node.Schema().Len() != 4 {
		t.Errorf("plan = %v", node)
	}
	if exp := stmt.ExplainPlan(); !strings.Contains(exp, "index lookup") {
		t.Errorf("a primary-key equality should plan as an index lookup:\n%s", exp)
	}
}

// explain prepares text and returns its plan's EXPLAIN rendering.
func explain(t *testing.T, s *Session, text string) string {
	t.Helper()
	stmt, err := s.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	return stmt.ExplainPlan()
}

func TestPersistenceAcrossReopenViaWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wow.wal")

	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("UPDATE customers SET credit = 777 WHERE id = 4"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log is replayed into a fresh in-memory database.
	db2, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.Session()
	res, err := s2.Query("SELECT credit FROM customers WHERE id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 777 {
		t.Errorf("recovered credit = %v", res.Rows)
	}
	// Views and indexes are recovered through DDL records too.
	if res, err := s2.Query("SELECT COUNT(*) FROM rich"); err != nil || res.Rows[0][0].Int() != 2 {
		t.Errorf("recovered view query = %v, %v", res, err)
	}
}

// TestMemoryDatabaseKeepsNoLog: a database opened without a log file has no
// log at all, so its writes — DDL, inserts, updates, deletes, a rollback —
// append nothing, and a checkpoint has nothing to write. Rollback still
// works: undo lives in the transaction, not the log.
func TestMemoryDatabaseKeepsNoLog(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	if wal := db.Transactions().WAL(); wal != nil {
		t.Fatalf("an in-memory database has a log: %+v", wal.Stats())
	}
	s := db.Session()
	for _, stmt := range []string{
		"CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)",
		"CREATE INDEX notes_body ON notes (body)",
		"INSERT INTO notes VALUES (1, 'a'), (2, 'b'), (3, 'c')",
		"UPDATE notes SET body = 'z' WHERE id = 2",
		"DELETE FROM notes WHERE id = 3",
		"BEGIN",
		"INSERT INTO notes VALUES (4, 'd')",
		"DELETE FROM notes WHERE id = 1",
		"ROLLBACK",
	} {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	res, err := s.Query("SELECT id, body FROM notes ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[(1, a) (2, z)]" {
		t.Fatalf("rows after the rollback = %s, want [(1, a) (2, z)]", got)
	}
	if st := db.Stats(); st.WALWrites != 0 || st.Committed == 0 || st.Aborted == 0 {
		t.Fatalf("stats = committed %d, aborted %d, WAL writes %d; want commits and an abort, and no WAL writes", st.Committed, st.Aborted, st.WALWrites)
	}
	if st, err := db.Checkpoint(); err != nil || st != (txn.CheckpointStats{}) {
		t.Fatalf("Checkpoint = %+v, %v; want zero stats and no error", st, err)
	}
}

func TestResultMessages(t *testing.T) {
	s := seededSession(t)
	res, err := s.Execute("INSERT INTO customers (id, name) VALUES (40, 'Zed')")
	if err != nil || !strings.Contains(res.Message(), "1 row") {
		t.Errorf("message = %q, %v", res.Message(), err)
	}
	res, _ = s.Execute("CREATE TABLE t2 (id INT PRIMARY KEY)")
	if !strings.Contains(res.Message(), "t2") {
		t.Errorf("message = %q", res.Message())
	}
}

func TestDateValuesRoundTrip(t *testing.T) {
	s := seededSession(t)
	res, err := s.Query("SELECT placed FROM orders WHERE id = 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Kind() != types.KindDate || res.Rows[0][0].String() != "1983-05-01" {
		t.Errorf("date = %v (%v)", res.Rows[0][0], res.Rows[0][0].Kind())
	}
	res, err = s.Query("SELECT id FROM orders WHERE placed > '1983-05-01' ORDER BY id")
	if err != nil || len(res.Rows) != 2 {
		t.Errorf("date comparison rows = %v, %v", res.Rows, err)
	}
}

func BenchmarkEngineInsertAutocommit(b *testing.B) {
	db := OpenMemory()
	s := db.Session()
	if _, err := s.Execute("CREATE TABLE bench (id INT PRIMARY KEY, payload TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := "INSERT INTO bench (id, payload) VALUES (" + strconv.Itoa(i) + ", 'row payload text')"
		if _, err := s.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePointQuery(b *testing.B) {
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("SELECT name FROM customers WHERE id = 3"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOrderByIndexElision checks that ORDER BY served by an index (the
// planner's sort elision, which the window pager's keyset queries stream on)
// returns exactly what a sort would: ascending, descending via the reverse
// scan, and NULL keys first — the index covers NULL entries too.
func TestOrderByIndexElision(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	s := db.Session()
	if _, err := s.ExecuteScript(`
		CREATE TABLE elide (id INT PRIMARY KEY, v INT);
		CREATE INDEX elide_v ON elide (v);
		INSERT INTO elide VALUES (1, 30), (2, NULL), (3, 10), (4, 20), (5, NULL);
	`); err != nil {
		t.Fatal(err)
	}
	read := func(query string) []string {
		t.Helper()
		res, err := s.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range res.Rows {
			out = append(out, row[0].SQL())
		}
		return out
	}
	join := func(ss []string) string { return strings.Join(ss, ",") }

	if got := read("SELECT v FROM elide ORDER BY v"); join(got) != "NULL,NULL,10,20,30" {
		t.Errorf("ORDER BY v = %v", got)
	}
	if got := read("SELECT v FROM elide ORDER BY v DESC"); join(got) != "30,20,10,NULL,NULL" {
		t.Errorf("ORDER BY v DESC = %v", got)
	}
	if got := read("SELECT id FROM elide WHERE id > 2 ORDER BY id DESC"); join(got) != "5,4,3" {
		t.Errorf("keyset DESC = %v", got)
	}
	// The plans really are sort-free: the scan serves the order.
	if exp := explain(t, s, "SELECT v FROM elide ORDER BY v DESC"); !strings.Contains(exp, "reverse") || strings.Contains(exp, "Sort") {
		t.Errorf("expected a sort-free reverse index scan:\n%s", exp)
	}
}
