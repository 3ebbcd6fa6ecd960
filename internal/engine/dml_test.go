package engine

import (
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

const dmlSchema = `
CREATE TABLE items (
	id INT PRIMARY KEY,
	label TEXT NOT NULL,
	qty INT DEFAULT 1,
	price FLOAT
);
INSERT INTO items (id, label, qty, price) VALUES
	(1, 'widget', 5, 2.50),
	(2, 'gadget', 3, 10.00),
	(3, 'sprocket', 7, 1.25),
	(4, 'flange', 2, 4.00),
	(5, 'gear', 9, 6.75);
`

func dmlTestDB(t *testing.T) (*Database, *Session) {
	t.Helper()
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(dmlSchema); err != nil {
		t.Fatal(err)
	}
	return db, s
}

// TestParamRangeUpdateUsesIndexRange checks that a prepared UPDATE with
// parameterized range bounds on an indexed column plans an index range scan
// and updates exactly the rows inside the bounds at each rebinding.
func TestParamRangeUpdateUsesIndexRange(t *testing.T) {
	_, s := dmlTestDB(t)
	st, err := s.Prepare("UPDATE items SET qty = qty + 100 WHERE id > ? AND id < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	explain := st.ExplainPlan()
	if !strings.Contains(explain, "index range scan") {
		t.Fatalf("range UPDATE should plan an index range scan, got:\n%s", explain)
	}
	res, err := st.Exec(types.NewInt(1), types.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d, want 2 (ids 2 and 3)", res.RowsAffected)
	}
	// Rebinding moves the range without replanning.
	res, err = st.Exec(types.NewInt(4), types.NewInt(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d, want 1 (id 5)", res.RowsAffected)
	}
	check, err := s.Query("SELECT id, qty FROM items ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	wantQty := []int64{5, 103, 107, 2, 109}
	for i, row := range check.Rows {
		if row[1].Int() != wantQty[i] {
			t.Errorf("row %d qty = %d, want %d", i, row[1].Int(), wantQty[i])
		}
	}
}

// TestParamRangeDeleteUsesIndexRange covers DELETE with parameterized bounds.
func TestParamRangeDeleteUsesIndexRange(t *testing.T) {
	_, s := dmlTestDB(t)
	st, err := s.Prepare("DELETE FROM items WHERE id > ? AND id < ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if explain := st.ExplainPlan(); !strings.Contains(explain, "index range scan") {
		t.Fatalf("range DELETE should plan an index range scan, got:\n%s", explain)
	}
	res, err := st.Exec(types.NewInt(2), types.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d, want 2", res.RowsAffected)
	}
	left, err := s.Query("SELECT id FROM items ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(left.Rows) != 3 {
		t.Fatalf("rows left = %d, want 3", len(left.Rows))
	}
}

// TestExplainStatement checks the SQL-level EXPLAIN command: a parameterized
// range UPDATE on an indexed column must show the index range scan without
// binding (or executing) anything.
func TestExplainStatement(t *testing.T) {
	_, s := dmlTestDB(t)
	res, err := s.Execute("EXPLAIN UPDATE items SET price = 0 WHERE id > ? AND id < ?")
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, row := range res.Rows {
		text.WriteString(row[0].String())
		text.WriteByte('\n')
	}
	if !strings.Contains(text.String(), "Update items set price") {
		t.Errorf("EXPLAIN misses the update node:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "index range scan") {
		t.Errorf("EXPLAIN misses the index range scan:\n%s", text.String())
	}
	// EXPLAIN must not have executed the write.
	check, err := s.Query("SELECT COUNT(*) FROM items WHERE price = 0")
	if err != nil {
		t.Fatal(err)
	}
	if n := check.Rows[0][0].Int(); n != 0 {
		t.Errorf("EXPLAIN executed the update: %d rows changed", n)
	}
	// SELECT and DELETE explain too.
	if res, err = s.Execute("EXPLAIN SELECT * FROM items WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Rows[len(res.Rows)-1][0].String(), "index lookup") {
		t.Errorf("EXPLAIN SELECT misses index lookup: %v", res.Rows)
	}
	if _, err := s.Execute("EXPLAIN BEGIN"); err == nil {
		t.Error("EXPLAIN of transaction control should fail")
	}
}

// TestWriteFetchSkipsDanglingIndexEntries: indexes hold an entry per row
// version, and an aborting transaction physically removes the versions it
// created — so an index entry whose record no longer resolves is a normal
// race, not corruption. Both the read and the write scan skip it; a write
// through one simply affects zero rows.
func TestWriteFetchSkipsDanglingIndexEntries(t *testing.T) {
	db, s := dmlTestDB(t)
	table, err := db.Catalog().GetTable("items")
	if err != nil {
		t.Fatal(err)
	}
	idx := table.IndexOn("id")
	if idx == nil {
		t.Fatal("items has no primary-key index")
	}
	bogus := storage.RecordID{Page: 999999, Slot: 7}
	idx.Tree.Insert(types.EncodeKey(nil, types.NewInt(42)), bogus)

	res, err := s.Execute("UPDATE items SET qty = 0 WHERE id = 42")
	if err != nil {
		t.Fatalf("UPDATE through a dangling index entry: %v", err)
	}
	if res.RowsAffected != 0 {
		t.Errorf("UPDATE affected %d rows, want 0", res.RowsAffected)
	}
	res, err = s.Execute("DELETE FROM items WHERE id = 42")
	if err != nil {
		t.Fatalf("DELETE through a dangling index entry: %v", err)
	}
	if res.RowsAffected != 0 {
		t.Errorf("DELETE affected %d rows, want 0", res.RowsAffected)
	}
	res2, err := s.Query("SELECT * FROM items WHERE id = 42")
	if err != nil {
		t.Fatalf("read scan should skip the dangling entry: %v", err)
	}
	if len(res2.Rows) != 0 {
		t.Errorf("read scan returned %d rows, want 0", len(res2.Rows))
	}
}

// TestExecBatch checks array binding: one plan, one transaction, every row.
func TestExecBatch(t *testing.T) {
	db, s := dmlTestDB(t)
	st, err := s.Prepare("INSERT INTO items (id, label, price) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	committedBefore, _ := db.Transactions().Stats()
	batch := make([][]types.Value, 50)
	for i := range batch {
		batch[i] = []types.Value{
			types.NewInt(int64(100 + i)),
			types.NewString("bulk"),
			types.NewFloat(float64(i)),
		}
	}
	res, err := st.ExecBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 50 {
		t.Fatalf("affected = %d, want 50", res.RowsAffected)
	}
	committedAfter, _ := db.Transactions().Stats()
	if got := committedAfter - committedBefore; got != 1 {
		t.Errorf("batch used %d transactions, want 1", got)
	}
	count, err := s.Query("SELECT COUNT(*) FROM items WHERE label = 'bulk'")
	if err != nil {
		t.Fatal(err)
	}
	if n := count.Rows[0][0].Int(); n != 50 {
		t.Errorf("rows loaded = %d, want 50", n)
	}
	if stats := db.Stats(); stats.BatchRowsExecuted != 50 {
		t.Errorf("BatchRowsExecuted = %d, want 50", stats.BatchRowsExecuted)
	}
	// Qty fell back to its DEFAULT for every batched row.
	defaulted, err := s.Query("SELECT COUNT(*) FROM items WHERE label = 'bulk' AND qty = 1")
	if err != nil {
		t.Fatal(err)
	}
	if n := defaulted.Rows[0][0].Int(); n != 50 {
		t.Errorf("defaulted rows = %d, want 50", n)
	}
}

// TestExecBatchRollsBackOnError: a failing row aborts the whole batch.
func TestExecBatchRollsBackOnError(t *testing.T) {
	_, s := dmlTestDB(t)
	st, err := s.Prepare("INSERT INTO items (id, label) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batch := [][]types.Value{
		{types.NewInt(200), types.NewString("ok")},
		{types.NewInt(1), types.NewString("duplicate key")},
		{types.NewInt(201), types.NewString("never reached")},
	}
	if _, err := st.ExecBatch(batch); err == nil {
		t.Fatal("duplicate key inside the batch should fail it")
	}
	count, err := s.Query("SELECT COUNT(*) FROM items WHERE id >= 200")
	if err != nil {
		t.Fatal(err)
	}
	if n := count.Rows[0][0].Int(); n != 0 {
		t.Errorf("batch left %d rows behind after rollback", n)
	}
}

// TestExecBatchRejectsNonDML: batches only make sense for writes.
func TestExecBatchRejectsNonDML(t *testing.T) {
	_, s := dmlTestDB(t)
	st, err := s.Prepare("SELECT * FROM items WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.ExecBatch([][]types.Value{{types.NewInt(1)}}); err == nil {
		t.Error("ExecBatch of a SELECT should fail")
	}
}

// TestWritePlanCaching: DML skeletons cache and re-preparing is a hit.
func TestWritePlanCaching(t *testing.T) {
	db, s := dmlTestDB(t)
	before := db.Stats()
	first, err := s.Prepare("UPDATE items SET qty = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	second, err := s.Prepare("UPDATE  items SET qty = ? WHERE id = ?") // same normalized text
	if err != nil {
		t.Fatal(err)
	}
	second.Close()
	after := db.Stats()
	if got := after.WritePlansCached - before.WritePlansCached; got != 1 {
		t.Errorf("write plans cached = %d, want 1 (second prepare is a hit)", got)
	}
	if got := after.PlanCacheHits - before.PlanCacheHits; got != 1 {
		t.Errorf("plan cache hits = %d, want 1", got)
	}
}

const dmlViewSchema = dmlSchema + `
CREATE VIEW cheap_items (code, tag, amount) AS SELECT id, label, price FROM items WHERE price < 5;
`

// TestViewWritesThroughPlannedDML covers updatable-view writes on the planned
// path: column translation from view names to base names, predicate
// translation, and CHECK OPTION rejection.
func TestViewWritesThroughPlannedDML(t *testing.T) {
	db := OpenMemory()
	s := db.Session()
	if _, err := s.ExecuteScript(dmlViewSchema); err != nil {
		t.Fatal(err)
	}

	// INSERT through the view, columns renamed (code→id, tag→label,
	// amount→price); the row satisfies the predicate so it is accepted.
	res, err := s.Execute("INSERT INTO cheap_items (code, tag, amount) VALUES (10, 'washer', 0.10)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("insert affected = %d", res.RowsAffected)
	}
	// CHECK OPTION: a row that would not be visible through the view is
	// rejected, both on INSERT and on UPDATE that moves a row out.
	if _, err := s.Execute("INSERT INTO cheap_items (code, tag, amount) VALUES (11, 'gold', 999)"); err == nil {
		t.Error("insert violating the view predicate should fail")
	}
	if _, err := s.Execute("UPDATE cheap_items SET amount = 999 WHERE code = 10"); err == nil {
		t.Error("update moving the row out of the view should fail")
	}

	// UPDATE through the view with a parameter; only rows visible in the view
	// qualify (price < 5 AND tag match), and assignments translate.
	st, err := s.Prepare("UPDATE cheap_items SET amount = ? WHERE tag = 'washer'")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if explain := st.ExplainPlan(); !strings.Contains(explain, "via view cheap_items") {
		t.Errorf("view update should explain its view:\n%s", explain)
	}
	res, err = st.Exec(types.NewFloat(1.99))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("view update affected = %d", res.RowsAffected)
	}
	check, err := s.Query("SELECT price FROM items WHERE id = 10")
	if err != nil {
		t.Fatal(err)
	}
	if got := check.Rows[0][0].Float(); got != 1.99 {
		t.Errorf("price = %v, want 1.99", got)
	}

	// DELETE through the view only reaches visible rows: id 2 (gadget, 10.00)
	// is outside the view and must survive an unqualified view delete.
	res, err = s.Execute("DELETE FROM cheap_items")
	if err != nil {
		t.Fatal(err)
	}
	left, err := s.Query("SELECT id FROM items ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range left.Rows {
		id := row[0].Int()
		if id != 2 && id != 5 {
			t.Errorf("row %d should have been deleted through the view", id)
		}
	}
	if len(left.Rows) != 2 {
		t.Errorf("rows left = %d, want 2 (gadget 10.00 and gear 6.75)", len(left.Rows))
	}
	_ = res
}
