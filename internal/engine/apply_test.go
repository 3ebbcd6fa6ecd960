package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/txn"
	"repro/internal/types"
)

const replLedgerDDL = "CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)"

func ledgerRow(id int, owner string, amount int) types.Tuple {
	return types.Tuple{intv(id), strv(owner), intv(amount)}
}

// ledgerRows reads the whole ledger through s, as "id:owner:amount" strings.
func ledgerRows(t *testing.T, s *Session) []string {
	t.Helper()
	res, err := s.Query("SELECT id, owner, amount FROM ledger ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, fmt.Sprintf("%d:%s:%d", row[0].Int(), row[1].String(), row[2].Int()))
	}
	return out
}

// replicaWithLedger is a database in the state a replica reaches by applying
// the ledger's DDL and two inserted rows.
func replicaWithLedger(t *testing.T) *Database {
	t.Helper()
	db := OpenMemory()
	t.Cleanup(func() { db.Close() })
	err := db.ApplyReplicated([]txn.Record{
		{Kind: txn.RecordDDL, DDL: replLedgerDDL},
		{Kind: txn.RecordInsert, Table: "ledger", New: ledgerRow(1, "ada", 100)},
		{Kind: txn.RecordInsert, Table: "ledger", New: ledgerRow(2, "bob", 100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestApplyReplicatedDivergenceIsAtomic: a before-image that matches a row's
// key but not its tuple means the replica no longer holds what the primary
// updated. The applier must say so with the typed sentinel, naming the record
// and the table, and the records of the same transaction that did apply must
// be rolled back — for new readers and for a snapshot taken before the call.
func TestApplyReplicatedDivergenceIsAtomic(t *testing.T) {
	db := replicaWithLedger(t)
	reader := db.Session()
	defer reader.Close()
	if _, err := reader.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	before := ledgerRows(t, reader)

	err := db.ApplyReplicated([]txn.Record{
		{Kind: txn.RecordInsert, Table: "ledger", New: ledgerRow(3, "eve", 5)},
		{Kind: txn.RecordUpdate, Table: "ledger", Old: ledgerRow(1, "ada", 100), New: ledgerRow(1, "ada", 150)},
		{Kind: txn.RecordUpdate, Table: "ledger", Old: ledgerRow(2, "bob", 999), New: ledgerRow(2, "bob", 0)},
	})
	if !errors.Is(err, catalog.ErrNoMatchingRow) {
		t.Fatalf("ApplyReplicated = %v, want catalog.ErrNoMatchingRow", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "UPDATE") || !strings.Contains(msg, "ledger") {
		t.Errorf("error %q does not name the record kind and the table", msg)
	}

	want := []string{"1:ada:100", "2:bob:100"}
	if got := ledgerRows(t, reader); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("the open snapshot moved: %v, was %v", got, before)
	}
	fresh := db.Session()
	defer fresh.Close()
	if got := ledgerRows(t, fresh); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after the failed transaction the ledger holds %v, want %v", got, want)
	}

	// A DELETE takes the same path and fails the same way.
	err = db.ApplyReplicated([]txn.Record{{Kind: txn.RecordDelete, Table: "ledger", Old: ledgerRow(2, "bob", 999)}})
	if !errors.Is(err, catalog.ErrNoMatchingRow) || !strings.Contains(err.Error(), "DELETE") {
		t.Errorf("diverged DELETE = %v, want catalog.ErrNoMatchingRow naming DELETE", err)
	}
	if st := db.Stats(); st.RowsLocatedBySeek != 3 || st.RowsLocatedByScan != 0 {
		t.Errorf("located %d rows by seek and %d by scan, want 3 and 0", st.RowsLocatedBySeek, st.RowsLocatedByScan)
	}
}

// TestApplyReplicatedSeesItsOwnWrites: inside one replicated transaction a
// later record's before-image is an earlier record's after-image, so the
// resolution must see the applying transaction's uncommitted versions — and
// must no longer see what it has itself superseded or deleted.
func TestApplyReplicatedSeesItsOwnWrites(t *testing.T) {
	db := replicaWithLedger(t)
	s := db.Session()
	defer s.Close()

	err := db.ApplyReplicated([]txn.Record{
		{Kind: txn.RecordInsert, Table: "ledger", New: ledgerRow(3, "eve", 1)},
		{Kind: txn.RecordUpdate, Table: "ledger", Old: ledgerRow(3, "eve", 1), New: ledgerRow(3, "eve", 2)},
		{Kind: txn.RecordDelete, Table: "ledger", Old: ledgerRow(3, "eve", 2)},
		{Kind: txn.RecordUpdate, Table: "ledger", Old: ledgerRow(1, "ada", 100), New: ledgerRow(1, "ada", 101)},
		{Kind: txn.RecordUpdate, Table: "ledger", Old: ledgerRow(1, "ada", 101), New: ledgerRow(1, "ada", 102)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledgerRows(t, s), []string{"1:ada:102", "2:bob:100"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ledger holds %v, want %v", got, want)
	}

	// The version a transaction superseded is gone for that transaction.
	err = db.ApplyReplicated([]txn.Record{
		{Kind: txn.RecordUpdate, Table: "ledger", Old: ledgerRow(2, "bob", 100), New: ledgerRow(2, "bob", 200)},
		{Kind: txn.RecordDelete, Table: "ledger", Old: ledgerRow(2, "bob", 100)},
	})
	if !errors.Is(err, catalog.ErrNoMatchingRow) {
		t.Errorf("deleting a version the same transaction superseded = %v, want catalog.ErrNoMatchingRow", err)
	}
}

// TestBeforeImageResolutionIndependentOfTableSize is the mechanism behind
// "replay and apply by key": resolving and applying one UPDATE record makes
// the engine fetch a handful of buffer-pool pages (Hits+Misses) whether the
// table holds 1 000 rows or 50 000 — in the replica applier and in crash
// recovery's replay alike. A table with no index has to be scanned, but the
// scan stops at the first match: an early row costs the same handful.
func TestBeforeImageResolutionIndependentOfTableSize(t *testing.T) {
	// The applier fetches five pages (the probe, the writer's re-read, the
	// xmax stamp, and the new version's insert, which tries the last two
	// pages) and recovery's in-place update three, at either size; a scan
	// would fetch every page of the table.
	const budget = 6
	for _, tc := range []struct {
		name, ddl string
		target    func(n int) int // id of the updated row
		byScan    bool
	}{
		{"primary key", "CREATE TABLE t (id INT PRIMARY KEY, v INT)", func(n int) int { return n / 2 }, false},
		{"no index, first row", "CREATE TABLE t (id INT, v INT)", func(int) int { return 1 }, true},
	} {
		for _, n := range []int{1000, 50000} {
			load := []txn.Record{{Kind: txn.RecordBegin, Txn: 1}, {Kind: txn.RecordDDL, Txn: 1, DDL: tc.ddl}}
			for id := 1; id <= n; id++ {
				load = append(load, txn.Record{Kind: txn.RecordInsert, Txn: 1, Table: "t", New: types.Tuple{intv(id), intv(0)}})
			}
			load = append(load, txn.Record{Kind: txn.RecordCommit, Txn: 1})
			id := tc.target(n)
			update := txn.Record{Kind: txn.RecordUpdate, Txn: 2, Table: "t", Old: types.Tuple{intv(id), intv(0)}, New: types.Tuple{intv(id), intv(7)}}

			paths := map[string]func(db *Database, recs []txn.Record) error{
				"applier": func(db *Database, recs []txn.Record) error {
					return db.ApplyReplicated(recs[1 : len(recs)-1]) // Begin and Commit stripped
				},
				"recovery": func(db *Database, recs []txn.Record) error {
					_, err := db.replay(&txn.LogLoad{Tail: recs})
					return err
				},
			}
			for path, run := range paths {
				db := OpenMemory()
				if err := run(db, load); err != nil {
					t.Fatalf("%s, %s, %d rows: load: %v", tc.name, path, n, err)
				}
				before := db.Stats()
				if err := run(db, []txn.Record{{Kind: txn.RecordBegin, Txn: 2}, update, {Kind: txn.RecordCommit, Txn: 2}}); err != nil {
					t.Fatalf("%s, %s, %d rows: update: %v", tc.name, path, n, err)
				}
				after := db.Stats()
				fetched := after.BufferPool.Hits + after.BufferPool.Misses - before.BufferPool.Hits - before.BufferPool.Misses
				if fetched > budget {
					t.Errorf("%s, %s: one UPDATE record at %d rows fetched %d pool pages, want <= %d at any size", tc.name, path, n, fetched, budget)
				}
				seeks, scans := after.RowsLocatedBySeek-before.RowsLocatedBySeek, after.RowsLocatedByScan-before.RowsLocatedByScan
				if byScan := scans == 1 && seeks == 0; seeks+scans != 1 || byScan != tc.byScan {
					t.Errorf("%s, %s: resolved by %d seeks and %d scans", tc.name, path, seeks, scans)
				}
				s := db.Session()
				res, err := s.Query(fmt.Sprintf("SELECT v FROM t WHERE id = %d", id))
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
					t.Errorf("%s, %s, %d rows: row %d reads %v, %v after the update", tc.name, path, n, id, res, err)
				}
				s.Close()
				db.Close()
			}
		}
	}
}
