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

// apply feeds recs to a one at a time and stops at the first error.
func apply(a *txn.Applier, recs ...txn.Record) error {
	for _, r := range recs {
		if _, err := a.Apply(r); err != nil {
			return err
		}
	}
	return nil
}

// replicaWithLedger is a database in the state a replica reaches by applying
// primary transaction 1: the ledger's DDL and two inserted rows.
func replicaWithLedger(t *testing.T) (*Database, *txn.Applier) {
	t.Helper()
	db := OpenMemory()
	t.Cleanup(func() { db.Close() })
	a := db.Follow()
	err := apply(a,
		txn.Record{Kind: txn.RecordBegin, Txn: 1},
		txn.Record{Kind: txn.RecordDDL, Txn: 1, DDL: replLedgerDDL},
		txn.Record{Kind: txn.RecordInsert, Txn: 1, Table: "ledger", New: ledgerRow(1, "ada", 100)},
		txn.Record{Kind: txn.RecordInsert, Txn: 1, Table: "ledger", New: ledgerRow(2, "bob", 100)},
		txn.Record{Kind: txn.RecordCommit, Txn: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db, a
}

// TestApplierDivergenceIsAtomic: a before-image that matches a row's key but
// not its tuple means the replica no longer holds what the primary updated.
// The applier must say so with the typed sentinel, naming the record and the
// table; the failed record changes nothing, so feeding it again fails the same
// way, and the records of its transaction that did apply stay invisible — to
// new readers and to a snapshot taken before — until an ABORT undoes them.
func TestApplierDivergenceIsAtomic(t *testing.T) {
	db, a := replicaWithLedger(t)
	reader := db.Session()
	defer reader.Close()
	if _, err := reader.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	before := ledgerRows(t, reader)

	diverged := txn.Record{Kind: txn.RecordUpdate, Txn: 3, Table: "ledger", Old: ledgerRow(2, "bob", 999), New: ledgerRow(2, "bob", 0)}
	err := apply(a,
		txn.Record{Kind: txn.RecordBegin, Txn: 3},
		txn.Record{Kind: txn.RecordInsert, Txn: 3, Table: "ledger", New: ledgerRow(3, "eve", 5)},
		txn.Record{Kind: txn.RecordUpdate, Txn: 3, Table: "ledger", Old: ledgerRow(1, "ada", 100), New: ledgerRow(1, "ada", 150)},
		diverged,
	)
	if !errors.Is(err, catalog.ErrNoMatchingRow) {
		t.Fatalf("Apply = %v, want catalog.ErrNoMatchingRow", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "UPDATE") || !strings.Contains(msg, "ledger") {
		t.Errorf("error %q does not name the record kind and the table", msg)
	}
	if _, again := a.Apply(diverged); !errors.Is(again, catalog.ErrNoMatchingRow) {
		t.Errorf("the same record fed again = %v, want catalog.ErrNoMatchingRow", again)
	}

	want := []string{"1:ada:100", "2:bob:100"}
	if got := ledgerRows(t, reader); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("the open snapshot moved: %v, was %v", got, before)
	}
	fresh := db.Session()
	defer fresh.Close()
	if got := ledgerRows(t, fresh); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("while the failed transaction is open the ledger reads %v, want %v", got, want)
	}
	if err := apply(a, txn.Record{Kind: txn.RecordAbort, Txn: 3}); err != nil {
		t.Fatal(err)
	}
	if got := ledgerRows(t, fresh); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after the failed transaction aborted the ledger holds %v, want %v", got, want)
	}

	// A DELETE takes the same path and fails the same way.
	err = apply(a,
		txn.Record{Kind: txn.RecordBegin, Txn: 4},
		txn.Record{Kind: txn.RecordDelete, Txn: 4, Table: "ledger", Old: ledgerRow(2, "bob", 999)},
	)
	if !errors.Is(err, catalog.ErrNoMatchingRow) || !strings.Contains(err.Error(), "DELETE") {
		t.Errorf("diverged DELETE = %v, want catalog.ErrNoMatchingRow naming DELETE", err)
	}
	if st := db.Stats(); st.RowsLocatedBySeek != 4 || st.RowsLocatedByScan != 0 {
		t.Errorf("located %d rows by seek and %d by scan, want 4 and 0", st.RowsLocatedBySeek, st.RowsLocatedByScan)
	}
}

// TestApplierSeesItsOwnWrites: inside one logged transaction a later record's
// before-image is an earlier record's after-image, so the resolution must see
// the adopted transaction's uncommitted versions — and must no longer see
// what it has itself superseded or deleted.
func TestApplierSeesItsOwnWrites(t *testing.T) {
	db, a := replicaWithLedger(t)
	s := db.Session()
	defer s.Close()

	err := apply(a,
		txn.Record{Kind: txn.RecordBegin, Txn: 2},
		txn.Record{Kind: txn.RecordInsert, Txn: 2, Table: "ledger", New: ledgerRow(3, "eve", 1)},
		txn.Record{Kind: txn.RecordUpdate, Txn: 2, Table: "ledger", Old: ledgerRow(3, "eve", 1), New: ledgerRow(3, "eve", 2)},
		txn.Record{Kind: txn.RecordDelete, Txn: 2, Table: "ledger", Old: ledgerRow(3, "eve", 2)},
		txn.Record{Kind: txn.RecordUpdate, Txn: 2, Table: "ledger", Old: ledgerRow(1, "ada", 100), New: ledgerRow(1, "ada", 101)},
		txn.Record{Kind: txn.RecordUpdate, Txn: 2, Table: "ledger", Old: ledgerRow(1, "ada", 101), New: ledgerRow(1, "ada", 102)},
		txn.Record{Kind: txn.RecordCommit, Txn: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledgerRows(t, s), []string{"1:ada:102", "2:bob:100"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ledger holds %v, want %v", got, want)
	}

	// The version a transaction superseded is gone for that transaction.
	err = apply(a,
		txn.Record{Kind: txn.RecordBegin, Txn: 3},
		txn.Record{Kind: txn.RecordUpdate, Txn: 3, Table: "ledger", Old: ledgerRow(2, "bob", 100), New: ledgerRow(2, "bob", 200)},
		txn.Record{Kind: txn.RecordDelete, Txn: 3, Table: "ledger", Old: ledgerRow(2, "bob", 100)},
	)
	if !errors.Is(err, catalog.ErrNoMatchingRow) {
		t.Errorf("deleting a version the same transaction superseded = %v, want catalog.ErrNoMatchingRow", err)
	}
}

// TestBeforeImageResolutionIndependentOfTableSize is the mechanism behind
// "replay and apply by key": resolving and applying one UPDATE record makes
// the engine fetch a handful of buffer-pool pages (Hits+Misses) whether the
// table holds 1 000 rows or 50 000 — fed to the applier record by record, as
// a replica does, and through crash recovery's replay alike. A table with no
// index has to be scanned, but the scan stops at the first match: an early
// row costs the same handful.
func TestBeforeImageResolutionIndependentOfTableSize(t *testing.T) {
	// Either entry point fetches five pages at either size: the probe, the
	// writer's re-read, the xmax stamp, the new version's insert, and the
	// commit's sweep reclaiming the superseded version. A scan would fetch
	// every page of the table.
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
					return apply(db.Follow(), recs...)
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

// TestFollowerRefusesAnIDUsedLocally: a database that follows a log adopts the
// log's transactions under the ids the log names, so a transaction begun
// locally takes the id the log's next BEGIN names too. The applier refuses
// that BEGIN as divergence — whether the local transaction is still live or
// has committed — rather than adopt an id whose versions already exist, and
// the local write stays as it was.
func TestFollowerRefusesAnIDUsedLocally(t *testing.T) {
	db, a := replicaWithLedger(t)
	s := db.Session()
	defer s.Close()
	if _, err := s.Execute("UPDATE ledger SET amount = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(txn.Record{Kind: txn.RecordBegin, Txn: 2}); !errors.Is(err, txn.ErrDiverged) {
		t.Errorf("adopting the id a committed local transaction used = %v, want txn.ErrDiverged", err)
	}
	if _, err := s.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply(txn.Record{Kind: txn.RecordBegin, Txn: 3}); !errors.Is(err, txn.ErrDiverged) {
		t.Errorf("adopting the id of a live local transaction = %v, want txn.ErrDiverged", err)
	}
	if got, want := ledgerRows(t, s), []string{"1:ada:1", "2:bob:100"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ledger reads %v, want %v", got, want)
	}
	if open, err := a.AbortOpen(nil); err != nil || len(open) != 0 {
		t.Errorf("the refused BEGINs left %v adopted (%v)", open, err)
	}
}

// TestApplierHoldsDDLUntilCommit: a DDL record cannot be undone, so the
// applier runs it, and the records of its transaction after it, only at the
// transaction's COMMIT. A DDL whose transaction aborts never touches the
// catalog; one that commits runs before the rows that follow it.
func TestApplierHoldsDDLUntilCommit(t *testing.T) {
	db, a := replicaWithLedger(t)
	const createX = "CREATE TABLE x (id INT PRIMARY KEY)"
	hasX := func() bool {
		_, err := db.cat.GetTable("x")
		return err == nil
	}
	err := apply(a,
		txn.Record{Kind: txn.RecordBegin, Txn: 2},
		txn.Record{Kind: txn.RecordDDL, Txn: 2, DDL: "DROP TABLE ledger"},
		txn.Record{Kind: txn.RecordBegin, Txn: 3},
		txn.Record{Kind: txn.RecordDDL, Txn: 3, DDL: createX},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.cat.GetTable("ledger"); err != nil || hasX() {
		t.Errorf("uncommitted DDL ran: ledger %v, x exists %v", err, hasX())
	}
	if err := apply(a, txn.Record{Kind: txn.RecordAbort, Txn: 2}, txn.Record{Kind: txn.RecordAbort, Txn: 3}); err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	defer s.Close()
	if got, want := ledgerRows(t, s), []string{"1:ada:100", "2:bob:100"}; fmt.Sprint(got) != fmt.Sprint(want) || hasX() {
		t.Errorf("after the aborts the ledger reads %v (want %v) and x exists %v", got, want, hasX())
	}

	err = apply(a,
		txn.Record{Kind: txn.RecordBegin, Txn: 4},
		txn.Record{Kind: txn.RecordDDL, Txn: 4, DDL: createX},
		txn.Record{Kind: txn.RecordInsert, Txn: 4, Table: "x", New: types.Tuple{intv(7)}},
		txn.Record{Kind: txn.RecordCommit, Txn: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT id FROM x")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Errorf("x after its committed CREATE and INSERT reads %v, %v; want the one row 7", res, err)
	}
}
