package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/types"
)

// loadCountTable creates c (id INT PRIMARY KEY, v INT) holding ids 0..n-1 in
// one batch.
func loadCountTable(t *testing.T, db *Database, n int) *Session {
	t.Helper()
	s := db.Session()
	if _, err := s.Execute("CREATE TABLE c (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Prepare("INSERT INTO c VALUES (?, 0)")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	batch := make([][]types.Value, n)
	for i := range batch {
		batch[i] = []types.Value{types.NewInt(int64(i))}
	}
	if _, err := st.ExecBatch(batch); err != nil {
		t.Fatal(err)
	}
	return s
}

// poolFetches returns how many buffer-pool pages step fetched (hits plus
// misses).
func poolFetches(t *testing.T, db *Database, step func()) uint64 {
	t.Helper()
	before := db.Stats().BufferPool
	step()
	after := db.Stats().BufferPool
	return after.Hits + after.Misses - before.Hits - before.Misses
}

// TestCountFetchesNoRowPages is the mechanism behind an O(log n) "row N of
// M": a whole-table COUNT(*) and a primary-key range COUNT(*) fetch at most
// a constant number of pool pages at 1 000 and at 50 000 rows, while a held
// snapshot pins the dead versions of committed updates (so the count has
// unsettled versions to correct for). It counts pages and times nothing.
func TestCountFetchesNoRowPages(t *testing.T) {
	const dead, budget = 40, 2
	for _, n := range []int{1000, 50000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			db := OpenMemory()
			defer db.Close()
			s := loadCountTable(t, db, n)
			defer s.Close()
			pin := db.Transactions().AcquireSnapshot()
			defer pin.Release()
			for id := 0; id < dead; id++ {
				if _, err := s.Execute(fmt.Sprintf("UPDATE c SET v = 1 WHERE id = %d", id*(n/dead))); err != nil {
					t.Fatal(err)
				}
			}
			if got := db.Stats().UnsettledVersions; got < dead {
				t.Fatalf("%d unsettled versions under the pin, want >= %d", got, dead)
			}
			for _, q := range []struct {
				sql  string
				arg  int
				want int64
			}{
				{"SELECT COUNT(*) FROM c", -1, int64(n)},
				{"SELECT COUNT(*) FROM c WHERE id >= ?", n / 4, int64(n - n/4)},
			} {
				st, err := s.Prepare(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				var args []types.Value
				if q.arg >= 0 {
					args = append(args, types.NewInt(int64(q.arg)))
				}
				var res *Result
				fetched := poolFetches(t, db, func() {
					if res, err = st.Exec(args...); err != nil {
						t.Fatal(err)
					}
				})
				st.Close()
				if got := res.Rows[0][0].Int(); got != q.want {
					t.Errorf("%s = %d, want %d", q.sql, got, q.want)
				}
				if fetched > budget {
					t.Errorf("%s over %d rows fetched %d pool pages, want <= %d", q.sql, n, fetched, budget)
				}
			}
		})
	}
}

// TestReclaimFetchesOnlyDeadVersionPages is the mechanism behind reclaim by
// list: once the snapshot pinning k dead versions is released, reclaiming
// them fetches at most k + c pool pages — one per reclaimed version, however
// large the table — at 1 000 and at 50 000 rows.
func TestReclaimFetchesOnlyDeadVersionPages(t *testing.T) {
	const k, slack = 30, 2
	for _, n := range []int{1000, 50000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			db := OpenMemory()
			defer db.Close()
			s := loadCountTable(t, db, n)
			defer s.Close()
			pin := db.Transactions().AcquireSnapshot()
			for id := 0; id < k; id++ {
				if _, err := s.Execute(fmt.Sprintf("UPDATE c SET v = 1 WHERE id = %d", id*(n/k))); err != nil {
					t.Fatal(err)
				}
			}
			pin.Release()
			var reclaimed int
			fetched := poolFetches(t, db, func() { reclaimed = db.Vacuum() })
			if reclaimed != k {
				t.Fatalf("reclaimed %d versions, want %d", reclaimed, k)
			}
			if fetched > k+slack {
				t.Errorf("reclaiming %d versions of a %d-row table fetched %d pool pages, want <= %d", k, n, fetched, k+slack)
			}
			if got := db.Stats().UnsettledVersions; got != 0 {
				t.Errorf("%d unsettled versions after the vacuum, want 0", got)
			}
		})
	}
}

// TestUnsettledVersionsGaugeReturnsToZero: with no snapshot held, each
// commit's sweep settles or reclaims everything the commit listed, so the
// gauge reads 0 between quiescent commits; a held snapshot makes it grow, and
// the first commit after its release brings it back to 0.
func TestUnsettledVersionsGaugeReturnsToZero(t *testing.T) {
	db := OpenMemory()
	defer db.Close()
	s := loadCountTable(t, db, 100)
	defer s.Close()
	gauge := func() uint64 { return db.Stats().UnsettledVersions }
	if got := gauge(); got != 0 {
		t.Fatalf("gauge = %d after the load, want 0", got)
	}
	for _, stmt := range []string{
		"INSERT INTO c VALUES (100, 0)",
		"UPDATE c SET v = 1 WHERE id = 5",
		"UPDATE c SET id = 200 WHERE id = 6",
		"DELETE FROM c WHERE id = 7",
	} {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatal(err)
		}
		if got := gauge(); got != 0 {
			t.Fatalf("gauge = %d after %q with no snapshot held, want 0", got, stmt)
		}
	}
	pin := db.Transactions().AcquireSnapshot()
	for id := 10; id < 20; id++ {
		if _, err := s.Execute(fmt.Sprintf("UPDATE c SET v = 2 WHERE id = %d", id)); err != nil {
			t.Fatal(err)
		}
	}
	if got := gauge(); got < 10 {
		t.Fatalf("gauge = %d under a held snapshot after ten updates, want >= 10", got)
	}
	pin.Release()
	if _, err := s.Execute("UPDATE c SET v = 3 WHERE id = 30"); err != nil {
		t.Fatal(err)
	}
	if got := gauge(); got != 0 {
		t.Errorf("gauge = %d after a commit with the snapshot released, want 0", got)
	}
}

// TestRecoveryLeavesNoUnsettledVersions: engine.Open rebuilds every table
// from a checkpoint image and a log tail of inserts, updates and deletes, and
// afterwards every table's unsettled list is empty — every replayed version
// is settled once the id sequence has advanced — while the counts stay right.
func TestRecoveryLeavesNoUnsettledVersions(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "db.wal")
	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	script := []string{
		"CREATE TABLE a (id INT PRIMARY KEY, k INT)",
		"CREATE INDEX a_k ON a (k)",
		"CREATE TABLE b (id INT, note TEXT)",
	}
	for i := 0; i < 40; i++ {
		script = append(script, fmt.Sprintf("INSERT INTO a VALUES (%d, %d)", i, i%7), fmt.Sprintf("INSERT INTO b VALUES (%d, 'x')", i))
	}
	for _, stmt := range script {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"UPDATE a SET k = 100 WHERE id < 10",
		"DELETE FROM a WHERE id >= 30",
		"UPDATE a SET id = 1000 WHERE id = 20",
		"UPDATE b SET note = 'y' WHERE id < 5",
		"DELETE FROM b WHERE id >= 35",
		"INSERT INTO a VALUES (500, 1)",
	} {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Recovery().FromCheckpoint {
		t.Fatal("recovery did not start from the checkpoint")
	}
	for _, table := range db.tables() {
		if n := table.UnsettledVersions(); n != 0 {
			t.Errorf("table %s has %d unsettled versions after recovery, want 0", table.Name(), n)
		}
	}
	s = db.Session()
	defer s.Close()
	for q, want := range map[string]int64{
		"SELECT COUNT(*) FROM a":                31,
		"SELECT COUNT(*) FROM a WHERE k = 100":  10,
		"SELECT COUNT(*) FROM a WHERE id >= 20": 2 + 9,
		"SELECT COUNT(*) FROM b":                35,
	} {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Errorf("%s = %d after recovery, want %d", q, got, want)
		}
	}
}

// TestRecoveryOfInterleavedTransactionsLeavesNoUnsettledVersions: replay
// applies the log's transactions as they interleaved, so a commit's sweep of
// the table it wrote can be held back by a transaction still open on another
// table — here T2 commits b while T1 is open on a. Recovery ends with every
// table swept whole, so no unsettled version is left for either table.
func TestRecoveryOfInterleavedTransactionsLeavesNoUnsettledVersions(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "db.wal")
	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := db.Session(), db.Session()
	for _, step := range []struct {
		s    *Session
		stmt string
	}{
		{t1, "CREATE TABLE a (id INT PRIMARY KEY)"},
		{t1, "CREATE TABLE b (id INT PRIMARY KEY)"},
		{t1, "BEGIN"},
		{t1, "INSERT INTO a VALUES (1)"},
		{t2, "INSERT INTO b VALUES (1)"},
		{t1, "COMMIT"},
	} {
		if _, err := step.s.Execute(step.stmt); err != nil {
			t.Fatalf("%s: %v", step.stmt, err)
		}
	}
	t1.Close()
	t2.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, table := range db.tables() {
		if n := table.UnsettledVersions(); n != 0 {
			t.Errorf("table %s has %d unsettled versions after recovery, want 0", table.Name(), n)
		}
	}
}

// TestCountInsideTransactionUnderConcurrentWriters: one session counts
// inside BEGIN … COMMIT — a whole-table COUNT(*) and a primary-key range
// COUNT(*), each beside the SELECT * it must agree with under the shared
// snapshot, and again at the end to check the count repeats — while two
// writers commit and roll back inserts, updates and deletes on their own ids.
// Run with -race (CI repeats it).
func TestCountInsideTransactionUnderConcurrentWriters(t *testing.T) {
	const rows, writes, reads = 200, 300, 60
	db := OpenMemory()
	defer db.Close()
	s := loadCountTable(t, db, rows)
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := db.Session()
			defer ws.Close()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			own := func() int { return rng.Intn(rows)*2 + w } // even ids for writer 0, odd for 1
			for i := 0; i < writes; i++ {
				stmts := []string{"BEGIN"}
				for j := rng.Intn(3) + 1; j > 0; j-- {
					switch rng.Intn(3) {
					case 0:
						stmts = append(stmts, fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", own(), i))
					case 1:
						stmts = append(stmts, fmt.Sprintf("UPDATE c SET id = %d WHERE id = %d", own(), own()))
					default:
						stmts = append(stmts, fmt.Sprintf("DELETE FROM c WHERE id = %d", own()))
					}
				}
				end := "COMMIT"
				if rng.Intn(3) == 0 {
					end = "ROLLBACK"
				}
				for _, stmt := range append(stmts, end) {
					// A duplicate id fails its statement and poisons the
					// transaction, which the writer then rolls back.
					_, err := ws.Execute(stmt)
					if errors.Is(err, catalog.ErrUniqueViolation) {
						_, err = ws.Execute("ROLLBACK")
						if err == nil {
							break
						}
					}
					if err != nil {
						t.Errorf("writer %d: %s: %v", w, stmt, err)
						return
					}
				}
			}
		}(w)
	}

	reader := db.Session()
	defer reader.Close()
	query := func(q string) *Result {
		t.Helper()
		res, err := reader.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := 0; i < reads; i++ {
		query("BEGIN")
		var first []int64
		for _, where := range []string{"", " WHERE id >= 100"} {
			count := query("SELECT COUNT(*) FROM c" + where).Rows[0][0].Int()
			if rows := len(query("SELECT * FROM c" + where).Rows); int64(rows) != count {
				t.Fatalf("read %d: COUNT(*)%s = %d, SELECT * returns %d rows under the same snapshot", i, where, count, rows)
			}
			first = append(first, count)
		}
		if again := query("SELECT COUNT(*) FROM c").Rows[0][0].Int(); again != first[0] {
			t.Fatalf("read %d: COUNT(*) = %d, then %d inside one transaction", i, first[0], again)
		}
		query("COMMIT")
	}
	wg.Wait()
}
