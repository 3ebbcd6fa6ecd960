package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/txn"
)

func mustExecute(t *testing.T, s *Session, text string) *Result {
	t.Helper()
	res, err := s.Execute(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return res
}

// TestFreedKeyStaysHeldByItsFreer: a transaction that deletes a row, or moves
// it to another key, gives the old key up only when it commits, and holds the
// new key from the moment it writes it. A concurrent insert of either key
// waits for the transaction to end. After a ROLLBACK the old key is taken
// again, so its insert fails with a unique violation, and the new key is
// free. After a COMMIT the new key is taken; the old one is free, but the
// waiting insert's snapshot still sees the row that held it, so the insert
// fails with a write conflict, as an update of that row would, and succeeds
// when retried. Either way no key is held twice.
func TestFreedKeyStaysHeldByItsFreer(t *testing.T) {
	type insert struct {
		id                   int
		onRollback, onCommit error // nil: the insert succeeds
	}
	for _, tc := range []struct {
		name, stmt string
		inserts    []insert
	}{
		{"delete", "DELETE FROM k WHERE id = 1", []insert{{1, catalog.ErrUniqueViolation, txn.ErrWriteConflict}}},
		{"update", "UPDATE k SET id = 3 WHERE id = 2", []insert{
			{2, catalog.ErrUniqueViolation, txn.ErrWriteConflict},
			{3, nil, catalog.ErrUniqueViolation},
		}},
	} {
		for _, end := range []string{"ROLLBACK", "COMMIT"} {
			t.Run(tc.name+"/"+end, func(t *testing.T) {
				db := OpenMemory()
				defer db.Close()
				freer := db.Session()
				defer freer.Close()
				mustExecute(t, freer, "CREATE TABLE k (id INT PRIMARY KEY, v TEXT)")
				mustExecute(t, freer, "INSERT INTO k VALUES (1, 'a'), (2, 'b')")
				mustExecute(t, freer, "BEGIN")
				mustExecute(t, freer, tc.stmt)

				sessions := make([]*Session, len(tc.inserts))
				results := make([]chan error, len(tc.inserts))
				for i, ins := range tc.inserts {
					s := db.Session()
					defer s.Close()
					sessions[i], results[i] = s, make(chan error, 1)
					go func(done chan<- error) {
						_, err := s.Execute(fmt.Sprintf("INSERT INTO k VALUES (%d, 'new')", ins.id))
						done <- err
					}(results[i])
				}
				time.Sleep(20 * time.Millisecond) // let the inserts reach their waits
				for i, ins := range tc.inserts {
					select {
					case err := <-results[i]:
						t.Fatalf("the insert of key %d finished while %q was in flight: %v", ins.id, tc.stmt, err)
					default:
					}
				}
				mustExecute(t, freer, end)

				for i, ins := range tc.inserts {
					err, want := <-results[i], ins.onRollback
					if end == "COMMIT" {
						want = ins.onCommit
					}
					if (want == nil) != (err == nil) || !errors.Is(err, want) {
						t.Errorf("insert of key %d after %s = %v, want %v", ins.id, end, err, want)
					}
					if errors.Is(err, txn.ErrWriteConflict) {
						mustExecute(t, sessions[i], fmt.Sprintf("INSERT INTO k VALUES (%d, 'retried')", ins.id))
					}
				}
				for _, id := range []int{1, 2, 3} {
					res := mustExecute(t, freer, fmt.Sprintf("SELECT COUNT(*) FROM k WHERE id = %d", id))
					if n := res.Rows[0][0].Int(); n > 1 {
						t.Errorf("after %s, %d rows hold key %d", end, n, id)
					}
				}
			})
		}
	}
}

// TestUniquenessOracleGeneratedHistories: four sessions run generated
// histories against one 16-key table at once. Each statement is drawn from a
// seeded generator: single-row INSERTs, DELETEs and key-changing UPDATEs,
// multi-row key shifts that can fail partway, INSERTs that fail on NOT NULL,
// and BEGIN, COMMIT and ROLLBACK. The sessions' interleaving is up to the
// scheduler, so a seed fixes what each session does, not the history. After
// every statement each session checks that its snapshot sees no primary key
// twice; inside a transaction an earlier statement failed, it checks that
// the statement was refused. At the end no key is held twice.
func TestUniquenessOracleGeneratedHistories(t *testing.T) {
	const sessions, keys, steps = 4, 16, 150
	for seed := int64(1); seed <= 4; seed++ {
		runUniquenessOracle(t, seed, sessions, keys, steps)
	}
}

func runUniquenessOracle(t *testing.T, seed int64, sessions, keys, steps int) {
	t.Helper()
	t.Logf("uniqueness oracle: seed %d", seed)
	db := OpenMemory()
	defer db.Close()
	setup := db.Session()
	defer setup.Close()
	mustExecute(t, setup, "CREATE TABLE k (id INT PRIMARY KEY, v INT)")
	for id := 0; id < keys; id += 2 {
		mustExecute(t, setup, fmt.Sprintf("INSERT INTO k VALUES (%d, 0)", id))
	}

	failures := make(chan string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			if msg := uniquenessSession(s, rand.New(rand.NewSource(seed*100+int64(i))), keys, steps); msg != "" {
				failures <- fmt.Sprintf("seed %d, session %d: %s", seed, i, msg)
			}
		}(i)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatalf("seed %d: the sessions did not finish", seed)
	}
	close(failures)
	for msg := range failures {
		t.Error(msg)
	}
	res := mustExecute(t, setup, "SELECT id FROM k")
	if dup := duplicateKey(res); dup != "" {
		t.Errorf("seed %d: at the end %s", seed, dup)
	}
}

// uniquenessSession runs one session's generated statements and returns a
// description of the first broken promise, with the session's history, or "".
func uniquenessSession(s *Session, rng *rand.Rand, keys, steps int) string {
	var history []string
	broken := func(format string, args ...any) string {
		return fmt.Sprintf(format, args...) + "\nhistory:\n" + strings.Join(history, "\n")
	}
	inTxn, failed := false, false
	for step := 0; step < steps; step++ {
		key := func() int { return rng.Intn(keys) }
		var stmt string
		switch op := rng.Intn(20); {
		case op < 5:
			stmt = fmt.Sprintf("INSERT INTO k VALUES (%d, %d)", key(), step)
		case op < 8:
			stmt = fmt.Sprintf("DELETE FROM k WHERE id = %d", key())
		case op < 11:
			stmt = fmt.Sprintf("UPDATE k SET id = %d WHERE id = %d", key(), key())
		case op < 13:
			// Shifting up a run of keys fails partway when the next key is
			// held, after the rows below it have moved.
			low := rng.Intn(keys - 3)
			stmt = fmt.Sprintf("UPDATE k SET id = id + 1 WHERE id >= %d AND id <= %d", low, low+2)
		case op < 14:
			stmt = "INSERT INTO k VALUES (NULL, 0)"
		case inTxn && op < 16:
			stmt = "ROLLBACK"
		case inTxn:
			stmt = "COMMIT"
		default:
			stmt = "BEGIN"
		}
		_, err := s.Execute(stmt)
		history = append(history, fmt.Sprintf("%s -> %v", stmt, err))
		switch {
		case stmt == "BEGIN" || stmt == "ROLLBACK":
			if err != nil {
				return broken("%s: %v", stmt, err)
			}
			inTxn, failed = stmt == "BEGIN", false
			continue
		case stmt == "COMMIT":
			if failed && !errors.Is(err, ErrTxnAborted) {
				return broken("COMMIT after a failed statement = %v, want ErrTxnAborted", err)
			}
			if !failed && err != nil {
				return broken("COMMIT: %v", err)
			}
			inTxn, failed = false, false
		case inTxn && failed:
			if !errors.Is(err, ErrTxnAborted) {
				return broken("%s after a failed statement = %v, want ErrTxnAborted", stmt, err)
			}
			continue
		case err != nil:
			if !errors.Is(err, catalog.ErrUniqueViolation) && !errors.Is(err, txn.ErrWriteConflict) &&
				!errors.Is(err, txn.ErrDeadlock) && !strings.Contains(err.Error(), "must not be NULL") {
				return broken("%s: %v", stmt, err)
			}
			failed = inTxn
			if failed {
				continue
			}
		}
		res, err := s.Execute("SELECT id FROM k")
		if err != nil {
			return broken("SELECT: %v", err)
		}
		if dup := duplicateKey(res); dup != "" {
			return broken("after %q the session's snapshot sees %s", stmt, dup)
		}
	}
	return ""
}

// duplicateKey describes the first id res holds twice, or returns "".
func duplicateKey(res *Result) string {
	seen := make(map[int64]bool)
	for _, row := range res.Rows {
		id := row[0].Int()
		if seen[id] {
			return fmt.Sprintf("key %d twice among %v", id, res.Rows)
		}
		seen[id] = true
	}
	return ""
}

// TestUpdateInOneTransactionAllocatesPerRow counts the heap allocations of a
// 10 000-row UPDATE inside one transaction. A writer claims each row by the
// stamp in its version header, which is all a claim costs: no lock-table
// entry and no held-set entry per row, and the before-image is decoded once,
// when the claim lists the version. The new row is validated once, into the
// copy the table stores and the log record carries. The same statement
// allocated 29.1 objects per row when each row also took an entry in a lock
// table and its before-image was decoded twice, and 24.1 (25.1 under the race
// detector) when the row was validated, and copied, twice and every pin of a
// cached page allocated an LRU entry; it allocates 21.1 now (22.1 under the
// race detector), and the budget sits between the two.
func TestUpdateInOneTransactionAllocatesPerRow(t *testing.T) {
	const rows = 10000
	db := OpenMemory()
	defer db.Close()
	s := db.Session()
	defer s.Close()
	loadCountTable(t, db, rows).Close()
	const update = "UPDATE c SET v = v + 1"
	mustExecute(t, s, update) // plans the statement and warms the pool

	mustExecute(t, s, "BEGIN")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := mustExecute(t, s, update)
	runtime.ReadMemStats(&after)
	mustExecute(t, s, "ROLLBACK")
	if res.RowsAffected != rows {
		t.Fatalf("the update touched %d rows, want %d", res.RowsAffected, rows)
	}
	perRow := float64(after.Mallocs-before.Mallocs) / rows
	t.Logf("UPDATE of %d rows in one transaction: %.2f allocations per row", rows, perRow)
	if perRow > 23 {
		t.Errorf("the update allocates %.2f objects per row, want at most 23", perRow)
	}
}
