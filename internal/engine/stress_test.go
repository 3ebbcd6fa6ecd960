package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// tolerable reports whether an error is expected noise of the stress mix —
// contention and schema-change windows — rather than a correctness failure.
func tolerable(err error) bool {
	if err == nil {
		return true
	}
	msg := err.Error()
	for _, s := range []string{
		"does not exist",         // dropped-table / dropped-index window
		"no table or view named", // the planner's phrasing of the same window
		"no table named",         // the catalog's phrasing (query opened mid-drop)
		"no index named",         // concurrent DROP INDEX
		"write conflict",         // first-updater-wins abort; the loser retries
		"deadlock detected",      // waits-for cycle broken; the victim retries
		"unknown column",         // recreated table mid-prepare
		"changed shape",          // re-prepare after schema change
	} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// TestSharedPlanCacheConcurrentStress mixes Prepare / Query / ExecBatch / DDL
// across many concurrent sessions sharing one plan cache, under -race.
//
// The snapshot oracle: transfer sessions move money between the two rows of
// "ledger" (total 2000) inside explicit transactions while every worker
// repeatedly reads the whole table. A snapshot read is atomic, so any sum
// other than 2000 is a torn read, and any row count other than 2 is a
// resurrected or vanished row.
//
// The staleness oracle: a coordinator repeatedly drops and recreates table
// "swap", inserts a row carrying the new generation number, and only then
// publishes the generation. Any query that starts after generation g is
// published and still returns a row with gen < g executed a stale plan (it
// read the dropped table's heap through a skeleton the schema change should
// have invalidated). Errors and empty results are fine — the next
// drop/create window is always open — but an old generation is not.
func TestSharedPlanCacheConcurrentStress(t *testing.T) {
	db := OpenMemory()
	// Small enough that eviction happens under the churn queries below.
	db.plans = newPlanCache(32)
	defer db.Close()

	const workers = 8
	const coordinatorRounds = 25
	const workerIters = 120

	setup := db.Session()
	if _, err := setup.Execute("CREATE TABLE swap (id INT PRIMARY KEY, gen INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Execute("INSERT INTO swap VALUES (1, 0)"); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if _, err := setup.Execute(fmt.Sprintf("CREATE TABLE wt_%d (id INT PRIMARY KEY, v INT)", w)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := setup.Execute("CREATE TABLE ledger (id INT PRIMARY KEY, amount FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Execute("INSERT INTO ledger VALUES (1, 1000), (2, 1000)"); err != nil {
		t.Fatal(err)
	}

	var gen atomic.Int64
	var staleness atomic.Int64
	var rowsSeen atomic.Int64
	var ledgerReads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Transfer sessions: contend on the two ledger rows, retrying the aborts
	// first-updater-wins and deadlock detection hand out. Readers below assert
	// the invariant these writes preserve.
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			// The two movers transfer in opposite directions so balances
			// keep crossing and the row claims keep colliding.
			from, to := 1, 2
			if m == 1 {
				from, to = 2, 1
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Execute("BEGIN"); err != nil {
					t.Errorf("mover %d begin: %v", m, err)
					return
				}
				_, err := s.Execute(fmt.Sprintf("UPDATE ledger SET amount = amount - 10 WHERE id = %d", from))
				if err == nil {
					_, err = s.Execute(fmt.Sprintf("UPDATE ledger SET amount = amount + 10 WHERE id = %d", to))
				}
				if err != nil {
					if !tolerable(err) {
						t.Errorf("mover %d update: %v", m, err)
					}
					if _, err := s.Execute("ROLLBACK"); err != nil {
						t.Errorf("mover %d rollback: %v", m, err)
						return
					}
					continue
				}
				if _, err := s.Execute("COMMIT"); err != nil && !tolerable(err) {
					t.Errorf("mover %d commit: %v", m, err)
					return
				}
			}
		}(m)
	}

	// Coordinator: the schema-changing session.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		s := db.Session()
		defer s.Close()
		for g := int64(1); g <= coordinatorRounds; g++ {
			if _, err := s.Execute("DROP TABLE swap"); err != nil && !tolerable(err) {
				t.Errorf("coordinator drop: %v", err)
				return
			}
			if _, err := s.Execute("CREATE TABLE swap (id INT PRIMARY KEY, gen INT)"); err != nil {
				t.Errorf("coordinator create: %v", err)
				return
			}
			if _, err := s.Execute(fmt.Sprintf("INSERT INTO swap VALUES (1, %d)", g)); err != nil && !tolerable(err) {
				t.Errorf("coordinator insert: %v", err)
				return
			}
			gen.Store(g)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			table := fmt.Sprintf("wt_%d", w)
			nextID := int64(1)
			for i := 0; i < workerIters; i++ {
				select {
				case <-stop:
					return
				default:
				}

				// 1. Prepare + Query the generation probe — the staleness
				// oracle. Every worker prepares the identical text, so this
				// also hammers the shared cache entry across sessions.
				expect := gen.Load()
				func() {
					st, err := s.Prepare("SELECT gen FROM swap WHERE id = ?")
					if err != nil {
						if !tolerable(err) {
							t.Errorf("worker %d prepare probe: %v", w, err)
						}
						return
					}
					defer st.Close()
					rows, err := st.Query(types.NewInt(1))
					if err != nil {
						if !tolerable(err) {
							t.Errorf("worker %d query probe: %v", w, err)
						}
						return
					}
					defer rows.Close()
					for rows.Next() {
						got := rows.Row()[0].Int()
						rowsSeen.Add(1)
						if got < expect {
							staleness.Add(1)
							t.Errorf("worker %d: stale plan result: saw gen %d after gen %d was published", w, got, expect)
						}
					}
					if err := rows.Err(); err != nil && !tolerable(err) {
						t.Errorf("worker %d probe rows: %v", w, err)
					}
				}()

				// 2. ExecBatch into the worker's own table (no cross-worker
				// lock contention, but the plan lives in the shared cache).
				func() {
					st, err := s.Prepare("INSERT INTO " + table + " (id, v) VALUES (?, ?)")
					if err != nil {
						if !tolerable(err) {
							t.Errorf("worker %d prepare insert: %v", w, err)
						}
						return
					}
					defer st.Close()
					batch := make([][]types.Value, 5)
					for j := range batch {
						batch[j] = []types.Value{types.NewInt(nextID), types.NewInt(int64(i))}
						nextID++
					}
					if _, err := st.ExecBatch(batch); err != nil && !tolerable(err) {
						t.Errorf("worker %d ExecBatch: %v", w, err)
					}
				}()

				// 3. A prepared parameterized UPDATE, rebinding per call.
				func() {
					st, err := s.Prepare("UPDATE " + table + " SET v = ? WHERE id = ?")
					if err != nil {
						if !tolerable(err) {
							t.Errorf("worker %d prepare update: %v", w, err)
						}
						return
					}
					defer st.Close()
					if _, err := st.Exec(types.NewInt(int64(i)), types.NewInt(1)); err != nil && !tolerable(err) {
						t.Errorf("worker %d update: %v", w, err)
					}
				}()

				// 4. DDL from the workers too: flip an index on the private
				// table, bumping the catalog version everyone else checks.
				if i%10 == 5 {
					idx := fmt.Sprintf("idx_%s_v", table)
					if _, err := s.Execute(fmt.Sprintf("CREATE INDEX %s ON %s (v)", idx, table)); err != nil && !tolerable(err) {
						t.Errorf("worker %d create index: %v", w, err)
					}
					if _, err := s.Execute("DROP INDEX " + idx); err != nil && !tolerable(err) {
						t.Errorf("worker %d drop index: %v", w, err)
					}
				}

				// 5. The snapshot oracle: read the whole ledger through a
				// streaming cursor while the movers are writing it. The
				// cursor's snapshot must show one atomic state — exactly two
				// rows summing to 2000 — never a half-applied transfer.
				func() {
					st, err := s.Prepare("SELECT id, amount FROM ledger")
					if err != nil {
						if !tolerable(err) {
							t.Errorf("worker %d prepare ledger probe: %v", w, err)
						}
						return
					}
					defer st.Close()
					rows, err := st.Query()
					if err != nil {
						if !tolerable(err) {
							t.Errorf("worker %d ledger probe: %v", w, err)
						}
						return
					}
					defer rows.Close()
					sum, count := 0.0, 0
					for rows.Next() {
						sum += rows.Row()[1].Float()
						count++
					}
					if err := rows.Err(); err != nil {
						if !tolerable(err) {
							t.Errorf("worker %d ledger rows: %v", w, err)
						}
						return
					}
					ledgerReads.Add(1)
					if count != 2 {
						t.Errorf("worker %d: ledger snapshot has %d rows, want 2 (resurrected or vanished row)", w, count)
					}
					if sum != 2000 {
						t.Errorf("worker %d: ledger snapshot sums to %v, want 2000 (torn read)", w, sum)
					}
				}()

				// 6. Churn: a unique statement text, forcing evictions in the
				// small shared cache while other sessions are mid-lookup.
				if i%7 == 3 {
					churn := fmt.Sprintf("SELECT v FROM %s WHERE id = %d", table, i)
					if _, err := s.Query(churn); err != nil && !tolerable(err) {
						t.Errorf("worker %d churn: %v", w, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if n := staleness.Load(); n != 0 {
		t.Fatalf("%d stale-plan results observed", n)
	}
	if rowsSeen.Load() == 0 {
		t.Fatal("the probe never returned a row; the oracle did not exercise anything")
	}
	if ledgerReads.Load() == 0 {
		t.Fatal("the ledger probe never completed; the snapshot oracle did not exercise anything")
	}
	if got, capacity := db.PlanCacheLen(), 32; got > capacity {
		t.Fatalf("shared cache holds %d entries, capacity %d", got, capacity)
	}
	stats := db.Stats()
	if stats.PlanCacheHits == 0 {
		t.Fatal("no shared-cache hits across 8 sessions preparing identical statements")
	}
	if stats.PlanCacheEvictions == 0 {
		t.Fatal("churn queries never evicted; the cache bound is not being exercised")
	}
	t.Logf("stress: %d probe rows, %d ledger reads, cache hits=%d misses=%d evictions=%d, committed=%d aborted=%d, conflicts=%d deadlocks=%d gc=%d",
		rowsSeen.Load(), ledgerReads.Load(), stats.PlanCacheHits, stats.PlanCacheMisses, stats.PlanCacheEvictions,
		stats.Committed, stats.Aborted, stats.WriteConflicts, stats.DeadlocksDetected, stats.VersionsGCed)
}
