package catalog_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestConcurrentVacuumKeepsLiveRows has two sessions commit updates to one
// table at once. Every commit sweeps the table's unsettled list, so the two
// sweep concurrently, while a third goroutine runs whole-list vacuums and
// holds a snapshot now and then, so sweeps stop at pinned entries and reclaim
// them later. Reclaimed slots are reused by the next updates' new versions.
// A reclaim that removed the wrong version — the live row an insert had put
// into a slot another reclaim had just freed, as a collect-then-recheck
// vacuum once did — shows as "update touched 0 rows" or rows missing from
// the count. Run with -race.
func TestConcurrentVacuumKeepsLiveRows(t *testing.T) {
	const rows, rounds = 200, 6
	db := engine.OpenMemory()
	defer db.Close()
	setup := db.Session()
	if _, err := setup.Execute("CREATE TABLE c (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < rows; id++ {
		if _, err := setup.Execute(fmt.Sprintf("INSERT INTO c VALUES (%d, 0)", id)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	vacuumed := make(chan struct{})
	go func() {
		defer close(vacuumed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			pin := db.Transactions().AcquireSnapshot()
			db.Vacuum() // reclaims only what died before the pin
			pin.Release()
			db.Vacuum()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			defer s.Close()
			for round := 0; round < rounds; round++ {
				for id := w; id < rows; id += 2 { // each session owns half the keys
					res, err := s.Execute(fmt.Sprintf("UPDATE c SET v = v + 1 WHERE id = %d", id))
					if err != nil {
						t.Errorf("session %d: update of id %d: %v", w, id, err)
						return
					}
					if res.RowsAffected != 1 {
						t.Errorf("session %d: update of id %d touched %d rows", w, id, res.RowsAffected)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-vacuumed

	res, err := setup.Query("SELECT id, v FROM c ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != rows {
		t.Errorf("%d rows survive, want %d", len(res.Rows), rows)
	}
	for i, row := range res.Rows {
		if i >= rows {
			break
		}
		if row[0].Int() != int64(i) || row[1].Int() != rounds {
			t.Fatalf("row %d is (id %d, v %d), want (%d, %d)", i, row[0].Int(), row[1].Int(), i, rounds)
		}
	}
	if db.Stats().VersionsGCed == 0 {
		t.Error("no version was reclaimed: the test did not exercise the sweep")
	}
	db.Vacuum()
	if n := db.Stats().UnsettledVersions; n != 0 {
		t.Errorf("%d unsettled versions once quiet, want 0", n)
	}
}
