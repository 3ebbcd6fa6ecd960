package catalog_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestConcurrentViewVersionDuringStampsAndReclaim reads index ranges in
// place, through Table.ViewVersion, while two sessions update, delete,
// re-insert and roll back rows on the same pages (stamping and clearing
// xmax in the page bytes, inserting versions that compact pages, and
// removing versions) and a third goroutine sweeps, reclaiming dead versions
// and freeing their slots. Every row keeps b = 1000*id - a, and s is as long
// as a is large, so a payload read torn across two versions, or from a
// slot in the middle of a move, fails to decode or breaks the invariant.
// A record id the cursor handed out may have been reclaimed (not found) or
// reused by a later version of any row, which is then a version in its own
// right and must hold the invariant too. Run with -race.
func TestConcurrentViewVersionDuringStampsAndReclaim(t *testing.T) {
	const rows, writers, rounds = 120, 2, 150
	db := engine.OpenMemory()
	defer db.Close()
	setup := db.Session()
	defer setup.Close()
	if _, err := setup.Execute("CREATE TABLE v (id INT PRIMARY KEY, a INT, b INT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < rows; id++ {
		if _, err := setup.Execute(fmt.Sprintf("INSERT INTO v VALUES (%d, 0, %d, '')", id, 1000*id)); err != nil {
			t.Fatal(err)
		}
	}
	table, err := db.Catalog().GetTable("v")
	if err != nil {
		t.Fatal(err)
	}
	pkey := table.PrimaryIndex()

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Readers: each version read in place must decode and hold the invariant.
	var viewed atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			check := func(meta storage.VersionMeta, payload []byte) error {
				row, err := types.DecodeTuple(payload)
				if err != nil {
					return fmt.Errorf("version %+v does not decode: %w", meta, err)
				}
				if len(row) != 4 {
					return fmt.Errorf("version %+v has %d values", meta, len(row))
				}
				id, a, b, s := row[0].Int(), row[1].Int(), row[2].Int(), row[3].String()
				if b != 1000*id-a || int64(len(s)) != a%40 {
					return fmt.Errorf("version %+v reads %v: not a version any writer made", meta, row)
				}
				viewed.Add(1)
				return nil
			}
			var batch []storage.RecordID
			for !stop.Load() {
				lo := rng.Intn(rows)
				cur := pkey.Tree.Cursor(btree.Range{
					Low:     types.EncodeKey(nil, types.NewInt(int64(lo))),
					High:    types.EncodeKey(nil, types.NewInt(int64(lo+15))),
					Reverse: rng.Intn(2) == 0,
				})
				for batch = cur.Next(batch[:0]); len(batch) > 0; batch = cur.Next(batch[:0]) {
					for _, rid := range batch {
						err := table.ViewVersion(rid, check)
						if err != nil && !errors.Is(err, storage.ErrRecordNotFound) {
							t.Error(err)
							return
						}
					}
				}
			}
		}(int64(r + 1))
	}
	// Sweeper: reclaims dead versions, freeing slots for reuse.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := db.Transactions().Sweep(table, true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Writers: each owns the ids congruent to its number, so they never wait
	// on each other.
	var written sync.WaitGroup
	for w := 0; w < writers; w++ {
		written.Add(1)
		go func(w int) {
			defer written.Done()
			s := db.Session()
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			exec := func(q string) bool {
				if _, err := s.Execute(q); err != nil {
					t.Errorf("writer %d: %s: %v", w, q, err)
					return false
				}
				return true
			}
			a := make(map[int]int) // each owned row's committed a
			for i := 0; i < rounds; i++ {
				id := rng.Intn(rows/writers)*writers + w
				if !exec("BEGIN") {
					return
				}
				// a grows by one, b follows it and s is a%40 bytes long.
				next := a[id] + 1
				q := fmt.Sprintf("UPDATE v SET a = %d, b = %d, s = '%s' WHERE id = %d", next, 1000*id-next, strings.Repeat("x", next%40), id)
				if i%5 == 0 {
					q, next = fmt.Sprintf("DELETE FROM v WHERE id = %d", id), 0
				}
				if !exec(q) {
					return
				}
				if rng.Intn(3) == 0 {
					if !exec("ROLLBACK") {
						return
					}
					continue
				}
				if !exec("COMMIT") {
					return
				}
				a[id] = next
				if i%5 == 0 && !exec(fmt.Sprintf("INSERT INTO v VALUES (%d, 0, %d, '')", id, 1000*id)) {
					return
				}
			}
		}(w)
	}
	written.Wait()
	stop.Store(true)
	wg.Wait()
	if viewed.Load() == 0 {
		t.Fatal("the readers viewed no version")
	}
}
