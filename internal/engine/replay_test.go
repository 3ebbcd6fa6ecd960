package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestReplayMatchesLiveDatabase is a generated oracle for recovery. Each
// seeded history starts from more rows than a two-level B+tree holds (64·65
// keys), so the checkpoint image's key indexes install three levels deep,
// then writes a keyed table through SQL — inserts, updates that change both
// unique keys and the heavily duplicated indexed column g, updates that grow
// a row to about 5 KB, deletes, and explicit transactions of which some roll
// back — and takes one checkpoint part-way. After close and reopen, the
// table must read exactly as it read live, by either key and through the
// index on g, and the reopen must have started from the checkpoint and
// applied a log tail after it.
func TestReplayMatchesLiveDatabase(t *testing.T) {
	const ops = 600
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "wow.wal")
			db, err := Open(Options{WALPath: walPath})
			if err != nil {
				t.Fatal(err)
			}
			s := db.Session()
			exec := func(q string) {
				t.Helper()
				if _, err := s.Execute(q); err != nil {
					t.Fatalf("seed %d: %.80s: %v", seed, q, err)
				}
			}
			exec("CREATE TABLE t (id INT PRIMARY KEY, k INT UNIQUE, g INT, pad TEXT)")
			exec("CREATE INDEX t_g ON t (g)")

			r := rand.New(rand.NewSource(seed))
			// ids approximates the live ids: statements naming an id that
			// is gone affect no row, which is harmless. New keys come from
			// counters, so no statement can hit a unique violation.
			var ids []int
			const preload = 64*65 + 340
			ins, err := s.Prepare("INSERT INTO t VALUES (?, ?, ?, 'p')")
			if err != nil {
				t.Fatal(err)
			}
			batch := make([][]types.Value, preload)
			for i := range batch {
				batch[i] = []types.Value{intv(i + 1), intv(i + 1), intv(i % 7)}
				ids = append(ids, i+1)
			}
			if _, err := ins.ExecBatch(batch); err != nil {
				t.Fatal(err)
			}
			nextID, nextK := preload+1, preload+1
			pick := func() int { return ids[r.Intn(len(ids))] }
			// write issues one random row statement; with no row left it
			// inserts.
			write := func() {
				switch op := r.Intn(10); {
				case op < 4 || len(ids) == 0:
					exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, '%s')",
						nextID, nextK, r.Intn(7), strings.Repeat("i", r.Intn(40))))
					ids = append(ids, nextID)
					nextID++
					nextK++
				case op < 6:
					old := pick()
					exec(fmt.Sprintf("UPDATE t SET id = %d, k = %d, g = %d WHERE id = %d", nextID, nextK, r.Intn(7), old))
					for i, id := range ids {
						if id == old {
							ids[i] = nextID
						}
					}
					nextID++
					nextK++
				case op < 8:
					exec(fmt.Sprintf("UPDATE t SET pad = '%s' WHERE id = %d",
						strings.Repeat("g", 4500+r.Intn(1000)), pick()))
				default:
					i := r.Intn(len(ids))
					exec(fmt.Sprintf("DELETE FROM t WHERE id = %d", ids[i]))
					ids = append(ids[:i], ids[i+1:]...)
				}
			}

			checkpointAt := ops/4 + r.Intn(ops/2)
			for n := 0; n < ops; {
				if n >= checkpointAt {
					if _, err := db.Checkpoint(); err != nil {
						t.Fatalf("seed %d: checkpoint: %v", seed, err)
					}
					checkpointAt = ops
				}
				if r.Intn(8) > 0 {
					write()
					n++
					continue
				}
				exec("BEGIN")
				saved := append([]int(nil), ids...)
				for i := 2 + r.Intn(4); i > 0; i-- {
					write()
					n++
				}
				if r.Intn(3) == 0 {
					exec("ROLLBACK")
					ids = saved
				} else {
					exec("COMMIT")
				}
			}

			queries := []string{
				"SELECT * FROM t ORDER BY id",
				"SELECT * FROM t ORDER BY k",
				"SELECT * FROM t WHERE g = 3 ORDER BY id",
				"SELECT id, g FROM t WHERE g >= 5 ORDER BY g, id",
				"SELECT COUNT(*) FROM t WHERE g < 2",
			}
			read := func(s *Session) []string {
				t.Helper()
				var out []string
				for _, q := range queries {
					res, err := s.Query(q)
					if err != nil {
						t.Fatalf("seed %d: %s: %v", seed, q, err)
					}
					out = append(out, fmt.Sprint(res.Rows))
				}
				return out
			}
			live := read(s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db, err = Open(Options{WALPath: walPath})
			if err != nil {
				t.Fatalf("seed %d: reopen: %v", seed, err)
			}
			defer db.Close()
			if rec := db.Recovery(); !rec.FromCheckpoint || rec.TailApplied == 0 {
				t.Errorf("seed %d: recovery = %+v, want a checkpoint and a tail", seed, rec)
			}
			s = db.Session()
			defer s.Close()
			for i, got := range read(s) {
				if got != live[i] {
					t.Errorf("seed %d: %s after reopen differs from the live result\n got: %.300s\nwant: %.300s",
						seed, queries[i], got, live[i])
				}
			}
		})
	}
}
