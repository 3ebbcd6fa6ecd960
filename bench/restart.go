package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// restart.recover: the durable engine used the other way round — replaying
// a crashed log instead of appending to one.

var restartKinds = []string{"recover"}

const (
	// historyBatch is how many rows one transaction of the ingested history
	// writes.
	historyBatch   = 100
	countSumSQL    = "SELECT COUNT(*), SUM(total) FROM orders"
	updateTotalSQL = "UPDATE orders SET total = ? WHERE id = ?"
)

type restart struct {
	env       env
	imageDir  string // the frozen crash image
	wantRows  int
	wantSum   float64
	userBytes int64 // encoded size of the rows that survive the crash

	// what the latest operation saw, for the per-layer metrics
	recovery    engine.RecoveryInfo
	storedBytes int64
}

func newRestart(e env) *restart { return &restart{env: e} }

func (r *restart) kinds() []string { return restartKinds }

// setup ingests a fixed single-threaded history of batched inserts and
// updates with two driver-called checkpoints, leaves one transaction
// unacknowledged, and freezes the log below the durable LSN as the crash
// image every operation recovers. The history does not depend on the seed, so
// bytes stored per user byte repeat exactly.
func (r *restart) setup() error {
	sz := r.env.sz
	srcDir := filepath.Join(r.env.dir, "recover-src")
	defer os.RemoveAll(srcDir)
	db, wal, err := openDurable(srcDir, 0)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := createSchema(db); err != nil {
		return err
	}
	s := db.Session()
	defer s.Close()

	// The body: insert batches with an update batch after every third, a
	// checkpoint half way and one at its end. The tail, which every recovery
	// replays record by record: a few insert batches and one short update
	// transaction. (Replaying an update searches the whole table for its
	// before-image, so the tail's updates are kept few.)
	batches := sz.recoverInserts / historyBatch
	tailBatches := min(10, batches/3)
	tailUpdates := min(20, sz.recoverUpdates/10)
	const customers = 1000
	order := func(id int) types.Tuple { return orderTuple(id, customers) }
	totals := make([]float64, sz.recoverInserts+1)
	update, err := s.Prepare(updateTotalSQL)
	if err != nil {
		return err
	}
	updated := 0
	updateBatch := func(n, maxID int) error {
		if _, err := s.Execute("BEGIN"); err != nil {
			return err
		}
		for ; n > 0; n-- {
			id := 1 + int(mix(uint64(updated), 7)%uint64(maxID))
			totals[id] = float64(mix(uint64(updated), 8)%100000) / 100
			updated++
			if _, err := update.Exec(types.NewFloat(totals[id]), types.NewInt(int64(id))); err != nil {
				return err
			}
		}
		_, err := s.Execute("COMMIT")
		return err
	}
	for b := 0; b < batches; b++ {
		first := b*historyBatch + 1
		last := first + historyBatch - 1
		if _, err := load(s, insertOrderSQL, first, last, historyBatch, order); err != nil {
			return err
		}
		for id := first; id <= last; id++ {
			totals[id] = orderTotal(id)
		}
		body := b < batches-tailBatches
		if left := sz.recoverUpdates - tailUpdates - updated; body && b%3 == 2 && left > 0 {
			if err := updateBatch(min(historyBatch, left), last); err != nil {
				return err
			}
		}
		if b == (batches-tailBatches)/2 || b == batches-tailBatches-1 {
			if left := sz.recoverUpdates - tailUpdates - updated; b == batches-tailBatches-1 && left > 0 {
				if err := updateBatch(left, last); err != nil {
					return err
				}
			}
			if _, err := db.Checkpoint(); err != nil {
				return err
			}
		}
	}
	if err := updateBatch(tailUpdates, sz.recoverInserts); err != nil {
		return err
	}
	// The unacknowledged transaction: written, never committed, never synced.
	if _, err := s.Execute("BEGIN"); err != nil {
		return err
	}
	if _, err := s.Execute(fmt.Sprintf("INSERT INTO orders (id, customer_id, placed, total) VALUES (%d, 1, '1983-01-01', 1)", ghostID)); err != nil {
		return err
	}
	r.imageDir = filepath.Join(r.env.dir, "recover-image")
	if _, err := crashImage(wal, db.Transactions().WAL().DurableLSN(), r.imageDir); err != nil {
		return err
	}
	if _, err := s.Execute("ROLLBACK"); err != nil {
		return err
	}

	r.wantRows, r.wantSum, r.userBytes = sz.recoverInserts, 0, 0
	for id := 1; id <= sz.recoverInserts; id++ {
		row := order(id)
		row[3] = types.NewFloat(totals[id])
		r.wantSum += totals[id]
		r.userBytes += int64(len(types.EncodeTuple(nil, row)))
	}
	return nil
}

// counters has no live system to read: each operation opens its own engine.
func (r *restart) counters(*counters) {}

// verify has nothing left to check: every recovery was checked when made.
func (r *restart) verify() error { return nil }

func (r *restart) close() error { return os.RemoveAll(r.imageDir) }

type restartWorker struct {
	r  *restart
	tr *tracer
	n  int
}

func (r *restart) worker(i int, tr *tracer) (worker, error) {
	return &restartWorker{r: r, tr: tr}, nil
}

func (w *restartWorker) counters(*counters) {}
func (w *restartWorker) close()             {}

// op copies the crash image (untimed), then times: open and recover, answer
// the first query, close, reopen in place, answer again, close.
func (w *restartWorker) op() (int, time.Duration, error) {
	w.n++
	dir := filepath.Join(w.r.env.dir, fmt.Sprintf("recover-%d", w.n))
	defer os.RemoveAll(dir)
	image := filepath.Join(w.r.imageDir, "db.wal")
	wal, err := crashImage(image, -1, dir)
	if err != nil {
		return 0, 0, err
	}
	opts := engine.Options{WALPath: wal, DataPath: filepath.Join(dir, "db.data")}

	w.tr.nextOp()
	w.tr.begin("op:recover")
	start := time.Now()
	for pass := 0; pass < 2 && err == nil; pass++ {
		err = w.openCheckClose(opts, pass == 0)
	}
	d := time.Since(start)
	w.tr.end()
	if err == nil {
		w.r.storedBytes, err = dirBytes(dir)
	}
	return 0, d, err
}

func (w *restartWorker) openCheckClose(opts engine.Options, first bool) error {
	w.tr.begin("engine.Open")
	db, err := engine.Open(opts)
	w.tr.end()
	if err != nil {
		return err
	}
	if first {
		w.r.recovery = db.Recovery()
	}
	w.tr.begin("Session.Query")
	s := db.Session()
	res, err := s.Query(countSumSQL)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	w.tr.end()
	if err == nil {
		err = checkCountSum(res, w.r.wantRows, w.r.wantSum)
	}
	w.tr.begin("Database.Close")
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	w.tr.end()
	return err
}

// checkCountSum is the recovery oracle: the row count and the checksum (the
// sum of the totals) of the acknowledged history, and nothing else.
func checkCountSum(res *engine.Result, rows int, sum float64) error {
	if len(res.Rows) != 1 || int(res.Rows[0][0].Int()) != rows || math.Abs(res.Rows[0][1].Float()-sum) > 1e-6*sum {
		return fmt.Errorf("recovered database holds %v, want %d rows totalling %.2f", res.Rows, rows, sum)
	}
	return nil
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// plan needs no ladder: the operation's own calls split it. Opening is the
// log load and replay, the rest is the first query and the page flush.
func (r *restart) plan() (*layerPlan, error) {
	return &layerPlan{
		direct: map[string]int{"engine.Open": lyTxnWAL, "Session.Query": lyExecStorage, "Database.Close": lyExecStorage},
		rest:   lyEngine,
		walRow: orderTuple(1, 1000),
	}, nil
}
