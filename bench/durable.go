package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// oltp.durable: local committers writing beside readers on a file-backed,
// group-committing, periodically checkpointing engine.

const (
	dInsert = iota
	dUpdate
	dSum
)

var durableKinds = []string{"insert", "update", "sum"}

const (
	durableClients = 2
	// Client i inserts order ids from durableIDBase*(i+1) up, so committers
	// never conflict.
	durableIDBase = 1_000_000
	// sumSpan is how many of its latest inserts one read-back sums.
	sumSpan = 50
	// ghostID is the order inserted but never committed before the crash
	// image is cut; it must not survive recovery.
	ghostID = 999_999_999

	insertReturningSQL = "INSERT INTO orders (id, customer_id, placed, total) VALUES (?, ?, ?, ?) RETURNING id, total"
	updateCreditSQL    = "UPDATE customers SET credit = ? WHERE id = ?"
	updatePriceSQL     = "UPDATE order_items SET price = ? WHERE id = ?"
	sumOrdersSQL       = "SELECT COUNT(*), SUM(total) FROM orders WHERE id >= ? AND id <= ?"
)

// acked is what one client was told had committed. It belongs to the
// workload, not the worker, so it spans the run's phases.
type acked struct {
	nextID int
	totals []float64 // totals[k] is the total of order firstID+k
	// updates maps a row id to the last acknowledged value of the column
	// this client updates: customers.credit (even clients) or
	// order_items.price (odd clients).
	updates map[int]float64
}

type durable struct {
	env   env
	db    *engine.Database
	wal   string
	acked [durableClients]*acked
}

func newDurable(e env) *durable {
	d := &durable{env: e}
	for i := range d.acked {
		d.acked[i] = &acked{nextID: durableIDBase * (i + 1), updates: map[int]float64{}}
	}
	return d
}

func (d *durable) kinds() []string { return durableKinds }

// openDurable opens a file-backed engine in dir with the benchmark's flush
// policy: group commit on, every commit waits for its fsync, and a
// checkpoint every interval.
func openDurable(dir string, checkpointEvery time.Duration) (*engine.Database, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	wal := filepath.Join(dir, "db.wal")
	db, err := engine.Open(engine.Options{
		WALPath:            wal,
		DataPath:           filepath.Join(dir, "db.data"),
		CheckpointInterval: checkpointEvery,
	})
	return db, wal, err
}

func (d *durable) setup() error {
	var err error
	if d.db, d.wal, err = openDurable(filepath.Join(d.env.dir, "durable"), d.env.sz.checkpointEvery); err != nil {
		return err
	}
	return d.populate(d.db)
}

// populate creates the schema and loads the customers and orders every
// committer starts from.
func (d *durable) populate(db *engine.Database) error {
	if err := createSchema(db); err != nil {
		return err
	}
	s := db.Session()
	defer s.Close()
	sz := d.env.sz
	if _, err := load(s, insertCustomerSQL, 1, sz.durableCustomers, 500, customerTuple); err != nil {
		return err
	}
	order := func(id int) types.Tuple { return orderTuple(id, sz.durableCustomers) }
	if _, err := load(s, insertOrderSQL, 1, sz.durableOrders, 500, order); err != nil {
		return err
	}
	_, err := load(s, insertItemSQL, 1, sz.durableItems, 500, itemTuple)
	return err
}

func (d *durable) counters(c *counters) { c.addEngine(d.db) }

func (d *durable) close() error {
	err := d.db.Close()
	if rerr := os.RemoveAll(filepath.Join(d.env.dir, "durable")); err == nil {
		err = rerr
	}
	return err
}

// verify is the durability oracle. It leaves one transaction uncommitted,
// copies only the log bytes below the durable LSN (so anything the operating
// system still held unflushed is discarded, as a power cut would), recovers
// that image in a fresh engine and requires every acknowledged write.
func (d *durable) verify() error {
	ghost := d.db.Session()
	defer ghost.Close()
	if _, err := ghost.Execute("BEGIN"); err != nil {
		return err
	}
	if _, err := ghost.Execute(fmt.Sprintf("INSERT INTO orders (id, customer_id, placed, total) VALUES (%d, 1, '1983-01-01', 1)", ghostID)); err != nil {
		return err
	}
	imageDir := filepath.Join(d.env.dir, "durable-image")
	defer os.RemoveAll(imageDir)
	image, err := crashImage(d.wal, d.db.Transactions().WAL().DurableLSN(), imageDir)
	if err != nil {
		return err
	}
	if _, err := ghost.Execute("ROLLBACK"); err != nil {
		return err
	}
	recovered, err := engine.Open(engine.Options{WALPath: image})
	if err != nil {
		return fmt.Errorf("recovering the crash image: %w", err)
	}
	defer recovered.Close()
	return checkRecovered(recovered, d.acked[:], d.env.sz)
}

// crashImage copies the first lsn bytes of the log at wal, and its checkpoint
// pointer, into dir and returns the copy's path.
func crashImage(wal string, lsn int64, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(dir, filepath.Base(wal))
	if err := copyFile(wal, dst, lsn); err != nil {
		return "", err
	}
	if err := copyFile(wal+".ckpt", dst+".ckpt", -1); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	return dst, nil
}

// copyFile copies the first n bytes of src (all of it when n < 0) to dst.
func copyFile(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	var r io.Reader = in
	if n >= 0 {
		r = io.LimitReader(in, n)
	}
	_, err = io.Copy(out, r)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkRecovered requires, in a recovered database, exactly the loaded and
// the acknowledged orders (no more: the uncommitted one must be gone) with
// their totals, and the last acknowledged value of every updated row.
func checkRecovered(db *engine.Database, clients []*acked, sz sizes) error {
	s := db.Session()
	defer s.Close()
	res, err := s.Query("SELECT id, total FROM orders")
	if err != nil {
		return err
	}
	got := make(map[int]float64, len(res.Rows))
	for _, row := range res.Rows {
		got[int(row[0].Int())] = row[1].Float()
	}
	for id := 1; id <= sz.durableOrders; id++ {
		if t, ok := got[id]; !ok || t != orderTotal(id) {
			return fmt.Errorf("loaded order %d is missing or wrong after recovery", id)
		}
	}
	want := sz.durableOrders
	for i, a := range clients {
		first := durableIDBase * (i + 1)
		for k, total := range a.totals {
			if t, ok := got[first+k]; !ok || t != total {
				return fmt.Errorf("acknowledged order %d (total %.2f) is missing or wrong after recovery", first+k, total)
			}
		}
		want += len(a.totals)
	}
	if len(got) != want {
		return fmt.Errorf("recovered %d orders, %d were acknowledged", len(got), want)
	}
	// Each updated table: the loaded value unless a client's update was
	// acknowledged, then the last such.
	for _, t := range []struct {
		query  string
		rows   int
		loaded func(id int) float64
		odd    bool
	}{
		{"SELECT id, credit FROM customers", sz.durableCustomers, func(id int) float64 { return customerTuple(id)[3].Float() }, false},
		{"SELECT id, price FROM order_items", sz.durableItems, func(id int) float64 { return itemTuple(id)[4].Float() }, true},
	} {
		res, err := s.Query(t.query)
		if err != nil {
			return err
		}
		if len(res.Rows) != t.rows {
			return fmt.Errorf("%s: recovered %d rows, want %d", t.query, len(res.Rows), t.rows)
		}
		for _, row := range res.Rows {
			id := int(row[0].Int())
			want := t.loaded(id)
			for i, a := range clients {
				if v, ok := a.updates[id]; ok && (i%2 == 1) == t.odd {
					want = v
				}
			}
			if row[1].Float() != want {
				return fmt.Errorf("%s: row %d recovered as %.2f, last acknowledged %.2f", t.query, id, row[1].Float(), want)
			}
		}
	}
	return nil
}

type durableWorker struct {
	d       *durable
	id      int
	a       *acked
	rng     *rand.Rand
	tr      *tracer
	session *engine.Session
	insert  *engine.Stmt
	update  *engine.Stmt
	sum     *engine.Stmt
	user    float64 // encoded bytes of the tuples written
}

func (d *durable) worker(i int, tr *tracer) (worker, error) {
	w := &durableWorker{d: d, id: i, a: d.acked[i], tr: tr, session: d.db.Session(),
		rng: rand.New(rand.NewSource(d.env.seed*1000 + int64(i)))}
	var err error
	if w.insert, err = w.session.Prepare(insertReturningSQL); err != nil {
		return nil, err
	}
	updateSQL := updateCreditSQL
	if w.updatesItems() {
		updateSQL = updatePriceSQL
	}
	if w.update, err = w.session.Prepare(updateSQL); err != nil {
		return nil, err
	}
	if w.sum, err = w.session.Prepare(sumOrdersSQL); err != nil {
		return nil, err
	}
	return w, nil
}

// updatesItems says which table this client's updates go to: customers for
// even clients, order_items for odd ones. Both tables are small, because
// recovering an update searches its whole table for the before-image and the
// end oracle replays a second's worth of them. Each table has
// one updating client because, at the commit this benchmark was written
// against, two transactions that vacuum one table at the same time can delete
// a live row (both collect the same dead record id; the second removes it
// after an insert has reused the slot). One updater per table means one
// vacuumer per table, so the workload holds before and after that is fixed.
func (w *durableWorker) updatesItems() bool { return w.id%2 == 1 }

func (w *durableWorker) counters(c *counters) { c[cUserBytes] += w.user }

func (w *durableWorker) close() { w.session.Close() }

func (w *durableWorker) op() (int, time.Duration, error) {
	sz := w.d.env.sz
	switch p := w.rng.Intn(10); {
	case p < 6 || len(w.a.totals) == 0:
		id := w.a.nextID
		row := orderTuple(id, sz.durableCustomers)
		var got types.Tuple
		d, err := w.tr.timed("insert", "Stmt.Query insert", func() error {
			rows, err := w.insert.Query(row...)
			if err != nil {
				return err
			}
			if rows.Next() {
				got = rows.Row()
			}
			err = rows.Err()
			if cerr := rows.Close(); err == nil {
				err = cerr
			}
			return err
		})
		if err == nil && (got == nil || int(got[0].Int()) != id || got[1].Float() != row[3].Float()) {
			err = fmt.Errorf("insert of order %d returned %v", id, got)
		}
		if err == nil {
			w.a.nextID++
			w.a.totals = append(w.a.totals, row[3].Float())
			w.user += float64(len(types.EncodeTuple(nil, row)))
		}
		return dInsert, d, err
	case p < 9:
		// Even clients update a customer's credit, odd clients an order
		// line's price: see updatesItems.
		var row types.Tuple
		value := types.NewFloat(float64(w.rng.Intn(200000)) / 10)
		if w.updatesItems() {
			row = itemTuple(1 + w.rng.Intn(sz.durableItems))
			row[4] = value
		} else {
			row = customerTuple(1 + w.rng.Intn(sz.durableCustomers))
			row[3] = value
		}
		var res *engine.Result
		d, err := w.tr.timed("update", "Stmt.Exec update", func() (err error) {
			res, err = w.update.Exec(value, row[0])
			return err
		})
		if err == nil && res.RowsAffected != 1 {
			err = fmt.Errorf("update of row %d touched %d rows", row[0].Int(), res.RowsAffected)
		}
		if err == nil {
			w.a.updates[int(row[0].Int())] = value.Float()
			w.user += float64(len(types.EncodeTuple(nil, row)))
		}
		return dUpdate, d, err
	default:
		// Read back the latest of this client's own inserts.
		first := durableIDBase * (w.id + 1)
		hi := len(w.a.totals)
		lo := max(hi-sumSpan, 0)
		var want float64
		for _, t := range w.a.totals[lo:hi] {
			want += t
		}
		var res *engine.Result
		d, err := w.tr.timed("sum", "Stmt.Exec sum", func() (err error) {
			res, err = w.sum.Exec(types.NewInt(int64(first+lo)), types.NewInt(int64(first+hi-1)))
			return err
		})
		if err == nil {
			if len(res.Rows) != 1 || int(res.Rows[0][0].Int()) != hi-lo || math.Abs(res.Rows[0][1].Float()-want) > 1e-6 {
				err = fmt.Errorf("orders %d..%d read back as %v, want %d totalling %.2f", first+lo, first+hi-1, res.Rows, hi-lo, want)
			}
		}
		return dSum, d, err
	}
}

// plan replays the three statements on the durable engine itself and on a
// twin holding the same rows with its log in memory: the difference is what
// logging, group commit and fsync cost. Replayed inserts take fresh ids.
func (d *durable) plan() (*layerPlan, error) {
	twin, err := engine.Open(engine.Options{})
	if err != nil {
		return nil, err
	}
	if err := d.populate(twin); err != nil {
		twin.Close()
		return nil, err
	}
	sz := d.env.sz
	next := durableIDBase * (durableClients + 1)
	item := func(span string, sh *shape) *ladderItem {
		return &ladderItem{sh: sh, span: span, top: -1, local: d.db, twin: twin}
	}
	return &layerPlan{
		items: []*ladderItem{
			item("Stmt.Query insert", &shape{sql: insertReturningSQL, write: true, query: true, args: func(int) []types.Value {
				next++
				return orderTuple(next, sz.durableCustomers)
			}}),
			item("Stmt.Exec update", &shape{sql: updateCreditSQL, write: true, args: func(i int) []types.Value {
				return []types.Value{types.NewFloat(float64(i)), types.NewInt(1 + int64(mix(uint64(i), 11)%uint64(sz.durableCustomers)))}
			}}),
			item("Stmt.Exec sum", &shape{sql: sumOrdersSQL, query: true, args: func(i int) []types.Value {
				lo := 1 + int64(mix(uint64(i), 12)%uint64(sz.durableOrders-sumSpan))
				return []types.Value{types.NewInt(lo), types.NewInt(lo + sumSpan - 1)}
			}}),
		},
		rest: lyEngine, reconcileKind: dInsert,
		probeDB: d.db, probeTable: "customers", probeMaxID: sz.durableCustomers,
		walRow: orderTuple(1, sz.durableCustomers),
		close:  func() { twin.Close() },
	}, nil
}
