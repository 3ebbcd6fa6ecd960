package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/sqlair"
	"repro/internal/types"
)

// oltp.read: application code reading through the typed API and a shared
// connection pool, over a database that fits the buffer pool.

const (
	rGet = iota
	rIter
)

var readKinds = []string{"get", "iter"}

const (
	readClients = 2
	// iterRows is how many order rows one Iter operation reads at most.
	iterRows = 20

	getCustomerSQL = "SELECT &Customer.* FROM customers WHERE id = $Key.id"
	iterOrdersSQL  = "SELECT &Order.* FROM orders WHERE customer_id = $Key.id ORDER BY id"
)

// Customer, Order and Key are the application's row and parameter shapes.
type Customer struct {
	ID     int64   `db:"id"`
	Name   string  `db:"name"`
	City   string  `db:"city"`
	Credit float64 `db:"credit"`
}

type Order struct {
	ID         int64   `db:"id"`
	CustomerID int64   `db:"customer_id"`
	Total      float64 `db:"total"`
}

type Key struct {
	ID int64 `db:"id"`
}

// ordersOf is what one customer's Iter must return: the number of orders
// read (at most iterRows) and the sum of their totals in id order.
type ordersOf struct {
	n   int
	sum float64
}

type oltpRead struct {
	env    env
	host   *host
	pool   *client.Pool
	db     *sqlair.DB
	get    *sqlair.Statement
	iter   *sqlair.Statement
	expect []ordersOf // by customer id
}

func newOltpRead(e env) *oltpRead { return &oltpRead{env: e} }

func (r *oltpRead) kinds() []string { return readKinds }

func (r *oltpRead) setup() error {
	db, err := engine.Open(engine.Options{})
	if err != nil {
		return err
	}
	if err := createSchema(db); err != nil {
		return err
	}
	sz := r.env.sz
	s := db.Session()
	if _, err := load(s, insertCustomerSQL, 1, sz.readCustomers, 500, customerTuple); err != nil {
		return err
	}
	order := func(id int) types.Tuple { return orderTuple(id, sz.readCustomers) }
	if _, err := load(s, insertOrderSQL, 1, sz.readOrders, 500, order); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	// The oracle's table: computed from the generator, never read back.
	r.expect = make([]ordersOf, sz.readCustomers+1)
	for id := 1; id <= sz.readOrders; id++ {
		if e := &r.expect[orderCustomer(id, sz.readCustomers)]; e.n < iterRows {
			e.n++
			e.sum += orderTotal(id)
		}
	}
	if r.host, err = serve(db, nil); err != nil {
		return err
	}
	r.pool = client.NewPool(r.host.addr, client.PoolConfig{Size: readClients, HealthCheckAfter: time.Second})
	r.db = sqlair.NewPoolDB(r.pool)
	if r.get, err = r.db.Prepare(getCustomerSQL, Customer{}, Key{}); err != nil {
		return err
	}
	r.iter, err = r.db.Prepare(iterOrdersSQL, Order{}, Key{})
	return err
}

func (r *oltpRead) counters(c *counters) {
	c.addEngine(r.host.db)
	c.addServer(r.host.srv)
	c.addPool(r.pool)
	c.addSqlair(r.db)
}

// verify has nothing left to check: every result was checked when read.
func (r *oltpRead) verify() error { return nil }

func (r *oltpRead) close() error {
	err := r.pool.Close()
	if herr := r.host.close(); err == nil {
		err = herr
	}
	return err
}

type readWorker struct {
	r   *oltpRead
	rng *rand.Rand
	tr  *tracer
}

func (r *oltpRead) worker(i int, tr *tracer) (worker, error) {
	return &readWorker{r: r, tr: tr, rng: rand.New(rand.NewSource(r.env.seed*1000 + int64(i)))}, nil
}

func (w *readWorker) counters(*counters) {}
func (w *readWorker) close()             {}

func (w *readWorker) op() (int, time.Duration, error) {
	key := Key{ID: 1 + w.rng.Int63n(int64(w.r.env.sz.readCustomers))}
	// The statement lookup is part of each call, as application code written
	// against DB.Prepare pays it.
	if w.rng.Intn(5) > 0 { // 80 %
		var c Customer
		d, err := w.tr.timed("get", "sqlair.Query.Get", func() error {
			st, err := w.r.db.Prepare(getCustomerSQL, Customer{}, Key{})
			if err != nil {
				return err
			}
			return w.r.db.Query(context.Background(), st, key).Get(&c)
		})
		if err == nil {
			err = checkCustomer(c, key.ID)
		}
		return rGet, d, err
	}
	var got ordersOf
	d, err := w.tr.timed("iter", "sqlair.Query.Iter", func() error {
		st, err := w.r.db.Prepare(iterOrdersSQL, Order{}, Key{})
		if err != nil {
			return err
		}
		got, err = w.readOrders(st, key)
		return err
	})
	if err == nil {
		err = checkOrders(got, w.r.expect[key.ID], key.ID)
	}
	return rIter, d, err
}

// readOrders iterates one customer's orders, at most iterRows of them.
func (w *readWorker) readOrders(st *sqlair.Statement, key Key) (ordersOf, error) {
	var got ordersOf
	it, err := w.r.db.Query(context.Background(), st, key).Iter()
	if err != nil {
		return got, err
	}
	for got.n < iterRows && it.Next() {
		var o Order
		if err := it.Get(&o); err != nil {
			it.Close()
			return got, err
		}
		if o.CustomerID != key.ID {
			it.Close()
			return got, fmt.Errorf("order %d belongs to customer %d, asked for %d", o.ID, o.CustomerID, key.ID)
		}
		got.n++
		got.sum += o.Total
	}
	return got, it.Close()
}

func checkCustomer(c Customer, id int64) error {
	want := customerTuple(int(id))
	if c.ID != id || c.Name != want[1].Str() || c.City != want[2].Str() || c.Credit != want[3].Float() {
		return fmt.Errorf("customer %d read back as %+v", id, c)
	}
	return nil
}

func checkOrders(got, want ordersOf, customer int64) error {
	if got != want {
		return fmt.Errorf("customer %d: read %d orders totalling %.2f, want %d totalling %.2f",
			customer, got.n, got.sum, want.n, want.sum)
	}
	return nil
}

// plan replays the two typed statements below sqlair: as raw client
// statements bound by name, in process, and as bare operators.
func (r *oltpRead) plan() (*layerPlan, error) {
	key := func(i int) []types.Value {
		return []types.Value{types.NewInt(1 + int64(mix(uint64(i), 10)%uint64(r.env.sz.readCustomers)))}
	}
	item := func(st *sqlair.Statement, span string, limit int) (*ladderItem, error) {
		names, err := paramNames(r.host.db, st.SQL())
		if err != nil {
			return nil, err
		}
		sh := &shape{sql: st.SQL(), query: true, named: true, names: names, args: key, limit: limit}
		return &ladderItem{sh: sh, span: span, top: lySqlair, remote: r.host.addr, local: r.host.db}, nil
	}
	get, err := item(r.get, "sqlair.Query.Get", 1)
	if err != nil {
		return nil, err
	}
	iter, err := item(r.iter, "sqlair.Query.Iter", iterRows)
	if err != nil {
		return nil, err
	}
	return &layerPlan{items: []*ladderItem{get, iter}, rest: lySqlair, reconcileKind: rGet,
		probeDB: r.host.db, probeTable: "customers", probeMaxID: r.env.sz.readCustomers}, nil
}

// paramNames returns a statement's parameter names in ordinal order.
func paramNames(db *engine.Database, text string) ([]string, error) {
	s := db.Session()
	defer s.Close()
	st, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.ParamNames(), nil
}
