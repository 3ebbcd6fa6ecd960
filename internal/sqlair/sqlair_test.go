package sqlair_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sqlair"
)

// Customer mirrors the test table. Untagged and "-"-tagged fields are
// invisible to sqlair.
type Customer struct {
	ID      int       `db:"id"`
	Name    string    `db:"name"`
	Credit  float64   `db:"credit"`
	Active  bool      `db:"active"`
	Since   time.Time `db:"since"`
	Scratch string    `db:"-"`
	hidden  int       //nolint:unused // proves untagged unexported fields are skipped
}

type Filter struct {
	Min float64 `db:"min"`
}

// Pay is a partial view used for RETURNING.
type Pay struct {
	ID     int     `db:"id"`
	Credit float64 `db:"credit"`
}

const schema = "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, credit FLOAT, active BOOL, since DATE)"

// sessionDB opens a fresh in-memory database and seeds it through the typed
// API itself.
func sessionDB(t *testing.T, n int) *sqlair.DB {
	t.Helper()
	edb, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { edb.Close() })
	session := edb.Session()
	if _, err := session.Execute(schema); err != nil {
		t.Fatal(err)
	}
	db := sqlair.NewSessionDB(session)
	seed(t, db, n)
	return db
}

func seed(t *testing.T, db *sqlair.DB, n int) {
	t.Helper()
	st, err := db.Prepare(
		"INSERT INTO customers (id, name, credit, active, since) VALUES "+
			"($Customer.id, $Customer.name, $Customer.credit, $Customer.active, $Customer.since) "+
			"RETURNING &Customer.id",
		Customer{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		c := Customer{
			ID:     i,
			Name:   "customer-" + string(rune('a'+i-1)),
			Credit: float64(i) * 100,
			Active: i%2 == 1,
			Since:  time.Date(1983, time.May, i, 0, 0, 0, 0, time.UTC),
		}
		if err := db.Query(context.Background(), st, c).Get(&Customer{}); err != nil {
			t.Fatalf("seed row %d: %v", i, err)
		}
	}
}

func TestPrepareRewritesTypedExpressions(t *testing.T) {
	st := sqlair.MustPrepare(
		"SELECT &Customer.* FROM customers WHERE credit >= $Filter.min AND name <> '&Customer.not $one'",
		Customer{}, Filter{})
	want := "SELECT id, name, credit, active, since FROM customers " +
		"WHERE credit >= @filter_min AND name <> '&Customer.not $one'"
	if st.SQL() != want {
		t.Fatalf("rewrote to %q\nwant       %q", st.SQL(), want)
	}
}

func TestPrepareErrors(t *testing.T) {
	cases := []struct {
		query   string
		samples []any
		wantSub string
	}{
		{"SELECT &Customer.* FROM t", nil, "no sample types"},
		{"SELECT &Customer.bogus FROM t", []any{Customer{}}, `no field tagged db:"bogus"`},
		{"SELECT &Filter.min FROM t WHERE a = $Customer.id", []any{Filter{}}, "given only: Filter"},
		{"SELECT * FROM t WHERE a = $Filter.*", []any{Filter{}}, "not a valid input"},
		{"SELECT &Customer FROM t", []any{Customer{}}, "must be Type.column or Type.*"},
	}
	db := sessionDB(t, 0)
	for _, tc := range cases {
		_, err := db.Prepare(tc.query, tc.samples...)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Prepare(%q): err = %v, want mention of %q", tc.query, err, tc.wantSub)
		}
	}
}

func TestSessionQueryGetAndIter(t *testing.T) {
	db := sessionDB(t, 4)
	ctx := context.Background()

	st, err := db.Prepare("SELECT &Customer.* FROM customers WHERE id = $Customer.id", Customer{})
	if err != nil {
		t.Fatal(err)
	}
	var got Customer
	if err := db.Query(ctx, st, Customer{ID: 3}).Get(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 3 || got.Credit != 300 || !got.Active || got.Since.Day() != 3 {
		t.Fatalf("Get mapped %+v", got)
	}

	if err := db.Query(ctx, st, Customer{ID: 99}).Get(&got); !errors.Is(err, sqlair.ErrNoRows) {
		t.Fatalf("missing row: err = %v, want ErrNoRows", err)
	}

	filtered := sqlair.MustPrepare("SELECT &Customer.* FROM customers WHERE credit >= $Filter.min", Customer{}, Filter{})
	iter, err := db.Query(ctx, filtered, Filter{Min: 250}).Iter()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for iter.Next() {
		var c Customer
		if err := iter.Get(&c); err != nil {
			t.Fatal(err)
		}
		if c.Credit < 250 {
			t.Fatalf("filter leaked row %+v", c)
		}
		n++
	}
	if err := iter.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("iterated %d rows, want 2", n)
	}
}

func TestInsertReturningTyped(t *testing.T) {
	db := sessionDB(t, 2)
	ctx := context.Background()

	st, err := db.Prepare(
		"INSERT INTO customers (id, name, credit) VALUES ($Customer.id, $Customer.name, $Customer.credit) RETURNING &Pay.*",
		Customer{}, Pay{})
	if err != nil {
		t.Fatal(err)
	}
	var pay Pay
	if err := db.Query(ctx, st, Customer{ID: 10, Name: "ret", Credit: 42.5}).Get(&pay); err != nil {
		t.Fatal(err)
	}
	if pay.ID != 10 || pay.Credit != 42.5 {
		t.Fatalf("RETURNING mapped %+v", pay)
	}
}

func TestMultiTypeOutputs(t *testing.T) {
	db := sessionDB(t, 3)
	st, err := db.Prepare(
		"UPDATE customers SET credit = credit * 2 WHERE id <= $Pay.id RETURNING &Pay.id, &Pay.credit, &Customer.name",
		Pay{}, Customer{})
	if err != nil {
		t.Fatal(err)
	}
	iter, err := db.Query(context.Background(), st, Pay{ID: 2}).Iter()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for iter.Next() {
		var p Pay
		var c Customer
		if err := iter.Get(&p, &c); err != nil {
			t.Fatal(err)
		}
		if p.Credit != float64(p.ID)*200 || c.Name == "" {
			t.Fatalf("row mapped to %+v / %+v", p, c)
		}
		seen++
	}
	if err := iter.Close(); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("updated %d rows, want 2", seen)
	}
}

func TestGetArgumentErrors(t *testing.T) {
	db := sessionDB(t, 1)
	ctx := context.Background()
	st := sqlair.MustPrepare("SELECT &Pay.* FROM customers", Pay{})

	var p Pay
	var c Customer
	if err := db.Query(ctx, st, Customer{}).Get(&p); err != nil {
		t.Fatalf("extra input should be tolerated, got %v", err)
	}
	if err := db.Query(ctx, st).Get(&c); err == nil || !strings.Contains(err.Error(), "no *Pay") {
		t.Fatalf("wrong output type: err = %v", err)
	}
	if err := db.Query(ctx, st).Get(&p, &c); err == nil || !strings.Contains(err.Error(), "no &Customer outputs") {
		t.Fatalf("surplus output: err = %v", err)
	}
	if err := db.Query(ctx, st).Get(p); err == nil || !strings.Contains(err.Error(), "non-nil pointers") {
		t.Fatalf("non-pointer output: err = %v", err)
	}

	missing := sqlair.MustPrepare("SELECT &Pay.* FROM customers WHERE id = $Customer.id", Pay{}, Customer{})
	if err := db.Query(ctx, missing).Get(&p); err == nil || !strings.Contains(err.Error(), "needs a Customer input") {
		t.Fatalf("missing input: err = %v", err)
	}
}

func TestStatementCacheHits(t *testing.T) {
	db := sessionDB(t, 1)
	const q = "SELECT &Pay.* FROM customers"
	if _, err := db.Prepare(q, Pay{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare(q, Pay{}); err != nil {
		t.Fatal(err)
	}
	stats := db.Stats()
	if stats.StmtHits == 0 {
		t.Fatalf("second Prepare of identical text should hit the cache: %+v", stats)
	}
	if stats.TypeHits == 0 {
		t.Fatalf("repeated reflection over Pay should hit the type cache: %+v", stats)
	}
}

// startPoolDB serves an in-memory database over loopback and returns a
// pool-backed typed DB plus the pool itself.
func startPoolDB(t *testing.T) (*sqlair.DB, *client.Pool) {
	t.Helper()
	edb, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(edb)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	pool := client.NewPool(ln.Addr().String(), client.PoolConfig{Size: 2})
	t.Cleanup(func() {
		pool.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		edb.Close()
	})
	if _, err := edb.Session().Execute(schema); err != nil {
		t.Fatal(err)
	}
	return sqlair.NewPoolDB(pool), pool
}

func TestPoolDBRoundTrip(t *testing.T) {
	db, pool := startPoolDB(t)
	seed(t, db, 3)
	ctx := context.Background()

	st, err := db.Prepare("SELECT &Customer.* FROM customers WHERE id = $Customer.id", Customer{})
	if err != nil {
		t.Fatal(err)
	}
	var got Customer
	if err := db.Query(ctx, st, Customer{ID: 2}).Get(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != 2 || got.Name == "" || got.Active {
		t.Fatalf("remote Get mapped %+v", got)
	}

	// A typed write-then-read is one statement: RETURNING streams the row back.
	ret, err := db.Prepare(
		"UPDATE customers SET credit = credit + 1 WHERE id = $Customer.id RETURNING &Pay.*",
		Customer{}, Pay{})
	if err != nil {
		t.Fatal(err)
	}
	var pay Pay
	if err := db.Query(ctx, ret, Customer{ID: 2}).Get(&pay); err != nil {
		t.Fatal(err)
	}
	if pay.ID != 2 || pay.Credit != 201 {
		t.Fatalf("remote RETURNING mapped %+v", pay)
	}

	// Repeating the shape reuses the pooled connection's statement cache.
	if err := db.Query(ctx, ret, Customer{ID: 2}).Get(&pay); err != nil {
		t.Fatal(err)
	}
	if pool.Stats().StmtCacheHits == 0 {
		t.Fatal("repeated typed shape should hit the pooled statement cache")
	}
}

func TestPoolDBContextCancelled(t *testing.T) {
	db, _ := startPoolDB(t)
	seed(t, db, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := sqlair.MustPrepare("SELECT &Customer.* FROM customers", Customer{})
	var c Customer
	if err := db.Query(ctx, st).Get(&c); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}
