// Typed orders: the sqlair typed client API end to end — structs with
// db-tagged fields move in and out of SQL that names them directly, a write
// and its read collapse into one RETURNING statement, and INSERT ... SELECT
// copies rows without them ever crossing into the client.
//
// Run locally (in-memory engine):  go run ./examples/typedorders
// Run against a live wowserver:    go run ./examples/typedorders -connect host:port
// Both modes run the same statements (run); only the DB constructor differs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/sqlair"
)

// Order is the application's shape for a row of the orders table. The db
// tags are the only mapping: no Scan calls, no positional argument lists.
type Order struct {
	ID       int     `db:"id"`
	Customer string  `db:"customer"`
	Total    float64 `db:"total"`
	Shipped  bool    `db:"shipped"`
}

// Threshold carries query parameters; inputs are structs too.
type Threshold struct {
	Min float64 `db:"min"`
}

const schema = `CREATE TABLE orders (
	id INT PRIMARY KEY,
	customer TEXT NOT NULL,
	total FLOAT DEFAULT 0,
	shipped BOOL DEFAULT FALSE
)`

const archiveSchema = `CREATE TABLE archive (
	id INT PRIMARY KEY,
	customer TEXT,
	total FLOAT
)`

func main() {
	connect := flag.String("connect", "", "wowserver address; default runs an in-memory engine")
	flag.Parse()
	run := runLocal
	if *connect != "" {
		run = func(w io.Writer) error { return runRemote(*connect, w) }
	}
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runLocal runs the example on an in-memory engine.
func runLocal(w io.Writer) error {
	edb := engine.OpenMemory()
	defer edb.Close()
	session := edb.Session()
	defer session.Close()
	exec := func(ddl string) error { _, err := session.Execute(ddl); return err }
	return run(context.Background(), sqlair.NewEngineDB(edb), exec, w)
}

// runRemote runs the example against the wowserver at addr, through a
// connection pool.
func runRemote(addr string, w io.Writer) error {
	pool := client.NewPool(addr, client.PoolConfig{Size: 2})
	defer pool.Close()
	exec := func(ddl string) error {
		return pool.With(func(h *client.PooledConn) error { _, err := h.Exec(ddl); return err })
	}
	return run(context.Background(), sqlair.NewPoolDB(pool), exec, w)
}

// run creates the schema with exec and runs the typed statements on db,
// printing what each one returns to w.
func run(ctx context.Context, db *sqlair.DB, exec func(ddl string) error, w io.Writer) error {
	for _, ddl := range []string{schema, archiveSchema} {
		if err := exec(ddl); err != nil {
			return err
		}
	}

	// 1. Typed inserts. RETURNING &Order.* sends the stored row back in the
	// same round trip, defaults filled in — no follow-up SELECT.
	insert := sqlair.MustPrepare(
		"INSERT INTO orders (id, customer, total) VALUES ($Order.id, $Order.customer, $Order.total) RETURNING &Order.*",
		Order{})
	for _, o := range []Order{
		{ID: 1, Customer: "Amalgamated Widget", Total: 1200.50},
		{ID: 2, Customer: "Eastern Gadget", Total: 340},
		{ID: 3, Customer: "Amalgamated Widget", Total: 88.25},
	} {
		var stored Order
		if err := db.Query(ctx, insert, o).Get(&stored); err != nil {
			return err
		}
		fmt.Fprintf(w, "stored order %d for %s: total %.2f shipped=%v\n",
			stored.ID, stored.Customer, stored.Total, stored.Shipped)
	}

	// 2. A typed update-and-read: ship every big order, and see exactly what
	// changed without a second query.
	ship, err := db.Prepare(
		"UPDATE orders SET shipped = TRUE WHERE total >= $Threshold.min RETURNING &Order.id, &Order.total",
		Order{}, Threshold{})
	if err != nil {
		return err
	}
	iter, err := db.Query(ctx, ship, Threshold{Min: 300}).Iter()
	if err != nil {
		return err
	}
	for iter.Next() {
		var o Order
		if err := iter.Get(&o); err != nil {
			return err
		}
		fmt.Fprintf(w, "shipped order %d (%.2f)\n", o.ID, o.Total)
	}
	if err := iter.Close(); err != nil {
		return err
	}

	// 3. INSERT ... SELECT: archive shipped orders server-side. The rows are
	// copied inside the engine; the client sees only the RETURNING ids.
	archive := sqlair.MustPrepare(
		"INSERT INTO archive (id, customer, total) SELECT id, customer, total FROM orders WHERE shipped RETURNING &Order.id",
		Order{})
	archived, err := db.Query(ctx, archive).Iter()
	if err != nil {
		return err
	}
	count := 0
	for archived.Next() {
		var o Order
		if err := archived.Get(&o); err != nil {
			return err
		}
		count++
	}
	if err := archived.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "archived %d shipped order(s)\n", count)

	// 4. Typed reads with a struct parameter.
	big := sqlair.MustPrepare(
		"SELECT &Order.* FROM orders WHERE total >= $Threshold.min ORDER BY total DESC",
		Order{}, Threshold{})
	rows, err := db.Query(ctx, big, Threshold{Min: 100}).Iter()
	if err != nil {
		return err
	}
	for rows.Next() {
		var o Order
		if err := rows.Get(&o); err != nil {
			return err
		}
		fmt.Fprintf(w, "order %d: %-20s %8.2f shipped=%v\n", o.ID, o.Customer, o.Total, o.Shipped)
	}
	if err := rows.Close(); err != nil {
		return err
	}

	stats := db.Stats()
	fmt.Fprintf(w, "caches: %d statement hit(s), %d type-reflection hit(s)\n", stats.StmtHits, stats.TypeHits)
	return nil
}
