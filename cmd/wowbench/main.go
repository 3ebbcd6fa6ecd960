// Command wowbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	wowbench -experiment=E1        # one experiment
//	wowbench -experiment=all       # the whole suite (default)
//	wowbench -scale=quick          # reduced sizes for a fast smoke run
//	wowbench -perfdir=.            # also write BENCH_<id>.json perf records
//	wowbench -remote=host:port     # benchmark a running wowserver instead
//	wowbench -remote=... -clients=8 -ops=2000 -pool=4 -batch=200
//
// With -remote, wowbench skips the local experiments and drives the given
// wowserver over the wire protocol v3: it bulk-loads a table through the
// connection pool with ExecBatch frames (-pool connections, -batch rows per
// frame), then measures prepared point-query throughput with -clients
// workers multiplexed over the same pool, all preparing the identical
// statement — the shared-plan-cache serving path.
//
// The experiment index (what each table/figure measures and which modules it
// exercises) is docs/ARCHITECTURE.md §8 and the comment on each RunE* function
// in internal/harness; measured results are recorded in BENCH_E14.json to
// BENCH_E17.json at the root.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (E1..E17) or 'all'")
	scale := flag.String("scale", "full", "workload scale: 'full' or 'quick'")
	remote := flag.String("remote", "", "wowserver address; benchmark it over the wire instead of running local experiments")
	clients := flag.Int("clients", 4, "concurrent query workers for -remote")
	ops := flag.Int("ops", 1000, "queries per worker for -remote")
	poolSize := flag.Int("pool", 0, "connection pool size for -remote (default: -clients)")
	batch := flag.Int("batch", 200, "rows per ExecBatch frame for the -remote load phase")
	perfDir := flag.String("perfdir", "", "directory to write machine-readable BENCH_<id>.json perf records into (empty: don't)")
	flag.Parse()

	if *remote != "" {
		if *poolSize <= 0 {
			*poolSize = *clients
		}
		if err := runRemote(*remote, *clients, *ops, *poolSize, *batch); err != nil {
			fmt.Fprintf(os.Stderr, "wowbench: remote: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := harness.Full
	if strings.EqualFold(*scale, "quick") {
		cfg = harness.Quick
	}

	ids := harness.Experiments
	if !strings.EqualFold(*experiment, "all") {
		ids = []string{strings.ToUpper(*experiment)}
	}
	for _, id := range ids {
		start := time.Now()
		table, err := harness.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wowbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(table.String())
		fmt.Printf("(%s completed in %s at scale %s)\n\n", id, time.Since(start).Round(time.Millisecond), *scale)
		if *perfDir != "" {
			path, err := harness.WritePerf(*perfDir, strings.ToLower(*scale), table)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wowbench: %s: perf record: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Printf("(perf record written to %s)\n\n", path)
		}
	}

	if err := printEngineStats(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "wowbench: engine stats: %v\n", err)
		os.Exit(1)
	}
}

// printEngineStats runs a short prepared-statement workload on a fresh
// database and prints the engine's plan-cache and cursor counters, so a bench
// run always ends with a picture of what the statement machinery did.
func printEngineStats(cfg harness.Config) error {
	db := engine.OpenMemory()
	defer db.Close()
	if err := workload.Populate(db, workload.SmallSizes); err != nil {
		return err
	}
	s := db.Session()
	lookup, err := s.Prepare("SELECT name, credit FROM customers WHERE id = ?")
	if err != nil {
		return err
	}
	defer lookup.Close()
	n := cfg.Operations
	for i := 0; i < n; i++ {
		rows, err := lookup.Query(types.NewInt(int64(1 + i%workload.SmallSizes.Customers)))
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			return err
		}
		rows.Close()
	}
	// Re-preparing identical text is the plan cache's hit case.
	for i := 0; i < n; i++ {
		again, err := s.Prepare("SELECT name, credit FROM customers WHERE id = ?")
		if err != nil {
			return err
		}
		again.Close()
	}
	// Write path: a prepared UPDATE rebinding per iteration (one cached write
	// plan) and one batch-bound INSERT.
	update, err := s.Prepare("UPDATE customers SET credit = ? WHERE id = ?")
	if err != nil {
		return err
	}
	defer update.Close()
	for i := 0; i < n; i++ {
		if _, err := update.Exec(types.NewFloat(float64(500+i)), types.NewInt(int64(1+i%workload.SmallSizes.Customers))); err != nil {
			return err
		}
	}
	insert, err := s.Prepare("INSERT INTO customers (id, name, city) VALUES (?, ?, ?)")
	if err != nil {
		return err
	}
	defer insert.Close()
	batch := make([][]types.Value, n)
	for i := range batch {
		batch[i] = []types.Value{
			types.NewInt(int64(1000000 + i)),
			types.NewString("Batch Customer"),
			types.NewString("Boston"),
		}
	}
	if _, err := insert.ExecBatch(batch); err != nil {
		return err
	}
	stats := db.Stats()
	fmt.Println("engine statement machinery (fresh db, prepared point-query + write workload):")
	fmt.Printf("  statements prepared:  %d\n", stats.StatementsPrepared)
	fmt.Printf("  plan cache hits:      %d\n", stats.PlanCacheHits)
	fmt.Printf("  plan cache misses:    %d\n", stats.PlanCacheMisses)
	fmt.Printf("  plan cache evictions: %d\n", stats.PlanCacheEvictions)
	fmt.Printf("  cursors opened:       %d\n", stats.CursorsOpened)
	fmt.Printf("  cursors closed:       %d\n", stats.CursorsClosed)
	fmt.Printf("  rows streamed:        %d\n", stats.RowsStreamed)
	fmt.Printf("  write plans cached:   %d\n", stats.WritePlansCached)
	fmt.Printf("  batch rows executed:  %d\n", stats.BatchRowsExecuted)
	fmt.Println("mvcc concurrency control:")
	fmt.Printf("  snapshots taken:      %d\n", stats.SnapshotsTaken)
	fmt.Printf("  write conflicts:      %d\n", stats.WriteConflicts)
	fmt.Printf("  deadlocks detected:   %d\n", stats.DeadlocksDetected)
	fmt.Printf("  row versions gc'd:    %d\n", stats.VersionsGCed)
	return nil
}

// remoteRows is how many rows the remote benchmark loads before measuring.
const remoteRows = 1000

// runRemote benchmarks a running wowserver over protocol v3: the load phase
// ships ExecBatch frames through the connection pool, then `clients` workers
// multiplex over the same pool running the identical prepared point query.
// Every connection preparing the same text exercises the server's shared
// plan cache — the first compile is the only one — and every worker
// re-checking out a pooled connection exercises its prepared-statement
// cache — the first Prepare per connection is the only round trip.
func runRemote(addr string, clients, ops, poolSize, batch int) error {
	if clients < 1 {
		clients = 1
	}
	if batch < 1 {
		batch = 1
	}
	pool := client.NewPool(addr, client.PoolConfig{Size: poolSize})
	defer pool.Close()

	// A private table name keeps reruns against a long-lived server working.
	table := fmt.Sprintf("bench_customers_%d", time.Now().UnixNano())
	setup, err := pool.Get()
	if err != nil {
		return err
	}
	fmt.Printf("wowbench remote benchmark against %s (protocol v%s, %s)\n",
		addr, setup.Conn().ProtocolVersion(), setup.Conn().ServerBanner())
	if _, err := setup.Exec(fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, name TEXT, credit FLOAT)", table)); err != nil {
		setup.Release()
		return err
	}
	insertSQL := fmt.Sprintf("INSERT INTO %s (id, name, credit) VALUES (?, ?, ?)", table)
	loadStart := time.Now()
	frames := 0
	for start := 0; start < remoteRows; start += batch {
		end := min(start+batch, remoteRows)
		rows := make([][]types.Value, 0, end-start)
		for i := start; i < end; i++ {
			rows = append(rows, []types.Value{
				types.NewInt(int64(i + 1)), types.NewString("Remote Customer"), types.NewFloat(float64(i + 1)),
			})
		}
		if _, err := setup.ExecBatch(insertSQL, rows); err != nil {
			setup.Release()
			return err
		}
		frames++
	}
	loadTime := time.Since(loadStart)
	setup.Release()

	query := fmt.Sprintf("SELECT name, credit FROM %s WHERE id = ?", table)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			err := pool.With(func(h *client.PooledConn) error {
				for i := 0; i < ops; i++ {
					rows, err := h.Query(query, types.NewInt(int64(1+(w*ops+i)%remoteRows)))
					if err != nil {
						return err
					}
					for rows.Next() {
					}
					err = rows.Err()
					if cerr := rows.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	elapsed := time.Since(start)
	total := clients * ops
	stats := pool.Stats()
	fmt.Printf("  load: %d rows in %d ExecBatch frame(s) of <= %d in %s (%.0f rows/s)\n",
		remoteRows, frames, batch, loadTime.Round(time.Millisecond), float64(remoteRows)/loadTime.Seconds())
	fmt.Printf("  point queries: %d workers x %d ops over %d pooled connection(s) = %d queries in %s\n",
		clients, ops, pool.Size(), total, elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput: %.0f queries/s (%.1f µs/query per worker)\n",
		float64(total)/elapsed.Seconds(), float64(elapsed.Microseconds())*float64(clients)/float64(total))
	fmt.Printf("  pool: %d dial(s), %d checkout(s), %d idle reuse(s), %d stmt-cache hit(s)\n",
		stats.Dials, stats.Checkouts, stats.IdleReuses, stats.StmtCacheHits)
	// Clean up so repeated runs do not accumulate tables server-side.
	return pool.With(func(h *client.PooledConn) error {
		_, err := h.Exec("DROP TABLE " + table)
		return err
	})
}
