package harness

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/workload"
)

// RunE11 — the wire-protocol server: N concurrent clients drive the same
// prepared point query over TCP against one shared engine. Because the plan
// cache is engine-wide, the statement is parsed and planned once no matter
// how many connections prepare it — under the old per-session caching every
// connection would have compiled its own copy (the "plans compiled" column
// would equal the client count). The table reports end-to-end remote
// throughput and the cache's hit/compile traffic per client count.
func RunE11(cfg Config) (*Table, error) {
	db := engine.OpenMemory()
	defer db.Close()
	if err := workload.Populate(db, cfg.Sizes); err != nil {
		return nil, err
	}
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serveDone
	}()
	addr := ln.Addr().String()

	clientCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		clientCounts = []int{1, 2, 4}
	}
	opsPerClient := cfg.Operations * 2
	customers := cfg.Sizes.Customers

	table := &Table{
		ID:    "E11",
		Title: "Wire-protocol server: N-client remote throughput and the shared plan cache",
		Columns: []string{
			"clients", "queries/s", "µs/query/client", "prepares", "shared-cache hits", "plans compiled",
		},
		Notes: []string{
			fmt.Sprintf("each client runs %d prepared point queries over TCP loopback; all clients prepare the identical statement", opsPerClient),
			"with per-session caching every client would compile its own plan: 'plans compiled' would equal 'prepares'",
		},
	}

	const query = "SELECT name, credit FROM customers WHERE id = ?"
	totalCompiled := uint64(0)
	totalPrepares := uint64(0)
	for _, count := range clientCounts {
		before := db.Stats()
		var wg sync.WaitGroup
		errs := make(chan error, count)
		start := time.Now()
		for w := 0; w < count; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := client.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				stmt, err := c.Prepare(query)
				if err != nil {
					errs <- err
					return
				}
				defer stmt.Close()
				for i := 0; i < opsPerClient; i++ {
					rows, err := stmt.Query(types.NewInt(int64(1 + (w*opsPerClient+i)%customers)))
					if err != nil {
						errs <- err
						return
					}
					n := 0
					for rows.Next() {
						n++
					}
					err = rows.Err()
					if cerr := rows.Close(); err == nil {
						err = cerr
					}
					if err != nil {
						errs <- err
						return
					}
					if n != 1 {
						errs <- fmt.Errorf("point query returned %d rows", n)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return nil, err
		}
		elapsed := time.Since(start)
		after := db.Stats()
		total := count * opsPerClient
		prepares := after.StatementsPrepared - before.StatementsPrepared
		hits := after.PlanCacheHits - before.PlanCacheHits
		compiled := after.PlanCacheMisses - before.PlanCacheMisses
		totalCompiled += compiled
		totalPrepares += prepares
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", count),
			fmt.Sprintf("%.0f", float64(total)/elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(elapsed.Microseconds())*float64(count)/float64(total)),
			fmt.Sprintf("%d", prepares),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%d", compiled),
		})
	}
	table.Notes = append(table.Notes, fmt.Sprintf(
		"whole sweep: %d prepares compiled %d plan(s); per-session caching would have compiled %d",
		totalPrepares, totalCompiled, totalPrepares))
	return table, nil
}

// RunE12 — remote bulk ingest over the wire protocol: the same synthetic workload
// (every table of the standard schema) is loaded into a fresh server three
// ways — one Exec round trip per row over one connection (the PR 3 remote
// path), ExecBatch frames over one connection, and ExecBatch frames fanned
// out over a connection pool. Row generation is identical across modes (the
// seeded stream), so the table isolates protocol and pooling effects: how
// much one-round-trip-per-row costs, what array-bind frames recover, and
// what pooled parallelism adds on top.
func RunE12(cfg Config) (*Table, error) {
	type mode struct {
		name    string
		batch   int
		workers int
	}
	modes := []mode{
		{"per-row, 1 conn (PR 3 path)", 1, 1},
		{"ExecBatch x200, 1 conn", 200, 1},
		{"ExecBatch x200, pool of 4", 200, 4},
	}
	totalRows := cfg.Sizes.Customers + cfg.Sizes.Orders + cfg.Sizes.Orders*cfg.Sizes.ItemsPerOrder

	table := &Table{
		ID:    "E12",
		Title: "Remote bulk ingest: per-row round trips vs pooled ExecBatch frames",
		Columns: []string{
			"mode", "conns", "rows", "round trips", "elapsed", "rows/s", "speedup",
		},
		Notes: []string{
			"each mode loads the identical synthetic workload (customers + orders + order_items) into a fresh server over TCP loopback",
			"round trips = protocol messages the server dispatched (schema + loads); the per-row mode pays one per row",
		},
	}

	var baseline time.Duration
	for _, m := range modes {
		db := engine.OpenMemory()
		srv := server.New(db)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			db.Close()
			return nil, err
		}
		serveDone := make(chan error, 1)
		go func() { serveDone <- srv.Serve(ln) }()
		pool := client.NewPool(ln.Addr().String(), client.PoolConfig{Size: m.workers})

		start := time.Now()
		loadErr := workload.PopulateRemote(pool, cfg.Sizes, workload.RemoteOptions{BatchSize: m.batch, Workers: m.workers})
		elapsed := time.Since(start)
		messages := srv.Stats().MessagesServed

		pool.Close()
		srv.Close()
		<-serveDone
		db.Close()
		if loadErr != nil {
			return nil, fmt.Errorf("E12 %s: %w", m.name, loadErr)
		}

		if baseline == 0 {
			baseline = elapsed
		}
		table.Rows = append(table.Rows, []string{
			m.name,
			fmt.Sprintf("%d", m.workers),
			fmt.Sprintf("%d", totalRows),
			fmt.Sprintf("%d", messages),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(totalRows)/elapsed.Seconds()),
			fmt.Sprintf("%.1fx", float64(baseline)/float64(elapsed)),
		})
	}
	return table, nil
}
