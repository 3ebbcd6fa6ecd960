package workload

import (
	"fmt"
	"sync"

	"repro/internal/server/client"
	"repro/internal/sql"
	"repro/internal/types"
)

// remoteBatchSize is how many parameter rows ride one ExecBatch frame, and
// remoteWorkers how many loader goroutines share the pool.
const (
	remoteBatchSize = 200
	remoteWorkers   = 2
)

// PopulateRemote creates the standard schema and loads the synthetic data
// over the wire, through the connection pool: row generation stays
// single-threaded (the seeded stream must stay in order, so remote data
// matches local data exactly), while batches fan out over remoteWorkers
// pooled connections, each shipping remoteBatchSize rows per ExecBatch frame.
func PopulateRemote(pool *client.Pool, sizes Sizes) error {
	if err := execScriptRemote(pool, StandardSchema); err != nil {
		return fmt.Errorf("workload: remote schema: %w", err)
	}
	for _, load := range loads(sizes) {
		if err := loadRemote(pool, load); err != nil {
			return fmt.Errorf("workload: remote %s: %w", load.Name, err)
		}
	}
	return nil
}

// execScriptRemote runs a multi-statement script over one pooled connection.
func execScriptRemote(pool *client.Pool, script string) error {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return err
	}
	return pool.With(func(h *client.PooledConn) error {
		for _, stmt := range stmts {
			if _, err := h.Exec(stmt.String()); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadRemote ships one table's rows: a single producer generates batches in
// stream order and remoteWorkers consumers push them over pooled connections.
func loadRemote(pool *client.Pool, load TableLoad) error {
	batches := make(chan [][]types.Value, remoteWorkers)
	go func() {
		defer close(batches)
		for start := 0; start < load.N; start += remoteBatchSize {
			end := min(start+remoteBatchSize, load.N)
			batch := make([][]types.Value, 0, end-start)
			for i := start; i < end; i++ {
				batch = append(batch, load.Bind(i))
			}
			batches <- batch
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, remoteWorkers)
	for w := 0; w < remoteWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := pool.With(func(h *client.PooledConn) error {
				st, err := h.Prepare(load.InsertSQL)
				if err != nil {
					return err
				}
				for batch := range batches {
					res, err := st.ExecBatch(batch)
					if err != nil {
						return err
					}
					if int(res.RowsAffected) != len(batch) {
						return fmt.Errorf("batch of %d affected %d rows", len(batch), res.RowsAffected)
					}
				}
				return nil
			})
			if err != nil {
				errs <- err
				// Unblock the producer so it can finish and close the channel.
				for range batches {
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}
