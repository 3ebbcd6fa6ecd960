// Package harness holds the cross-layer shape tests. Each one builds the
// standard workload, drives forms, engine, wire server and clients together,
// and checks one qualitative claim of the evaluation: an ordering or a
// bound, never a measured number. The package has no non-test code; the
// gated numbers come from bench/, and docs/ARCHITECTURE.md §8 records each
// experiment's verdict.
package harness

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sql"
	"repro/internal/sqlair"
	"repro/internal/types"
	"repro/internal/workload"
)

// sizes is the synthetic database every shape test loads.
var sizes = workload.SmallSizes

// newEnvironment populates an in-memory database with the standard workload
// and compiles the standard forms, keyed by name.
func newEnvironment(t *testing.T) (*engine.Database, map[string]*core.Form) {
	t.Helper()
	db := engine.OpenMemory()
	t.Cleanup(func() { db.Close() })
	if err := workload.Populate(db, sizes); err != nil {
		t.Fatal(err)
	}
	forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*core.Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}
	return db, byName
}

// serve puts db behind a wire-protocol server on a loopback port and returns
// the server and its address; the server stops when the test ends.
func serve(t *testing.T, db *engine.Database) (*server.Server, string) {
	t.Helper()
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func countRows(t *testing.T, db *engine.Database, table string) int64 {
	t.Helper()
	res, err := db.Session().Execute("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

// poolFetches is the number of page requests the buffer pool has served: the
// engine's "pages examined" counter.
func poolFetches(db *engine.Database) uint64 {
	pool := db.Stats().BufferPool
	return pool.Hits + pool.Misses
}

// TestE2ShapeSelectivityOrdering checks that the point lookup touches fewer
// rows than the half-the-table predicate and that an index path is used for
// the key lookup.
func TestE2ShapeSelectivityOrdering(t *testing.T) {
	db, forms := newEnvironment(t)
	w, err := core.NewManager(db, 100, 30).Open(forms["customer_form"], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Query(map[string]string{"id": "17"}); err != nil {
		t.Fatal(err)
	}
	keyRows := w.RowCount()
	if err := w.Query(map[string]string{"credit": ">1000"}); err != nil {
		t.Fatal(err)
	}
	halfRows := w.RowCount()
	if keyRows != 1 || keyRows >= halfRows {
		t.Errorf("selectivity ordering wrong: key lookup %d rows vs credit > 1000 %d rows", keyRows, halfRows)
	}
	node, err := db.Session().Plan("SELECT * FROM customers WHERE id = 17")
	if err != nil {
		t.Fatal(err)
	}
	if explain := plan.Explain(node); !strings.Contains(explain, "index lookup") {
		t.Errorf("key lookup access path:\n%s", explain)
	}
}

// TestE4ShapeMoreWindowsMoreRefreshes checks that propagation work grows with
// the number of open windows: window 0 commits credit changes while every
// other window shows one city's customers and is refreshed by the manager.
func TestE4ShapeMoreWindowsMoreRefreshes(t *testing.T) {
	const commits = 10
	refreshedPerCommit := func(windows int) float64 {
		db, forms := newEnvironment(t)
		m := core.NewManager(db, 120, 40)
		writer, err := m.Open(forms["customer_form"], 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < windows; i++ {
			w, err := m.Open(forms["customer_form"], 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Query(map[string]string{"city": workload.CityAt(i)}); err != nil {
				t.Fatal(err)
			}
		}
		m.Focus(writer)
		if err := writer.Query(map[string]string{"id": "1"}); err != nil {
			t.Fatal(err)
		}
		start := m.WindowsRefreshed()
		for i := 0; i < commits; i++ {
			if err := writer.BeginEdit(); err != nil {
				t.Fatal(err)
			}
			if err := writer.SetFieldText("credit", fmt.Sprint(500+i)); err != nil {
				t.Fatal(err)
			}
			if err := writer.Save(); err != nil {
				t.Fatal(err)
			}
		}
		return float64(m.WindowsRefreshed()-start) / commits
	}
	prev := -1.0
	for _, windows := range []int{1, 2, 4, 8} {
		got := refreshedPerCommit(windows)
		if got <= prev {
			t.Errorf("refreshes should grow with windows: %d windows refreshed %.1f per commit, fewer windows %.1f",
				windows, got, prev)
		}
		prev = got
	}
}

// TestE12ShapeBatchedPooledIngestBeatsPerRow checks the protocol v2 claim:
// pooled ExecBatch ingest must beat a per-row remote load of the same rows,
// and must do it in far fewer protocol round trips.
func TestE12ShapeBatchedPooledIngestBeatsPerRow(t *testing.T) {
	type run struct {
		trips   uint64
		elapsed time.Duration
		rows    int64
	}
	ingest := func(load func(addr string) error) run {
		db := engine.OpenMemory()
		defer db.Close()
		srv, addr := serve(t, db)
		start := time.Now()
		if err := load(addr); err != nil {
			t.Fatal(err)
		}
		return run{
			trips:   srv.Stats().MessagesServed,
			elapsed: time.Since(start),
			rows:    countRows(t, db, "customers") + countRows(t, db, "orders") + countRows(t, db, "order_items"),
		}
	}

	// Per row: one autocommit Exec round trip per row over one connection.
	perRow := ingest(func(addr string) error {
		conn, err := client.Dial(addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		stmts, err := sql.ParseAll(workload.StandardSchema)
		if err != nil {
			return err
		}
		for _, stmt := range stmts {
			if _, err := conn.Exec(stmt.String()); err != nil {
				return err
			}
		}
		for _, load := range workload.Loads(sizes) {
			for i := 0; i < load.N; i++ {
				if _, err := conn.Exec(load.InsertSQL, load.Bind(i)...); err != nil {
					return fmt.Errorf("%s row %d: %w", load.Name, i, err)
				}
			}
		}
		return nil
	})
	pooled := ingest(func(addr string) error {
		pool := client.NewPool(addr, client.PoolConfig{Size: 4})
		defer pool.Close()
		return workload.PopulateRemote(pool, sizes)
	})

	want := int64(sizes.Customers + sizes.Orders + sizes.Orders*sizes.ItemsPerOrder)
	if perRow.rows != want || pooled.rows != want {
		t.Fatalf("loaded %d (per-row) and %d (pooled) rows, want %d", perRow.rows, pooled.rows, want)
	}
	if pooled.trips == 0 || perRow.trips <= pooled.trips {
		t.Errorf("round trips did not shrink: per-row %d vs pooled %d", perRow.trips, pooled.trips)
	}
	if speedup := perRow.elapsed.Seconds() / pooled.elapsed.Seconds(); speedup <= 1 {
		t.Errorf("pooled batched ingest speedup %.2fx does not beat the per-row path (%s vs %s)",
			speedup, pooled.elapsed, perRow.elapsed)
	}
}

// TestE13ShapePagedWindowFetchesOnePage checks the windowed-browsing claim:
// a refresh over the largest workload table must fetch at most one buffer
// page (plus the one-row count) while draining the query fetches the whole
// table — locally and over the wire — and End reads about a page of the
// engine's pages, not the table's.
func TestE13ShapePagedWindowFetchesOnePage(t *testing.T) {
	db, forms := newEnvironment(t)
	tableRows := sizes.Orders * sizes.ItemsPerOrder
	const pageDowns = 4

	checkPaged := func(mode string, w *core.Window) {
		t.Helper()
		s0 := w.Stats()
		if err := w.Refresh(); err != nil {
			t.Fatal(err)
		}
		s1 := w.Stats()
		for i := 0; i < pageDowns; i++ {
			if err := w.MoveCursor(w.PageSize()); err != nil {
				t.Fatal(err)
			}
		}
		pool0 := poolFetches(db)
		if err := w.LastRow(); err != nil {
			t.Fatal(err)
		}
		endPages := poolFetches(db) - pool0
		if w.Cursor() != tableRows-1 {
			t.Errorf("%s: End landed on row %d of %d", mode, w.Cursor()+1, tableRows)
		}

		fetched := int(s1.RowsFetched - s0.RowsFetched)
		if budget := w.BufferPage() + 1; fetched > budget {
			t.Errorf("%s: refresh fetched %d rows, over the %d-row page budget", mode, fetched, budget)
		}
		if fetched == 0 || fetched >= tableRows/4 {
			t.Errorf("%s fetched %d of %d rows; paging should fetch O(page)", mode, fetched, tableRows)
		}
		// End reads one reversed page: a heap fetch per row plus the index
		// leaves under them, whatever the table's size.
		if budget := uint64(2 * w.BufferPage()); endPages > budget || endPages >= uint64(tableRows/4) {
			t.Errorf("%s: End touched %d buffer-pool pages of a %d-row table (budget %d)", mode, endPages, tableRows, budget)
		}
	}
	drain := func(mode string, rows interface {
		Next() bool
		Err() error
		Close() error
	}) {
		t.Helper()
		drained := 0
		for rows.Next() {
			drained++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if drained != tableRows {
			t.Errorf("%s fetched %d rows, want the whole table (%d)", mode, drained, tableRows)
		}
	}

	// Local: materialising the window's query drains the table; the paged
	// window fetches a page.
	stmt, err := db.Session().Prepare("SELECT * FROM order_items ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	drain("local, materialise", rows)
	stmt.Close()
	m := core.NewManager(db, 100, 30)
	w, err := m.Open(forms["item_form"], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPaged("local, paged window", w)

	// Remote: the same database behind the wire protocol.
	_, addr := serve(t, db)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	remoteRows, err := conn.Query("SELECT * FROM order_items ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	drain("remote, materialise", remoteRows)
	rw, err := m.OpenOn(forms["item_form"], core.NewRemoteSource(conn), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkPaged("remote, paged window", rw)
}

// TestE15ShapeGroupCommitSavesFsyncsAndLosesNothing checks the durability
// claims: eight concurrent autocommitting sessions over a file-backed WAL
// must share fsyncs (fewer fsyncs than commits, every commit either leading
// or riding a batch), and the files as they stand after the last
// acknowledgement — no clean shutdown — must recover every committed row,
// from the checkpoint image plus the log tail.
func TestE15ShapeGroupCommitSavesFsyncsAndLosesNothing(t *testing.T) {
	const committers = 8
	const rowsEach = 30
	dir := t.TempDir()
	db, err := engine.Open(engine.Options{
		DataPath: filepath.Join(dir, "ledger.db"),
		WALPath:  filepath.Join(dir, "ledger.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Session().Execute("CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount FLOAT)"); err != nil {
		t.Fatal(err)
	}

	// commitPhase runs the committers once; phase numbers keep ids unique.
	commitPhase := func(phase int) {
		var wg sync.WaitGroup
		errs := make(chan error, committers)
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := db.Session()
				defer s.Close()
				ins, err := s.Prepare("INSERT INTO ledger (id, owner, amount) VALUES (?, ?, ?)")
				if err != nil {
					errs <- err
					return
				}
				defer ins.Close()
				for i := 0; i < rowsEach; i++ {
					id := int64((phase*committers+w)*rowsEach + i + 1)
					if _, err := ins.Exec(types.NewInt(id), types.NewString("committer"), types.NewFloat(float64(i))); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	before := db.Stats()
	commitPhase(0)
	stats := db.Stats()
	commits := uint64(committers * rowsEach)
	fsyncs := stats.GroupCommitBatches - before.GroupCommitBatches
	saved := stats.FsyncsSaved - before.FsyncsSaved
	if fsyncs >= commits {
		t.Errorf("group commit issued %d fsyncs for %d commits: no batching happened", fsyncs, commits)
	}
	if saved == 0 {
		t.Errorf("group commit saved %d fsyncs, want > 0", saved)
	}
	if fsyncs+saved < commits {
		t.Errorf("fsync economy does not add up: %d batches + %d riders < %d durable commits", fsyncs, saved, commits)
	}

	// A checkpoint, then a second phase that lives only in the log tail.
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitPhase(1)

	// Crash: copy the files as they stand, without closing the database —
	// the data file, the log, and the log's checkpoint pointer.
	crashDir := t.TempDir()
	for _, name := range []string{"ledger.db", "ledger.wal", "ledger.wal.ckpt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := engine.Open(engine.Options{
		DataPath: filepath.Join(crashDir, "ledger.db"),
		WALPath:  filepath.Join(crashDir, "ledger.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got, want := countRows(t, recovered, "ledger"), int64(2*commits); got != want {
		t.Errorf("recovered %d rows after the crash, want %d: committed rows lost", got, want)
	}
	if info := recovered.Recovery(); !info.FromCheckpoint || info.ImageRows != int(commits) {
		t.Errorf("recovery = %+v, want replay from the checkpoint image of %d rows", info, commits)
	}
}

// order is the struct the typed client maps rows through.
type order struct {
	ID       int     `db:"id"`
	Customer string  `db:"customer"`
	Total    float64 `db:"total"`
	Shipped  bool    `db:"shipped"`
}

// TestE16ShapeTypedWriteReadCostsFewerMessages checks the typed-client
// claims: the RETURNING write+read must cost fewer server messages per
// operation than the raw INSERT-then-SELECT pair, and the reflection caches
// must be warm (hits recorded) once the same statement is prepared again.
func TestE16ShapeTypedWriteReadCostsFewerMessages(t *testing.T) {
	const ops = 20
	db := engine.OpenMemory()
	defer db.Close()
	srv, addr := serve(t, db)
	pool := client.NewPool(addr, client.PoolConfig{Size: 2, HealthCheckAfter: time.Second})
	defer pool.Close()
	if _, err := db.Session().Execute(
		"CREATE TABLE bench_orders (id INT PRIMARY KEY, customer TEXT, total FLOAT, shipped BOOL DEFAULT FALSE)"); err != nil {
		t.Fatal(err)
	}
	messagesPerOp := func(body func(id int) error) float64 {
		t.Helper()
		before := srv.Stats().MessagesServed
		for i := 0; i < ops; i++ {
			if err := body(i); err != nil {
				t.Fatal(err)
			}
		}
		return float64(srv.Stats().MessagesServed-before) / ops
	}

	// Raw: the two-statement shape the typed API replaces, on one held
	// connection so both statements are prepared once.
	h, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	raw := messagesPerOp(func(i int) error {
		id := int64(i + 1)
		if _, err := h.Exec("INSERT INTO bench_orders (id, customer, total) VALUES (?, ?, ?)",
			types.NewInt(id), types.NewString("acme"), types.NewFloat(float64(i))); err != nil {
			return err
		}
		rows, err := h.Query("SELECT id, customer, total, shipped FROM bench_orders WHERE id = ?", types.NewInt(id))
		if err != nil {
			return err
		}
		defer rows.Close()
		if !rows.Next() {
			return fmt.Errorf("row %d not found after insert", id)
		}
		if got := rows.Row()[0].Int(); got != id {
			return fmt.Errorf("read back id %d, want %d", got, id)
		}
		return rows.Close()
	})
	h.Release()

	ctx := context.Background()
	tdb := sqlair.NewPoolDB(pool)
	hits0, _ := sqlair.TypeCacheStats()
	typed := messagesPerOp(func(i int) error {
		// Prepare inside the loop, as application code naturally does: after
		// the first op it is a cache hit.
		insert, err := tdb.Prepare(
			"INSERT INTO bench_orders (id, customer, total) VALUES ($order.id, $order.customer, $order.total) RETURNING &order.*",
			order{})
		if err != nil {
			return err
		}
		id := ops + i + 1
		var stored order
		if err := tdb.Query(ctx, insert, order{ID: id, Customer: "acme", Total: float64(i)}).Get(&stored); err != nil {
			return err
		}
		if stored.ID != id || stored.Shipped {
			return fmt.Errorf("RETURNING gave %+v, want id %d with default shipped", stored, id)
		}
		return nil
	})
	if typed >= raw {
		t.Errorf("typed write+read costs %.1f msgs/op vs raw %.1f: RETURNING saved nothing", typed, raw)
	}
	if hits, _ := sqlair.TypeCacheStats(); hits == hits0 {
		t.Errorf("no type-reflection cache hits across %d typed ops", ops)
	}
}
