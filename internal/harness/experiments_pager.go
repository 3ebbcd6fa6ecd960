package harness

import (
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
)

// RunE13 — windowed browsing on streaming cursors: a browse window opens
// over the largest workload table (order_items) and is driven through the
// classic navigation keys, locally and over the wire protocol. Before the
// window pager, every refresh materialised the entire result set into the
// window (the "materialise" rows reproduce that code path by draining the
// window's query); with the pager, a refresh fetches one buffer page plus a
// one-row COUNT, PageDown fetches at most a page, and End is one reversed
// page — O(page) instead of O(table), locally and remotely. The "fetch
// reduction" column is the table size divided by what one refresh now
// fetches. Rows fetched is what crosses the cursor; "end pool pages" is what
// the engine read to produce them — buffer-pool fetches during the End
// keystroke, which a streaming reverse index scan keeps at about a page of
// rows however large the table is, and which E13 asserts.
func RunE13(cfg Config) (*Table, error) {
	env, err := newEnvironment(cfg.Sizes)
	if err != nil {
		return nil, err
	}
	defer env.db.Close()
	tableRows := cfg.Sizes.Orders * cfg.Sizes.ItemsPerOrder

	pageDowns := 8
	if cfg.Quick {
		pageDowns = 4
	}

	table := &Table{
		ID:    "E13",
		Title: "Windowed browsing: paged keyset cursors vs per-refresh materialisation (order_items, the largest table)",
		Columns: []string{
			"mode", "table rows", "refresh fetches", "refresh ms",
			"pgdn fetches", "pgdn µs", "end fetches", "end pool pages", "fetch reduction",
		},
	}

	addRow := func(mode string, refreshFetched uint64, refresh time.Duration,
		pgdnFetched, endFetched, endPoolPages string, pgdn string) {
		reduction := "1.0x"
		if refreshFetched > 0 && uint64(tableRows) != refreshFetched {
			reduction = fmt.Sprintf("%.0fx", float64(tableRows)/float64(refreshFetched))
		}
		table.Rows = append(table.Rows, []string{
			mode,
			fmt.Sprintf("%d", tableRows),
			fmt.Sprintf("%d", refreshFetched),
			ms(refresh),
			pgdnFetched,
			pgdn,
			endFetched,
			endPoolPages,
			reduction,
		})
	}

	// measurePaged drives one already-open window and records its traffic.
	measurePaged := func(mode string, w *core.Window) error {
		s0 := w.Stats()
		start := time.Now()
		if err := w.Refresh(); err != nil {
			return err
		}
		refreshDur := time.Since(start)
		s1 := w.Stats()

		start = time.Now()
		for i := 0; i < pageDowns; i++ {
			if err := w.MoveCursor(w.PageSize()); err != nil {
				return err
			}
		}
		pgdnDur := time.Since(start) / time.Duration(pageDowns)
		s2 := w.Stats()

		pool0 := poolFetches(env.db)
		if err := w.LastRow(); err != nil {
			return err
		}
		endPoolPages := poolFetches(env.db) - pool0
		s3 := w.Stats()
		if w.Cursor() != tableRows-1 {
			return fmt.Errorf("E13 %s: End landed on row %d of %d", mode, w.Cursor()+1, tableRows)
		}

		budget := uint64(w.BufferPage() + 1) // a buffer page plus the count row
		refreshFetched := s1.RowsFetched - s0.RowsFetched
		if refreshFetched > budget {
			return fmt.Errorf("E13 %s: refresh fetched %d rows, over the %d-row page budget", mode, refreshFetched, budget)
		}
		// End reads one reversed page: a heap fetch per row plus the index
		// leaves under them, whatever the table's size.
		if endBudget := uint64(2 * w.BufferPage()); endPoolPages > endBudget {
			return fmt.Errorf("E13 %s: End touched %d buffer-pool pages, over the %d-page budget of a %d-row table", mode, endPoolPages, endBudget, tableRows)
		}
		addRow(mode, refreshFetched, refreshDur,
			fmt.Sprintf("%d", (s2.RowsFetched-s1.RowsFetched)/uint64(pageDowns)),
			fmt.Sprintf("%d", s3.RowsFetched-s2.RowsFetched),
			fmt.Sprintf("%d", endPoolPages),
			us(pgdnDur))
		return nil
	}

	// Local, materialise: what every refresh cost before the pager — drain
	// the window's whole query through a streaming cursor.
	session := env.db.Session()
	stmt, err := session.Prepare("SELECT * FROM order_items ORDER BY id")
	if err != nil {
		return nil, err
	}
	drained := 0
	start := time.Now()
	rows, err := stmt.Query()
	if err != nil {
		return nil, err
	}
	for rows.Next() {
		drained++
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	rows.Close()
	stmt.Close()
	addRow("local, materialise (pre-pager)", uint64(drained), time.Since(start), "-", "-", "-", "-")

	// Local, paged window.
	m := core.NewManager(env.db, 100, 30)
	w, err := m.Open(env.forms["item_form"], 0, 0)
	if err != nil {
		return nil, err
	}
	if err := measurePaged("local, paged window", w); err != nil {
		return nil, err
	}
	pageBudget := w.BufferPage()

	// Remote: the same database behind the wire protocol.
	srv := server.New(env.db)
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
	conn, err := client.Dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	// Remote, materialise: drain the query over the wire in fetch batches.
	drained = 0
	start = time.Now()
	remoteRows, err := conn.Query("SELECT * FROM order_items ORDER BY id")
	if err != nil {
		return nil, err
	}
	for remoteRows.Next() {
		drained++
	}
	if err := remoteRows.Err(); err != nil {
		return nil, err
	}
	remoteRows.Close()
	addRow("remote, materialise (pre-pager)", uint64(drained), time.Since(start), "-", "-", "-", "-")

	// Remote, paged window: the pager's page size drives the Fetch frame's
	// max-rows, so one page is one round trip.
	rw, err := m.OpenOn(env.forms["item_form"], core.NewRemoteSource(conn), 0, 0)
	if err != nil {
		return nil, err
	}
	if err := measurePaged("remote, paged window", rw); err != nil {
		return nil, err
	}

	table.Notes = append(table.Notes,
		fmt.Sprintf("window page (visible rows × lookahead) = %d rows; a paged refresh fetches one page plus a one-row COUNT", pageBudget),
		fmt.Sprintf("pgdn is the mean over %d page-downs (in-buffer moves fetch nothing; crossing the buffer fetches one page); End is one reversed keyset page", pageDowns),
		"materialise rows reproduce the pre-pager window: every refresh drained the entire ordered result into Grid rows",
	)
	return table, nil
}

// poolFetches is the number of page requests the buffer pool has served: the
// engine's "pages examined" counter.
func poolFetches(db *engine.Database) uint64 {
	pool := db.Stats().BufferPool
	return pool.Hits + pool.Misses
}
