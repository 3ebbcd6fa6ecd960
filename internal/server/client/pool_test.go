package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/types"
)

func startServer(t *testing.T) (*engine.Database, *server.Server, string) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		db.Close()
	})
	return db, srv, ln.Addr().String()
}

// execSQL prepares text on c, runs it once and closes the statement.
func execSQL(c *client.Conn, text string) (*client.Result, error) {
	st, err := c.Prepare(text)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Exec()
}

func seedTable(t *testing.T, addr string, n int) {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := execSQL(c, "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, 'Customer %d')", i+1, i+1)
	}
	if _, err := execSQL(c, "INSERT INTO customers (id, name) VALUES "+strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
}

// TestPoolMultiplexesWorkersOverFewSockets: N workers over a K-sized pool
// must open at most K connections, reuse idle ones, and hit the per-connection
// prepared-statement cache after the warmup round.
func TestPoolMultiplexesWorkersOverFewSockets(t *testing.T) {
	_, srv, addr := startServer(t)
	seedTable(t, addr, 20)

	pool := client.NewPool(addr, client.PoolConfig{Size: 2})
	defer pool.Close()

	const workers = 8
	const iters = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := pool.With(func(h *client.PooledConn) error {
					id := int64(1 + (w*iters+i)%20)
					rows, err := query(h, "SELECT name FROM customers WHERE id = ?", types.NewInt(id))
					if err != nil {
						return err
					}
					defer rows.Close()
					if !rows.Next() {
						return fmt.Errorf("no row for id %d", id)
					}
					if got := rows.Row()[0].Str(); got != fmt.Sprintf("Customer %d", id) {
						return fmt.Errorf("id %d returned %q", id, got)
					}
					return rows.Err()
				})
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
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

	stats := pool.Stats()
	if stats.Dials > 2 {
		t.Fatalf("pool of 2 dialed %d connections", stats.Dials)
	}
	if stats.Checkouts != workers*iters {
		t.Fatalf("Checkouts = %d, want %d", stats.Checkouts, workers*iters)
	}
	// Every checkout after the first two reused an idle connection, and every
	// prepare after each connection's first hit its statement cache.
	if stats.IdleReuses < workers*iters-2 {
		t.Fatalf("IdleReuses = %d, want >= %d", stats.IdleReuses, workers*iters-2)
	}
	if stats.StmtCacheHits < workers*iters-2 {
		t.Fatalf("StmtCacheHits = %d, want >= %d", stats.StmtCacheHits, workers*iters-2)
	}
	// The seeding connection plus at most two pooled ones.
	if ss := srv.Stats(); ss.ConnectionsAccepted > 3 {
		t.Fatalf("server accepted %d connections, want <= 3", ss.ConnectionsAccepted)
	}
}

// TestPoolHealthCheckDiscardsDeadConnections: an idle connection whose server
// vanished must fail the checkout ping and be discarded, not handed out.
func TestPoolHealthCheckDiscardsDeadConnections(t *testing.T) {
	_, srv, addr := startServer(t)
	pool := client.NewPool(addr, client.PoolConfig{Size: 2})
	defer pool.Close()

	h, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h.Release()

	srv.Close() // the idle connection's server side is now gone

	if _, err := pool.GetContext(context.Background()); err == nil {
		t.Fatal("Get against a closed server must fail, not return a dead connection")
	}
	stats := pool.Stats()
	if stats.HealthCheckFailures != 1 {
		t.Fatalf("HealthCheckFailures = %d, want 1", stats.HealthCheckFailures)
	}
	if stats.Discards == 0 {
		t.Fatal("the dead connection was not discarded")
	}
}

// TestPoolRollsBackAbandonedTransaction: a worker that releases a connection
// with its transaction still open must not leak that transaction (or its
// locks) to the next worker. Release runs ROLLBACK through the connection's
// statement cache: a Prepare and a Run the first time, one Run once cached.
func TestPoolRollsBackAbandonedTransaction(t *testing.T) {
	db, srv, addr := startServer(t)
	seedTable(t, addr, 3)
	pool := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer pool.Close()

	for round, wantFrames := range []uint64{2, 1} {
		h, err := pool.GetContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Exec("UPDATE customers SET name = 'leaked' WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
		abortedBefore := db.Stats().Aborted
		before := srv.Stats().MessagesServed
		h.Release() // forgot to commit or roll back
		if got := srv.Stats().MessagesServed - before; got != wantFrames {
			t.Errorf("round %d: Release sent %d frame(s), want %d", round, got, wantFrames)
		}
		if got := db.Stats().Aborted; got != abortedBefore+1 {
			t.Fatalf("round %d: aborted %d -> %d, want the abandoned transaction rolled back", round, abortedBefore, got)
		}
	}
	if dials := pool.Stats().Dials; dials != 1 {
		t.Fatalf("Dials = %d, want 1: both rounds must reuse the rolled-back connection", dials)
	}
	h2, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	res, err := h2.Exec("SELECT name FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got == "leaked" {
		t.Fatal("abandoned transaction's write survived the release")
	}
}

// TestPoolRollsBackSQLBegin: a transaction opened with SQL BEGIN through Exec
// and abandoned at Release is rolled back, so the next borrower neither
// inherits it nor can commit the first worker's write. A transaction the
// worker commits itself leaves Release nothing to send.
func TestPoolRollsBackSQLBegin(t *testing.T) {
	db, srv, addr := startServer(t)
	seedTable(t, addr, 3)
	pool := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer pool.Close()

	h, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"BEGIN", "UPDATE customers SET name = 'leaked' WHERE id = 2"} {
		if _, err := h.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	abortedBefore := db.Stats().Aborted
	h.Release()
	if got := db.Stats().Aborted; got != abortedBefore+1 {
		t.Fatalf("aborted %d -> %d, want the abandoned transaction rolled back", abortedBefore, got)
	}

	h2, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Exec("COMMIT"); err == nil {
		t.Fatal("the next borrower inherited an open transaction")
	}
	res, err := h2.Exec("SELECT name FROM customers WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Str(); got == "leaked" {
		t.Fatal("the abandoned transaction's write was committed")
	}

	for _, q := range []string{"BEGIN", "UPDATE customers SET name = 'kept' WHERE id = 2", "COMMIT"} {
		if _, err := h2.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	before := srv.Stats().MessagesServed
	h2.Release()
	if got := srv.Stats().MessagesServed; got != before {
		t.Fatalf("Release sent %d message(s) with no transaction open, want none", got-before)
	}
}

// TestPoolClosed: Get after Close fails fast — before any dial, so no server
// is needed.
func TestPoolClosed(t *testing.T) {
	pool := client.NewPool("127.0.0.1:1", client.PoolConfig{Size: 1})
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.GetContext(context.Background()); err != client.ErrPoolClosed {
		t.Fatalf("Get after Close = %v, want ErrPoolClosed", err)
	}
}

// refusingServer listens on a loopback port, reads one connection's Hello
// and answers it with a single MsgErr frame holding answer(offered), as a
// server that refuses the handshake does. It returns the address to dial.
func refusingServer(t *testing.T, answer func(offered wire.Version) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		_, payload, err := wire.ReadFrame(nc)
		if err != nil {
			return
		}
		hello := wire.DecodeHello(wire.NewCursor(payload))
		wire.WriteFrame(nc, wire.MsgErr, answer(hello.Version))
	}()
	return ln.Addr().String()
}

// TestDialAgainstPreV2Server: a server that answers the Hello with "unknown
// message type" (which is exactly what the PR 3 server did) must surface as a
// clear *HandshakeError, not a codec error or a confusing statement failure.
func TestDialAgainstPreV2Server(t *testing.T) {
	// Mimic the v1 server: answer MsgErr "unknown message type 0x0a" the way
	// the old dispatch loop did.
	addr := refusingServer(t, func(wire.Version) []byte {
		var b wire.Buffer
		b.String("server: unknown message type 0x0a")
		return b.B
	})
	_, err := client.Dial(addr)
	if err == nil {
		t.Fatal("dialing a pre-v2 server must fail")
	}
	he, ok := err.(*client.HandshakeError)
	if !ok {
		t.Fatalf("want *client.HandshakeError, got %T: %v", err, err)
	}
	if !strings.Contains(he.Error(), "does not speak protocol v"+wire.Current.String()) {
		t.Fatalf("handshake error %q does not explain the version gap", he.Error())
	}
}

// TestDialRefusedVersion: a server that refuses the offered version with a
// versioned error frame surfaces as a typed *wire.VersionError naming both
// versions, with the client's filled in from what Dial offered when the
// server echoes a zero.
func TestDialRefusedVersion(t *testing.T) {
	future := wire.Version{Major: wire.Current.Major + 1, Minor: 2}
	for _, echo := range []bool{true, false} {
		addr := refusingServer(t, func(offered wire.Version) []byte {
			ve := &wire.VersionError{Server: future}
			if echo {
				ve.Client = offered
			}
			return wire.EncodeVersionError(ve)
		})
		_, err := client.Dial(addr)
		var ve *wire.VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("echo=%v: want *wire.VersionError, got %T: %v", echo, err, err)
		}
		if ve.Client != wire.Current || ve.Server != future {
			t.Fatalf("echo=%v: VersionError = %+v, want client v%s and server v%s", echo, ve, wire.Current, future)
		}
		if !strings.Contains(ve.Error(), "v"+wire.Current.String()) || !strings.Contains(ve.Error(), "v"+future.String()) {
			t.Fatalf("echo=%v: refusal text %q does not name both versions", echo, ve.Error())
		}
	}
}

// TestPooledConnUseAfterRelease: a handle kept past Release must never touch
// the connection again — it may already belong to another worker.
func TestPooledConnUseAfterRelease(t *testing.T) {
	_, _, addr := startServer(t)
	seedTable(t, addr, 1)
	pool := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer pool.Close()

	h, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if _, err := h.Exec("BEGIN"); err == nil {
		t.Fatal("Exec on a released handle must fail")
	}
	if _, err := h.Prepare("SELECT id FROM customers"); err == nil {
		t.Fatal("Prepare on a released handle must fail")
	}
	if client.ConnOf(h) != nil {
		t.Fatal("a released handle must not hold a connection")
	}
	// The connection itself is unharmed for the next worker.
	h2, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if _, err := h2.Exec("SELECT id FROM customers"); err != nil {
		t.Fatal(err)
	}
}

// TestPooledConnStmtCacheBounded: cycling through distinct SQL text must not
// grow the statement cache without limit.
func TestPooledConnStmtCacheBounded(t *testing.T) {
	_, _, addr := startServer(t)
	seedTable(t, addr, 1)
	pool := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer pool.Close()

	err := pool.With(func(h *client.PooledConn) error {
		for i := 0; i < 200; i++ {
			// 200 distinct statements, far past the 64-entry cache bound.
			if _, err := h.Exec(fmt.Sprintf("SELECT id FROM customers WHERE id = %d", i)); err != nil {
				return err
			}
		}
		// The connection still works and a repeated shape still caches.
		if _, err := h.Exec("SELECT id FROM customers WHERE id = 0"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPooledStmtCloseKeepsCacheUsable: Close on a statement the pool owns
// must not poison the connection's cache — the next checkout that prepares
// the same text hits the cache and runs it.
func TestPooledStmtCloseKeepsCacheUsable(t *testing.T) {
	_, _, addr := startServer(t)
	seedTable(t, addr, 1)
	pool := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer pool.Close()
	const q = "SELECT name FROM customers WHERE id = ?"

	h, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := h.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	h.Release()

	hits := pool.Stats().StmtCacheHits
	h, err = pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	rows, err := query(h, q, types.NewInt(1))
	if err != nil {
		t.Fatalf("query after closing the pooled statement: %v", err)
	}
	if !rows.Next() || rows.Row()[0].Str() != "Customer 1" {
		t.Fatalf("query after closing the pooled statement read %v (err %v)", rows.Row(), rows.Err())
	}
	rows.Close()
	if got := pool.Stats().StmtCacheHits; got != hits+1 {
		t.Fatalf("StmtCacheHits = %d, want %d", got, hits+1)
	}
}

// TestPoolHealthCheckAfterSkipsPingForFreshConnections: with HealthCheckAfter
// set, a connection re-checked-out promptly after Release must not pay a ping
// round trip, while one idle past the window is probed again.
func TestPoolHealthCheckAfterSkipsPingForFreshConnections(t *testing.T) {
	_, srv, addr := startServer(t)
	pool := client.NewPool(addr, client.PoolConfig{Size: 1, HealthCheckAfter: 50 * time.Millisecond})
	defer pool.Close()

	h, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h.Release()

	before := srv.Stats().MessagesServed
	h, err = pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got := srv.Stats().MessagesServed - before; got != 0 {
		t.Fatalf("prompt re-checkout cost %d server messages, want 0 (no ping)", got)
	}

	time.Sleep(60 * time.Millisecond)
	before = srv.Stats().MessagesServed
	h, err = pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if got := srv.Stats().MessagesServed - before; got == 0 {
		t.Fatal("checkout after the idle window sent no ping")
	}
}

// TestPoolHealthCheckAfterConcurrent races many workers through checkout
// with the ping-skip window enabled. The invariants: no checkout errors, no
// lost tokens (all workers finish), and released connections keep their
// recent-use vouching consistent.
func TestPoolHealthCheckAfterConcurrent(t *testing.T) {
	_, _, addr := startServer(t)
	p := client.NewPool(addr, client.PoolConfig{
		Size:             4,
		HealthCheckAfter: 50 * time.Millisecond,
	})
	defer p.Close()

	// Seed a table through the pool.
	h, err := p.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	h.Release()

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				h, err := p.GetContext(context.Background())
				if err != nil {
					t.Errorf("checkout: %v", err)
					return
				}
				rows, err := query(h, "SELECT id FROM t")
				if err != nil {
					t.Errorf("query: %v", err)
					h.Release()
					return
				}
				for rows.Next() {
				}
				rows.Close()
				h.Release()
			}
		}()
	}
	wg.Wait()

	st := p.Stats()
	if st.Checkouts != 16*50+1 {
		t.Errorf("checkouts = %d, want %d", st.Checkouts, 16*50+1)
	}
	if st.Discards != 0 {
		t.Errorf("discards = %d on a healthy server, want 0", st.Discards)
	}
	// Inside the vouching window nearly every checkout should skip the ping;
	// the only guaranteed-pinged checkouts are those past the window, which a
	// tight loop never produces. HealthCheckFailures must certainly be zero.
	if st.HealthCheckFailures != 0 {
		t.Errorf("health-check failures = %d, want 0", st.HealthCheckFailures)
	}
}

// query prepares (or reuses) the statement on the pooled connection and runs
// it with the args.
func query(h *client.PooledConn, text string, args ...types.Value) (*client.Rows, error) {
	st, err := h.Prepare(text)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}
