package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
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

func seedTable(t *testing.T, addr string, n int) {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE customers (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("INSERT INTO customers (id, name) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i + 1)), types.NewString(fmt.Sprintf("Customer %d", i+1))}
	}
	if _, err := st.ExecBatch(rows); err != nil {
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
// locks) to the next worker.
func TestPoolRollsBackAbandonedTransaction(t *testing.T) {
	db, _, addr := startServer(t)
	seedTable(t, addr, 3)
	pool := client.NewPool(addr, client.PoolConfig{Size: 1})
	defer pool.Close()

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
	h.Release() // forgot to commit or roll back

	if got := db.Stats().Aborted; got != abortedBefore+1 {
		t.Fatalf("aborted %d -> %d, want the abandoned transaction rolled back", abortedBefore, got)
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

// TestDialAgainstPreV2Server: a server that answers the Hello with "unknown
// message type" (which is exactly what the PR 3 server did) must surface as a
// clear *HandshakeError, not a codec error or a confusing statement failure.
func TestDialAgainstPreV2Server(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		// Mimic the v1 server: read the frame, answer MsgErr "unknown
		// message type 0x0a" the way the old dispatch loop did.
		if _, _, err := wire.ReadFrame(nc); err != nil {
			return
		}
		var b wire.Buffer
		b.String("server: unknown message type 0x0a")
		wire.WriteFrame(nc, wire.MsgErr, b.B)
	}()

	_, err = client.Dial(ln.Addr().String())
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

// The tests below route reads over a fleet: one primary plus replicas
// streaming its WAL, behind one Pool configured with Replicas.

// startPrimaryServer serves a file-backed database that can stream its WAL.
func startPrimaryServer(t *testing.T) (*engine.Database, string) {
	t.Helper()
	wal := filepath.Join(t.TempDir(), "primary.wal")
	db, err := engine.Open(engine.Options{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return db, ln.Addr().String()
}

// startReplicaServer runs the full replica stack against primaryAddr.
func startReplicaServer(t *testing.T, primaryAddr string) (*server.Replica, string) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := server.NewReplica(db, primaryAddr)
	srv := server.New(db)
	srv.SetReadOnly(true)
	srv.SetLSNSource(rep.AppliedLSN)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	rep.Start()
	t.Cleanup(func() {
		rep.Stop()
		srv.Close()
		db.Close()
	})
	return rep, ln.Addr().String()
}

// waitApplied blocks until the replica reaches the primary's current durable
// frontier.
func waitApplied(t *testing.T, primary *engine.Database, rep *server.Replica) {
	t.Helper()
	target := uint64(primary.Transactions().WAL().DurableLSN())
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d of %d: %+v", rep.AppliedLSN(), target, rep.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readV runs the kv point read on a routed connection and releases it,
// returning the value and the LSN the serving server reported with it.
func readV(t *testing.T, h *client.PooledConn) (string, uint64) {
	t.Helper()
	defer h.Release()
	rows, err := query(h, "SELECT v FROM kv WHERE k = ?", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	var v string
	for rows.Next() {
		v = rows.Row()[0].Str()
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	return v, client.ConnOf(h).LastLSN()
}

func TestFleetRoutesReadsToReplicas(t *testing.T) {
	db, primaryAddr := startPrimaryServer(t)
	repA, addrA := startReplicaServer(t, primaryAddr)
	repB, addrB := startReplicaServer(t, primaryAddr)

	pool := client.NewPool(primaryAddr, client.PoolConfig{Replicas: []string{addrA, addrB}})
	defer pool.Close()

	// Writes go to the primary, and observing them teaches the pool the
	// primary's frontier.
	w, err := pool.GetContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("INSERT INTO kv (k, v) VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	w.Release()
	if pool.Stats().LSNHighWater == 0 {
		t.Fatal("write traffic did not teach the pool the primary LSN")
	}
	waitApplied(t, db, repA)
	waitApplied(t, db, repB)

	for i := 0; i < 6; i++ {
		h, replica, err := pool.GetRead()
		if err != nil {
			t.Fatal(err)
		}
		if !replica {
			t.Fatalf("read %d did not land on a replica", i)
		}
		if _, err := h.Exec("INSERT INTO kv (k, v) VALUES (2, 'two')"); err == nil || !strings.Contains(err.Error(), "read-only replica") {
			t.Fatalf("read %d: a write on the routed connection = %v, want the replica's read-only refusal", i, err)
		}
		v, lsn := readV(t, h)
		if v != "one" {
			t.Fatalf("read %d: v = %q, want \"one\"", i, v)
		}
		if lsn == 0 {
			t.Errorf("read %d: the replica reported no applied LSN", i)
		}
	}
}

func TestFleetFallsBackWhenAllReplicasStale(t *testing.T) {
	db, primaryAddr := startPrimaryServer(t)
	rep, replicaAddr := startReplicaServer(t, primaryAddr)

	pool := client.NewPool(primaryAddr, client.PoolConfig{
		Replicas:    []string{replicaAddr},
		MaxLagBytes: 1, // almost any write pushes the replica out of bounds
	})
	defer pool.Close()

	if err := pool.With(func(h *client.PooledConn) error {
		_, err := h.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)

	// Freeze the applier, then write past the bound: the replica's applied
	// LSN stops while the primary's frontier moves on.
	rep.Stop()
	if err := pool.With(func(h *client.PooledConn) error {
		_, err := h.Exec("INSERT INTO kv (k, v) VALUES (1, 'after-freeze')")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	h, replica, err := pool.GetRead()
	if err != nil {
		t.Fatal(err)
	}
	if replica {
		t.Fatal("read landed on a replica lagging past the bound")
	}
	// The primary fallback must see the write the replica has not applied.
	if v, _ := readV(t, h); v != "after-freeze" {
		t.Errorf("fallback read v = %q, want \"after-freeze\"", v)
	}
}

// TestFleetBoundedStaleness hammers writes and routed reads concurrently and
// asserts the routing contract: every read lands on a server whose reported
// LSN is within MaxLagBytes of the primary frontier the pool knew when the
// read was routed.
func TestFleetBoundedStaleness(t *testing.T) {
	db, primaryAddr := startPrimaryServer(t)
	rep, replicaAddr := startReplicaServer(t, primaryAddr)

	const maxLag = 4096
	pool := client.NewPool(primaryAddr, client.PoolConfig{
		Replicas:    []string{replicaAddr},
		MaxLagBytes: maxLag,
	})
	defer pool.Close()

	if err := pool.With(func(h *client.PooledConn) error {
		if _, err := h.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
			return err
		}
		_, err := h.Exec("INSERT INTO kv (k, v) VALUES (1, 'x')")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			err := pool.With(func(h *client.PooledConn) error {
				_, err := h.Exec("UPDATE kv SET v = 'y' WHERE k = 1")
				return err
			})
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	violations, replicaReads := 0, 0
	for i := 0; i < 200; i++ {
		required := pool.Stats().LSNHighWater // what the pool knew before routing
		h, replica, err := pool.GetRead()
		if err != nil {
			t.Fatal(err)
		}
		if replica {
			replicaReads++
		}
		v, got := readV(t, h)
		if v != "x" && v != "y" {
			t.Fatalf("routed read %d: v = %q", i, v)
		}
		if got+maxLag < required {
			violations++
			t.Errorf("read %d: server LSN %d lags required %d by more than %d", i, got, required, maxLag)
		}
	}
	close(stop)
	wg.Wait()
	if violations != 0 {
		t.Fatalf("%d bounded-staleness violations", violations)
	}
	t.Logf("%d of 200 reads served by the replica", replicaReads)
}

func TestFleetNoReplicasDegeneratesToPrimary(t *testing.T) {
	_, primaryAddr := startPrimaryServer(t)
	pool := client.NewPool(primaryAddr, client.PoolConfig{})
	defer pool.Close()
	h, replica, err := pool.GetRead()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if replica {
		t.Error("replica=true from a pool with no replicas")
	}
	if _, err := h.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
}

// TestFleetDeadReplicaFallsBack: a replica that cannot be reached must not
// fail reads while the primary is up.
func TestFleetDeadReplicaFallsBack(t *testing.T) {
	_, _, addr := startServer(t)
	seedTable(t, addr, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	pool := client.NewPool(addr, client.PoolConfig{Size: 1, Replicas: []string{dead}})
	defer pool.Close()
	h, replica, err := pool.GetRead()
	if err != nil {
		t.Fatalf("a dead replica failed the read: %v", err)
	}
	defer h.Release()
	if replica {
		t.Fatal("replica=true for a read the dead replica cannot have served")
	}
	if _, err := h.Exec("SELECT name FROM customers WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
}

// TestFleetCloseStopsRouting: Close on a pool with replicas returns — its
// prober exits — and every later checkout, routed or not, is refused.
func TestFleetCloseStopsRouting(t *testing.T) {
	db, primaryAddr := startPrimaryServer(t)
	rep, replicaAddr := startReplicaServer(t, primaryAddr)
	pool := client.NewPool(primaryAddr, client.PoolConfig{Replicas: []string{replicaAddr}})

	if err := pool.With(func(h *client.PooledConn) error {
		_, err := h.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, db, rep)
	h, replica, err := pool.GetRead()
	if err != nil || !replica {
		t.Fatalf("GetRead = replica %v, err %v; want a replica", replica, err)
	}
	h.Release()

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.GetContext(context.Background()); !errors.Is(err, client.ErrPoolClosed) {
		t.Fatalf("Get after Close = %v, want ErrPoolClosed", err)
	}
	if _, _, err := pool.GetRead(); !errors.Is(err, client.ErrPoolClosed) {
		t.Fatalf("GetRead after Close = %v, want ErrPoolClosed", err)
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
