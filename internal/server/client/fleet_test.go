package client_test

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

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

func TestFleetRoutesReadsToReplicas(t *testing.T) {
	db, primaryAddr := startPrimaryServer(t)
	repA, addrA := startReplicaServer(t, primaryAddr)
	repB, addrB := startReplicaServer(t, primaryAddr)

	f := client.NewFleet(primaryAddr, []string{addrA, addrB}, client.FleetConfig{
		ProbeInterval: -1, // tests drive freshness by hand
	})
	defer f.Close()

	// Writes pin to the primary, and observing them teaches the fleet the
	// primary's frontier.
	w, err := f.GetWrite()
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
	if f.PrimaryLSN() == 0 {
		t.Fatal("GetWrite traffic did not teach the fleet the primary LSN")
	}

	waitApplied(t, db, repA)
	waitApplied(t, db, repB)
	f.Probe()

	// Reads now spread across both replicas.
	for i := 0; i < 6; i++ {
		h, replica, err := f.GetRead()
		if err != nil {
			t.Fatal(err)
		}
		if !replica {
			t.Fatalf("read %d did not land on a replica (stats %+v)", i, f.Stats())
		}
		if !h.Conn().IsReplica() {
			t.Errorf("read %d: routed connection does not identify as a replica", i)
		}
		rows, err := h.Query("SELECT v FROM kv WHERE k = ?", types.NewInt(1))
		if err != nil {
			t.Fatal(err)
		}
		var v string
		for rows.Next() {
			v = rows.Row()[0].Str()
		}
		rows.Close()
		h.Release()
		if v != "one" {
			t.Fatalf("read %d: v = %q, want \"one\"", i, v)
		}
	}
	st := f.Stats()
	if st.ReplicaReads != 6 || st.PrimaryFallbacks != 0 {
		t.Errorf("stats = %+v, want 6 replica reads and no fallbacks", st)
	}
	for i, lsn := range st.ReplicaLSNs {
		if lsn == 0 {
			t.Errorf("replica %d LSN high-water still 0 after probe", i)
		}
	}
}

func TestFleetFallsBackWhenAllReplicasStale(t *testing.T) {
	db, primaryAddr := startPrimaryServer(t)
	rep, replicaAddr := startReplicaServer(t, primaryAddr)

	f := client.NewFleet(primaryAddr, []string{replicaAddr}, client.FleetConfig{
		MaxLagBytes:   1, // almost any write pushes the replica out of bounds
		ProbeInterval: -1,
	})
	defer f.Close()

	w, err := f.GetWrite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	w.Release()
	waitApplied(t, db, rep)
	f.Probe()

	// Freeze the applier, then write past the bound: the replica's applied
	// LSN stops while the primary's frontier moves on.
	rep.Stop()
	w, err = f.GetWrite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("INSERT INTO kv (k, v) VALUES (1, 'after-freeze')"); err != nil {
		t.Fatal(err)
	}
	w.Release()
	f.Probe()

	h, replica, err := f.GetRead()
	if err != nil {
		t.Fatal(err)
	}
	if replica {
		t.Fatalf("read landed on a replica lagging past the bound (stats %+v)", f.Stats())
	}
	// The primary fallback must see the write the replica has not applied.
	rows, err := h.Query("SELECT v FROM kv WHERE k = ?", types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	var v string
	for rows.Next() {
		v = rows.Row()[0].Str()
	}
	rows.Close()
	h.Release()
	if v != "after-freeze" {
		t.Errorf("fallback read v = %q, want \"after-freeze\"", v)
	}
	st := f.Stats()
	if st.PrimaryFallbacks == 0 || st.StaleSkips == 0 {
		t.Errorf("stats = %+v, want a stale skip and a primary fallback", st)
	}
}

// TestFleetBoundedStaleness hammers writes and routed reads concurrently and
// asserts the routing contract: every read lands on a server whose reported
// LSN is within MaxLagBytes of the primary frontier the fleet knew when the
// read was routed.
func TestFleetBoundedStaleness(t *testing.T) {
	db, primaryAddr := startPrimaryServer(t)
	rep, replicaAddr := startReplicaServer(t, primaryAddr)

	const maxLag = 4096
	f := client.NewFleet(primaryAddr, []string{replicaAddr}, client.FleetConfig{
		MaxLagBytes:   maxLag,
		ProbeInterval: 5 * time.Millisecond,
	})
	defer f.Close()

	w, err := f.GetWrite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("INSERT INTO kv (k, v) VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	w.Release()
	waitApplied(t, db, rep)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h, err := f.GetWrite()
			if err != nil {
				return
			}
			_, err = h.Exec("UPDATE kv SET v = 'y' WHERE k = 1")
			h.Release()
			if err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	violations := 0
	for i := 0; i < 200; i++ {
		required := f.PrimaryLSN() // what the fleet knew before routing
		h, _, err := f.GetRead()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := h.Query("SELECT v FROM kv WHERE k = ?", types.NewInt(1))
		if err != nil {
			// The routed replica may briefly refuse nothing — reads must
			// simply not error under lag.
			t.Fatalf("routed read %d: %v", i, err)
		}
		for rows.Next() {
		}
		rows.Close()
		got := h.Conn().LastLSN()
		h.Release()
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
}

func TestFleetNoReplicasDegeneratesToPrimary(t *testing.T) {
	_, primaryAddr := startPrimaryServer(t)
	f := client.NewFleet(primaryAddr, nil, client.FleetConfig{ProbeInterval: -1})
	defer f.Close()
	h, replica, err := f.GetRead()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if replica {
		t.Error("replica=true from a fleet with no replicas")
	}
	if _, err := h.Exec("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
}

// TestPoolHealthCheckAfterConcurrent races many workers through checkout
// with the ping-skip window enabled — the HealthCheckAfter satellite. The
// invariants: no checkout errors, no lost tokens (all workers finish), and
// released connections keep their recent-use vouching consistent.
func TestPoolHealthCheckAfterConcurrent(t *testing.T) {
	_, _, addr := startServer(t)
	p := client.NewPool(addr, client.PoolConfig{
		Size:             4,
		HealthCheckAfter: 50 * time.Millisecond,
	})
	defer p.Close()

	// Seed a table through the pool.
	h, err := p.Get()
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
				h, err := p.Get()
				if err != nil {
					t.Errorf("checkout: %v", err)
					return
				}
				rows, err := h.Query("SELECT id FROM t")
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
