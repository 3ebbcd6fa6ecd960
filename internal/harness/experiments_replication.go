package harness

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// E17 — WAL streaming replication and fleet read routing. The workload is a
// primary taking a continuous write stream while reader workers hammer
// point-and-range SELECTs through a client.Fleet. The fleet is measured at
// 0, 1 and 2 replicas: at 0 every read lands on the primary (the replaced
// discipline — one engine serves everything); with replicas the fleet
// spreads reads across engines that apply the same WAL, and the primary
// keeps its cycles for the writers. Every routed read is audited against
// the staleness bound: the serving server's reported LSN must be within
// MaxLagBytes of the primary frontier the fleet knew at routing time.

// e17Fleet is one running fleet topology: a file-backed primary plus n
// in-process replicas, each a full engine+applier+read-only-server stack.
type e17Fleet struct {
	primaryDB *engine.Database
	servers   []*server.Server
	replicas  []*server.Replica
	dbs       []*engine.Database
	listeners []net.Listener

	primaryAddr  string
	replicaAddrs []string
}

func (f *e17Fleet) close() {
	for _, r := range f.replicas {
		r.Stop()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, db := range f.dbs {
		db.Close()
	}
}

// startE17Fleet builds the topology and populates the ledger table.
func startE17Fleet(dir string, nReplicas, rows int) (*e17Fleet, error) {
	f := &e17Fleet{}
	db, err := engine.Open(engine.Options{
		WALPath:     fmt.Sprintf("%s/primary-%d.wal", dir, nReplicas),
		LockTimeout: time.Second,
	})
	if err != nil {
		return nil, err
	}
	f.primaryDB = db
	f.dbs = append(f.dbs, db)
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	go srv.Serve(ln)
	f.servers = append(f.servers, srv)
	f.listeners = append(f.listeners, ln)
	f.primaryAddr = ln.Addr().String()

	setup := db.Session()
	_, err = setup.Execute("CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)")
	if err == nil {
		ins, perr := setup.Prepare("INSERT INTO ledger (id, owner, amount) VALUES (?, ?, ?)")
		if perr != nil {
			err = perr
		} else {
			for i := 1; i <= rows && err == nil; i++ {
				_, err = ins.Exec(types.NewInt(int64(i)), types.NewString("seed"), types.NewInt(100))
			}
			ins.Close()
		}
	}
	if cerr := setup.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		f.close()
		return nil, err
	}

	for i := 0; i < nReplicas; i++ {
		rdb, err := engine.Open(engine.Options{LockTimeout: time.Second})
		if err != nil {
			f.close()
			return nil, err
		}
		f.dbs = append(f.dbs, rdb)
		rep := server.NewReplica(rdb, f.primaryAddr)
		rsrv := server.New(rdb)
		rsrv.SetReadOnly(true)
		rsrv.SetLSNSource(rep.AppliedLSN)
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		go rsrv.Serve(rln)
		rep.Start()
		f.servers = append(f.servers, rsrv)
		f.replicas = append(f.replicas, rep)
		f.listeners = append(f.listeners, rln)
		f.replicaAddrs = append(f.replicaAddrs, rln.Addr().String())
	}

	// Let every replica reach the primary's frontier before measuring.
	target := uint64(db.Transactions().WAL().DurableLSN())
	deadline := time.Now().Add(30 * time.Second)
	for _, rep := range f.replicas {
		for rep.AppliedLSN() < target {
			if time.Now().After(deadline) {
				st := rep.Stats()
				f.close()
				return nil, fmt.Errorf("replica stuck at LSN %d of %d (%s)", st.AppliedLSN, target, st.LastError)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return f, nil
}

// e17Result is one topology's measurement.
type e17Result struct {
	reads           uint64
	writes          uint64
	elapsed         time.Duration
	replicaReads    uint64
	fallbacks       uint64
	staleViolations uint64
}

// runE17Workload drives `readers` workers through fleet read routing for the
// duration, with one writer stream mutating the ledger on the primary the
// whole time. Reads mix a point lookup with a 200-row range sum — the page
// shapes a browsing window issues.
func runE17Workload(f *e17Fleet, maxLag uint64, readers, rows int, dur time.Duration) (e17Result, error) {
	fleet := client.NewFleet(f.primaryAddr, f.replicaAddrs, client.FleetConfig{
		Pool:          client.PoolConfig{Size: readers + 2, HealthCheckAfter: time.Second},
		MaxLagBytes:   maxLag,
		ProbeInterval: 5 * time.Millisecond,
	})
	defer fleet.Close()

	var res e17Result
	var stale atomic.Uint64
	var reads, writes atomic.Uint64
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup

	// The write stream: single-row updates, autocommitted, on the primary.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h, err := fleet.GetWrite()
			if err != nil {
				errs <- err
				return
			}
			id := int64(i%rows) + 1
			_, err = h.Exec("UPDATE ledger SET amount = amount + 1 WHERE id = ?", types.NewInt(id))
			h.Release()
			if err != nil {
				errs <- err
				return
			}
			writes.Add(1)
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				required := fleet.PrimaryLSN()
				h, _, err := fleet.GetRead()
				if err != nil {
					errs <- err
					return
				}
				var rerr error
				if i%2 == 0 {
					id := int64((w*31+i)%rows) + 1
					rerr = drainQuery(h, "SELECT owner, amount FROM ledger WHERE id = ?", types.NewInt(id))
				} else {
					lo := int64((w*97+i*13)%(rows-200)) + 1
					rerr = drainQuery(h, "SELECT amount FROM ledger WHERE id >= ? AND id <= ?",
						types.NewInt(lo), types.NewInt(lo+199))
				}
				served := h.Conn().LastLSN()
				h.Release()
				if rerr != nil {
					errs <- rerr
					return
				}
				if served+maxLag < required {
					stale.Add(1)
				}
				reads.Add(1)
			}
		}(w)
	}

	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	res.elapsed = time.Since(start)
	close(errs)
	for err := range errs {
		return res, err
	}
	st := fleet.Stats()
	res.reads = reads.Load()
	res.writes = writes.Load()
	res.replicaReads = st.ReplicaReads
	res.fallbacks = st.PrimaryFallbacks
	res.staleViolations = stale.Load()
	return res, nil
}

// drainQuery runs one fleet-routed query and consumes its rows.
func drainQuery(h *client.PooledConn, sql string, args ...types.Value) error {
	rows, err := h.Query(sql, args...)
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return err
}

// RunE17 — replica read routing: read throughput at 0, 1 and 2 replicas
// under a concurrent primary write stream, with the staleness bound audited
// on every read.
func RunE17(cfg Config) (*Table, error) {
	readers := 16
	rows := 2000
	dur := 2 * time.Second
	if cfg.Quick {
		readers = 8
		rows = 400
		dur = 250 * time.Millisecond
	}
	const maxLag = 1 << 20

	dir, err := os.MkdirTemp("", "wow-e17-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	table := &Table{
		ID:    "E17",
		Title: "WAL-streaming replication: fleet read throughput under a concurrent write stream",
		Columns: []string{
			"replicas", "readers", "reads", "reads/s", "writes/s", "replica share", "fallbacks", "stale>bound", "speedup",
		},
	}

	var baseline float64
	for _, nReplicas := range []int{0, 1, 2} {
		f, err := startE17Fleet(dir, nReplicas, rows)
		if err != nil {
			return nil, fmt.Errorf("E17 %d-replica setup: %w", nReplicas, err)
		}
		res, err := runE17Workload(f, maxLag, readers, rows, dur)
		f.close()
		if err != nil {
			return nil, fmt.Errorf("E17 %d replicas: %w", nReplicas, err)
		}
		rate := float64(res.reads) / res.elapsed.Seconds()
		writeRate := float64(res.writes) / res.elapsed.Seconds()
		share := 0.0
		if res.reads > 0 {
			share = float64(res.replicaReads) / float64(res.reads)
		}
		speedup := "1.00x"
		if nReplicas == 0 {
			baseline = rate
		} else if baseline > 0 {
			speedup = fmt.Sprintf("%.2fx", rate/baseline)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", nReplicas), fmt.Sprintf("%d", readers),
			fmt.Sprintf("%d", res.reads), fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", writeRate),
			fmt.Sprintf("%.0f%%", share*100), fmt.Sprintf("%d", res.fallbacks),
			fmt.Sprintf("%d", res.staleViolations), speedup,
		})
		if res.staleViolations != 0 {
			return nil, fmt.Errorf("E17 %d replicas: %d reads exceeded the %d-byte staleness bound", nReplicas, res.staleViolations, maxLag)
		}
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("readers alternate a point lookup and a 200-row range sum through client.Fleet routing; one writer autocommits single-row UPDATEs on the primary throughout; %d-row ledger", rows),
		fmt.Sprintf("replicas stream the primary's WAL live (Subscribe) and serve reads from their own MVCC snapshots; the fleet skips any replica lagging more than %d WAL bytes behind the primary frontier it observed", maxLag),
		"stale>bound audits every read: the serving server's piggybacked LSN must be within the bound of the primary frontier known at routing time — the count must be zero",
		fmt.Sprintf("speedup is bounded by the host's parallelism: this run saw %d CPU(s) (GOMAXPROCS %d); on a single core the extra engines add WAL-apply work without adding cycles, so the row shows routing correctness (replica share, zero stale, zero fallbacks) rather than scaling", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
	)
	return table, nil
}
