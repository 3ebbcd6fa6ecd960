package server_test

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/types"
)

// startPrimary serves a file-backed database — the only kind that can stream
// its WAL — on a loopback port.
func startPrimary(t *testing.T) (*engine.Database, *server.Server, string) {
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
	return db, srv, ln.Addr().String()
}

// startReplica wires the full replica stack: a fresh in-memory engine, the
// applier streaming from primaryAddr, and a read-only server over it.
func startReplica(t *testing.T, primaryAddr string) (*server.Replica, *server.Server, string) {
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
	return rep, srv, ln.Addr().String()
}

// waitCaughtUp blocks until the replica's applied LSN reaches the primary's
// durable frontier as it stands now.
func waitCaughtUp(t *testing.T, primary *engine.Database, rep *server.Replica) {
	t.Helper()
	target := uint64(primary.Transactions().WAL().DurableLSN())
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedLSN() < target {
		if time.Now().After(deadline) {
			st := rep.Stats()
			t.Fatalf("replica stuck at LSN %d of %d (connects=%d streamErrors=%d lastErr=%q)",
				st.AppliedLSN, target, st.Connects, st.StreamErrors, st.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ledgerTotal reads the oracle invariant over one connection: row count and
// amount sum of the ledger table.
func ledgerTotal(c *client.Conn) (count, sum int64, err error) {
	st, err := c.Prepare("SELECT amount FROM ledger")
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	rows, err := st.Query()
	if err != nil {
		return 0, 0, err
	}
	defer rows.Close()
	for rows.Next() {
		count++
		sum += rows.Row()[0].Int()
	}
	return count, sum, rows.Err()
}

func TestReplicaStreamsAndServesReads(t *testing.T) {
	db, srv, primaryAddr := startPrimary(t)
	rep, _, replicaAddr := startReplica(t, primaryAddr)

	pc, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if handshakeRole(t, primaryAddr) == wire.RoleReplica {
		t.Error("primary handshake claims replica role")
	}
	mustExec := func(sql string) {
		t.Helper()
		if _, err := execSQL(pc, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)")
	mustExec("INSERT INTO ledger (id, owner, amount) VALUES (1, 'alice', 700)")
	mustExec("INSERT INTO ledger (id, owner, amount) VALUES (2, 'bob', 300)")
	mustExec("UPDATE ledger SET amount = 650 WHERE id = 1")
	mustExec("INSERT INTO ledger (id, owner, amount) VALUES (3, 'gone', 50)")
	mustExec("DELETE FROM ledger WHERE id = 3")
	mustExec("UPDATE ledger SET amount = 350 WHERE id = 2")
	if pc.LastLSN() == 0 {
		t.Error("primary connection never reported a durable LSN on its responses")
	}

	waitCaughtUp(t, db, rep)

	rc, err := client.Dial(replicaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if handshakeRole(t, replicaAddr) != wire.RoleReplica {
		t.Error("replica handshake did not claim replica role")
	}
	count, sum, err := ledgerTotal(rc)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 || sum != 1000 {
		t.Errorf("replica ledger: count=%d sum=%d, want 2 rows summing 1000", count, sum)
	}
	if got, want := rc.LastLSN(), rep.AppliedLSN(); got != want {
		t.Errorf("replica response LSN = %d, want applied %d", got, want)
	}

	// The replica acks its progress; the primary's stats should show it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ReplicaAckLSN == 0 {
		if time.Now().After(deadline) {
			t.Fatal("primary never saw a ReplicaStatus ack")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := srv.Stats(); st.WALSegmentsSent == 0 || st.WALBytesSent == 0 {
		t.Errorf("primary streaming counters empty: %+v", st)
	}
}

func TestReplicaRefusesWrites(t *testing.T) {
	db, _, primaryAddr := startPrimary(t)
	rep, rsrv, replicaAddr := startReplica(t, primaryAddr)

	pc, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := execSQL(pc, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(pc, "INSERT INTO t (id, v) VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, db, rep)

	rc, err := client.Dial(replicaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	refused := []struct {
		name string
		run  func() error
	}{
		{"BEGIN", func() error { _, err := execSQL(rc, "BEGIN"); return err }},
		{"INSERT", func() error {
			_, err := execSQL(rc, "INSERT INTO t (id, v) VALUES (2, 'y')")
			return err
		}},
		{"UPDATE", func() error { _, err := execSQL(rc, "UPDATE t SET v = 'z' WHERE id = 1"); return err }},
		{"DDL", func() error { _, err := execSQL(rc, "CREATE TABLE nope (id INT PRIMARY KEY)"); return err }},
		{"EXPLAIN", func() error { _, err := execSQL(rc, "EXPLAIN SELECT id FROM t"); return err }},
	}
	for _, tc := range refused {
		err := tc.run()
		if err == nil {
			t.Errorf("%s succeeded on a read-only replica", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "read-only replica") {
			t.Errorf("%s: error %q does not identify the read-only refusal", tc.name, err)
		}
	}
	// Each refusal is statement-level: the connection must still serve reads.
	rows, err := querySQL(t, rc, "SELECT v FROM t WHERE id = ?", types.NewInt(1))
	if err != nil {
		t.Fatalf("SELECT after refusals: %v", err)
	}
	var got string
	for rows.Next() {
		got = rows.Row()[0].Str()
	}
	rows.Close()
	if got != "x" {
		t.Errorf("SELECT v = %q, want \"x\"", got)
	}
	if n := rsrv.Stats().ReadOnlyDenied; n < uint64(len(refused)) {
		t.Errorf("ReadOnlyDenied = %d, want >= %d", n, len(refused))
	}
	_ = rep
}

func TestSubscribeRefusals(t *testing.T) {
	// A server without a file-backed WAL has nothing to stream.
	_, _, memAddr := startServer(t)
	mc, err := client.Dial(memAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ws, err := mc.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Next(); err == nil || !strings.Contains(err.Error(), "file-backed") {
		t.Errorf("subscribe to in-memory server: err = %v, want file-backed refusal", err)
	}

	// A start LSN past the durable frontier is a corrupt resume point.
	_, _, primaryAddr := startPrimary(t)
	pc, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ws2, err := pc.Subscribe(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws2.Next(); err == nil || !strings.Contains(err.Error(), "durable frontier") {
		t.Errorf("subscribe past frontier: err = %v, want frontier refusal", err)
	}

	// Replicas do not fan out: subscribing to one is refused.
	db, _, pAddr := startPrimary(t)
	rep, _, replicaAddr := startReplica(t, pAddr)
	waitCaughtUp(t, db, rep)
	rc, err := client.Dial(replicaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ws3, err := rc.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws3.Next(); err == nil || !strings.Contains(err.Error(), "primary") {
		t.Errorf("subscribe to replica: err = %v, want primary redirect", err)
	}
}

// severableProxy forwards TCP to a backend and can kill every active pipe on
// demand — the in-process stand-in for yanking a replica's network.
type severableProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	conns []net.Conn
}

func newSeverableProxy(t *testing.T, backend string) *severableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &severableProxy{ln: ln, backend: backend}
	go p.accept()
	t.Cleanup(func() {
		ln.Close()
		p.Sever()
	})
	return p
}

func (p *severableProxy) Addr() string { return p.ln.Addr().String() }

func (p *severableProxy) accept() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.backend)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		go func() { io.Copy(out, in); out.Close() }()
		go func() { io.Copy(in, out); in.Close() }()
	}
}

// Sever closes every active pipe; new connections still go through.
func (p *severableProxy) Sever() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func TestReplicaResubscribesAfterSeveredStream(t *testing.T) {
	db, _, primaryAddr := startPrimary(t)
	proxy := newSeverableProxy(t, primaryAddr)
	rep, _, replicaAddr := startReplica(t, proxy.Addr())

	pc, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := execSQL(pc, "CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)"); err != nil {
		t.Fatal(err)
	}
	ins, err := pc.Prepare("INSERT INTO ledger (id, owner, amount) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	insert := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if _, err := ins.Exec(types.NewInt(int64(i)), types.NewString("w"), types.NewInt(1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	insert(0, 50)
	waitCaughtUp(t, db, rep)

	// Yank the stream repeatedly, with an explicit transaction spanning one
	// severance so the resume point has to rewind to its BEGIN.
	proxy.Sever()
	insert(50, 100)
	if _, err := execSQL(pc, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(pc, "INSERT INTO ledger (id, owner, amount) VALUES (1000, 'txn', 1)"); err != nil {
		t.Fatal(err)
	}
	proxy.Sever()
	if _, err := execSQL(pc, "INSERT INTO ledger (id, owner, amount) VALUES (1001, 'txn', 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(pc, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	insert(100, 120)
	waitCaughtUp(t, db, rep)

	rc, err := client.Dial(replicaAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	count, sum, err := ledgerTotal(rc)
	if err != nil {
		t.Fatal(err)
	}
	if count != 122 || sum != 122 {
		t.Errorf("after severed streams: count=%d sum=%d, want 122/122 (no loss, no double-apply)", count, sum)
	}
	if st := rep.Stats(); st.Connects < 2 {
		t.Errorf("replica reconnects = %d, want >= 2 after severances (stats %+v)", st.Connects, st)
	}
}

// TestReplicaRestartTwiceIdempotent replays the same log into fresh engines
// three times over — the replica-process-restart path is "re-stream
// everything from LSN 0", and it must land on the identical row set every
// time, including when the log carries checkpoint records to skip.
func TestReplicaRestartTwiceIdempotent(t *testing.T) {
	db, _, primaryAddr := startPrimary(t)

	pc, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := execSQL(pc, "CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := execSQL(pc, fmt.Sprintf("INSERT INTO ledger (id, owner, amount) VALUES (%d, 'w', 1)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(pc, "UPDATE ledger SET amount = 2 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		rep, _, replicaAddr := startReplica(t, primaryAddr)
		waitCaughtUp(t, db, rep)
		rc, err := client.Dial(replicaAddr)
		if err != nil {
			t.Fatal(err)
		}
		count, sum, err := ledgerTotal(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if count != 40 || sum != 41 {
			t.Errorf("round %d: count=%d sum=%d, want 40/41", round, count, sum)
		}
		rep.Stop()
	}
}

// TestReplicationSnapshotAtomicity is the -race stress satellite: a primary
// taking concurrent transfer transactions, two replicas applying the stream,
// eight readers per replica watching the ledger oracle — two rows whose
// amounts always sum to 2000. A reader that ever sees a torn commit (three
// rows, a missing row, or a sum off by a transfer) fails the test.
func TestReplicationSnapshotAtomicity(t *testing.T) {
	db, _, primaryAddr := startPrimary(t)

	setup := db.Session()
	for _, sql := range []string{
		"CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)",
		"INSERT INTO ledger (id, owner, amount) VALUES (1, 'alice', 1000)",
		"INSERT INTO ledger (id, owner, amount) VALUES (2, 'bob', 1000)",
	} {
		if _, err := setup.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	setup.Close()

	reps := make([]*server.Replica, 2)
	addrs := make([]string, 2)
	for i := range reps {
		reps[i], _, addrs[i] = startReplica(t, primaryAddr)
	}
	waitCaughtUp(t, db, reps[0])
	waitCaughtUp(t, db, reps[1])

	stop := make(chan struct{})
	var failures atomic.Int64
	var reads atomic.Int64
	var wg sync.WaitGroup

	// Movers: explicit transactions transferring between the two rows.
	for m := 0; m < 4; m++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			s := db.Session()
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := rng.Intn(20) + 1
				_, err := s.ExecuteScript(fmt.Sprintf(
					"BEGIN; UPDATE ledger SET amount = amount - %d WHERE id = 1; UPDATE ledger SET amount = amount + %d WHERE id = 2; COMMIT;", d, d))
				if err != nil {
					// Write conflicts under contention are expected; the
					// script path rolls back and we retry.
					continue
				}
			}
		}(int64(m))
	}

	// Readers: 8 per replica, over the wire, each checking the invariant.
	for _, addr := range addrs {
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				c, err := client.Dial(addr)
				if err != nil {
					failures.Add(1)
					t.Errorf("reader dial: %v", err)
					return
				}
				defer c.Close()
				for {
					select {
					case <-stop:
						return
					default:
					}
					count, sum, err := ledgerTotal(c)
					if err != nil {
						failures.Add(1)
						t.Errorf("reader query: %v", err)
						return
					}
					if count != 2 || sum != 2000 {
						failures.Add(1)
						t.Errorf("torn read on replica: count=%d sum=%d, want 2/2000", count, sum)
						return
					}
					reads.Add(1)
				}
			}(addr)
		}
	}

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d reader(s) saw a torn or failed read", failures.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers completed zero reads")
	}
	waitCaughtUp(t, db, reps[0])
	waitCaughtUp(t, db, reps[1])
	for i, addr := range addrs {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		count, sum, err := ledgerTotal(c)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if count != 2 || sum != 2000 {
			t.Errorf("replica %d final state: count=%d sum=%d, want 2/2000", i, count, sum)
		}
	}
}

// TestReplicaSurfacesDivergence: when a replicated UPDATE's before-image no
// longer matches the replica's row (same key, different tuple), the applier
// must stop rather than guess. The operator sees the cause in
// Stats().LastError, the applied frontier never passes the commit that could
// not be applied — so a reader waiting for that LSN never reads here early —
// and every resubscribe fails the same way instead of skipping ahead.
func TestReplicaSurfacesDivergence(t *testing.T) {
	pdb, _, primaryAddr := startPrimary(t)
	pc, err := client.Dial(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for _, sql := range []string{
		"CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)",
		"INSERT INTO ledger (id, owner, amount) VALUES (1, 'alice', 700)",
	} {
		if _, err := execSQL(pc, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	rdb, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := server.NewReplica(rdb, primaryAddr)
	rep.Start()
	t.Cleanup(func() {
		rep.Stop()
		rdb.Close()
	})
	waitCaughtUp(t, pdb, rep)

	// Diverge the replica behind the applier's back: rewrite the row in the
	// catalog, outside any transaction. (A local UPDATE would also take the
	// transaction id the primary's next transaction names, a divergence the
	// applier reports at that BEGIN: TestFollowerRefusesAnIDUsedLocally.)
	ledger, err := rdb.Catalog().GetTable("ledger")
	if err != nil {
		t.Fatal(err)
	}
	pk := ledger.PrimaryIndex()
	alice := types.Tuple{types.NewInt(1), types.NewString("alice"), types.NewInt(700)}
	rids := pk.Tree.Search(types.EncodeKey(nil, alice[0]))
	if len(rids) != 1 {
		t.Fatalf("the replica holds %d versions of row 1, want 1", len(rids))
	}
	if err := ledger.RemoveVersion(rids[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ledger.InsertVersion(types.Tuple{types.NewInt(1), types.NewString("alice"), types.NewInt(1)}, 0, nil); err != nil {
		t.Fatal(err)
	}
	local := rdb.Session()
	defer local.Close()

	if _, err := execSQL(pc, "UPDATE ledger SET amount = 650 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	commitEnd := pc.LastLSN()

	// Two stream errors: the first attempt, and the resubscribe after it.
	deadline := time.Now().Add(10 * time.Second)
	for rep.Stats().StreamErrors < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the applier never reported the divergence: %+v", rep.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := rep.Stats()
	for _, want := range []string{"no row matches the before-image", "UPDATE", "ledger"} {
		if !strings.Contains(st.LastError, want) {
			t.Errorf("LastError %q does not mention %q", st.LastError, want)
		}
	}
	if st.AppliedLSN >= commitEnd {
		t.Errorf("applied LSN %d reached the failed commit's end %d", st.AppliedLSN, commitEnd)
	}
	res, err := local.Query("SELECT amount FROM ledger WHERE id = 1")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("the diverged row reads %v, %v; the failed transaction must leave it alone", res, err)
	}
	if located := rdb.Stats().RowsLocatedBySeek; located < 2 {
		t.Errorf("RowsLocatedBySeek = %d, want one seek per attempt", located)
	}
}

// liveXmins maps each live row's id to the transaction id that created its
// version.
func liveXmins(t *testing.T, db *engine.Database) map[int64]uint64 {
	t.Helper()
	table, err := db.Catalog().GetTable("ledger")
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]uint64{}
	for it := table.VersionIterator(); ; {
		_, meta, payload, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		row, err := types.DecodeTuple(payload)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Xmax == 0 {
			out[row[0].Int()] = meta.Xmin
		}
	}
}

// TestReplicaAppliesCommitsOutOfIDOrder: primary transactions commit out of
// id order. T1 begins and updates row 1; T2 begins, updates row 2 and
// commits; then T1 commits. A replica cursor opened between the two commits
// sees T2 and not T1, and keeps that view after T1 applies; a fresh reader
// sees both. The replica's versions carry the primary's transaction ids.
func TestReplicaAppliesCommitsOutOfIDOrder(t *testing.T) {
	pdb, _, primaryAddr := startPrimary(t)
	setup := pdb.Session()
	defer setup.Close()
	for _, sql := range []string{
		"CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)",
		"INSERT INTO ledger (id, owner, amount) VALUES (1, 'alice', 0)",
		"INSERT INTO ledger (id, owner, amount) VALUES (2, 'bob', 0)",
	} {
		if _, err := setup.Execute(sql); err != nil {
			t.Fatal(err)
		}
	}
	rdb, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := server.NewReplica(rdb, primaryAddr)
	rep.Start()
	t.Cleanup(func() {
		rep.Stop()
		rdb.Close()
	})

	t1, t2 := pdb.Session(), pdb.Session()
	defer t1.Close()
	defer t2.Close()
	for _, step := range []struct {
		s   *engine.Session
		sql string
	}{
		{t1, "BEGIN"},
		{t1, "UPDATE ledger SET amount = 1 WHERE id = 1"},
		{t2, "BEGIN"},
		{t2, "UPDATE ledger SET amount = 2 WHERE id = 2"},
		{t2, "COMMIT"},
	} {
		if _, err := step.s.Execute(step.sql); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
	}
	waitCaughtUp(t, pdb, rep)

	reader := rdb.Session()
	defer reader.Close()
	amounts := func(rows *engine.Rows, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			out = append(out, fmt.Sprintf("%d:%d", rows.Row()[0].Int(), rows.Row()[1].Int()))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(out, " ")
	}
	const query = "SELECT id, amount FROM ledger ORDER BY id"
	between, err := reader.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	defer between.Close()
	cursor, cursorErr := between.Query()
	onlyT2 := "1:0 2:2"
	fresh := func() string {
		s := rdb.Session()
		defer s.Close()
		st, err := s.Prepare(query)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return amounts(st.Query())
	}
	if got := fresh(); got != onlyT2 {
		t.Errorf("between the commits the replica reads %q, want %q", got, onlyT2)
	}

	if _, err := t1.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pdb, rep)
	if got := amounts(cursor, cursorErr); got != onlyT2 {
		t.Errorf("the cursor opened between the commits reads %q after T1 applied, want %q", got, onlyT2)
	}
	if got, want := fresh(), "1:1 2:2"; got != want {
		t.Errorf("a fresh reader reads %q, want %q", got, want)
	}

	primary, replica := liveXmins(t, pdb), liveXmins(t, rdb)
	if fmt.Sprint(replica) != fmt.Sprint(primary) {
		t.Errorf("replica versions carry xmins %v, primary's %v", replica, primary)
	}
	if primary[1] >= primary[2] {
		t.Errorf("T1's id %d is not below T2's %d: the commits were not out of id order", primary[1], primary[2])
	}
}
