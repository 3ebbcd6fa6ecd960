package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
)

// repl.rw: one replicated transaction end to end — write on the primary,
// wait for the replica to apply it, read it back from the replica.

var replKinds = []string{"write-wait-read"}

const (
	ledgerSchema    = "CREATE TABLE ledger (id INT PRIMARY KEY, owner TEXT, amount INT)"
	insertLedgerSQL = "INSERT INTO ledger (id, owner, amount) VALUES (?, ?, ?)"
	updateLedgerSQL = "UPDATE ledger SET amount = ? WHERE id = ?"
	readLedgerSQL   = "SELECT amount FROM ledger WHERE id = ?"
	sumLedgerSQL    = "SELECT COUNT(*), SUM(amount) FROM ledger"
)

func ledgerTuple(id int) types.Tuple {
	return types.Tuple{types.NewInt(int64(id)), types.NewString("seed"), types.NewInt(100)}
}

type repl struct {
	env     env
	primary *host
	replica *host
	applier *server.Replica
	written int64 // the last amount written; amounts only grow
}

func newRepl(e env) *repl { return &repl{env: e, written: 100} }

func (r *repl) kinds() []string { return replKinds }

func (r *repl) dir() string { return filepath.Join(r.env.dir, "repl") }

// setup loads the ledger on a file-logged primary, then starts a fresh
// replica that streams the log from LSN 0 and serves reads, and waits until
// it has caught up.
func (r *repl) setup() error {
	if err := os.MkdirAll(r.dir(), 0o755); err != nil {
		return err
	}
	pdb, err := engine.Open(engine.Options{WALPath: filepath.Join(r.dir(), "primary.wal")})
	if err != nil {
		return err
	}
	s := pdb.Session()
	if _, err := s.Execute(ledgerSchema); err != nil {
		return err
	}
	if _, err := load(s, insertLedgerSQL, 1, r.env.sz.replRows, 500, ledgerTuple); err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	if r.primary, err = serve(pdb, nil); err != nil {
		return err
	}
	rdb, err := engine.Open(engine.Options{})
	if err != nil {
		return err
	}
	r.applier = server.NewReplica(rdb, r.primary.addr)
	r.replica, err = serve(rdb, func(s *server.Server) {
		s.SetReadOnly(true)
		s.SetLSNSource(r.applier.AppliedLSN)
	})
	if err != nil {
		return err
	}
	r.applier.Start()
	return r.caughtUp()
}

// caughtUp waits until the replica has applied everything durable on the
// primary.
func (r *repl) caughtUp() error {
	target := uint64(r.primary.db.Transactions().WAL().DurableLSN())
	err := waitFor(60*time.Second, "the replica to catch up", func() bool { return r.applier.AppliedLSN() >= target })
	if err != nil {
		return fmt.Errorf("%w (applied %d of %d: %s)", err, r.applier.AppliedLSN(), target, r.applier.Stats().LastError)
	}
	return nil
}

func (r *repl) counters(c *counters) {
	c.addEngine(r.primary.db)
	c.addServer(r.primary.srv)
	c.addServer(r.replica.srv)
	c.addReplica(r.applier)
}

// verify requires the replica, once caught up, to hold the primary's table.
func (r *repl) verify() error {
	if err := r.caughtUp(); err != nil {
		return err
	}
	var sums [2]string
	for i, db := range []*engine.Database{r.primary.db, r.replica.db} {
		s := db.Session()
		res, err := s.Query(sumLedgerSQL)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		sums[i] = fmt.Sprint(res.Rows)
	}
	if sums[0] != sums[1] {
		return fmt.Errorf("replica holds %s, primary %s", sums[1], sums[0])
	}
	return nil
}

func (r *repl) close() error {
	r.applier.Stop()
	err := r.replica.close()
	if perr := r.primary.close(); err == nil {
		err = perr
	}
	if rerr := os.RemoveAll(r.dir()); err == nil {
		err = rerr
	}
	return err
}

type replWorker struct {
	r     *repl
	rng   *rand.Rand
	tr    *tracer
	pconn *client.Conn
	rconn *client.Conn
	write *client.Stmt
	read  *client.Stmt
}

func (r *repl) worker(i int, tr *tracer) (worker, error) {
	w := &replWorker{r: r, tr: tr, rng: rand.New(rand.NewSource(r.env.seed*1000 + int64(i)))}
	var err error
	if w.pconn, err = client.Dial(r.primary.addr); err != nil {
		return nil, err
	}
	if w.rconn, err = client.Dial(r.replica.addr); err != nil {
		w.pconn.Close()
		return nil, err
	}
	if w.write, err = w.pconn.Prepare(updateLedgerSQL); err == nil {
		w.read, err = w.rconn.Prepare(readLedgerSQL)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *replWorker) counters(*counters) {}

func (w *replWorker) close() {
	w.pconn.Close()
	w.rconn.Close()
}

func (w *replWorker) op() (int, time.Duration, error) {
	id := types.NewInt(1 + w.rng.Int63n(int64(w.r.env.sz.replRows)))
	w.r.written++
	amount := w.r.written

	w.tr.nextOp()
	w.tr.begin("op:write-wait-read")
	start := time.Now()
	w.tr.begin("Stmt.Exec")
	res, err := w.write.Exec(types.NewInt(amount), id)
	w.tr.end()
	if err == nil && res.RowsAffected != 1 {
		err = fmt.Errorf("update of ledger row %d touched %d rows", id.Int(), res.RowsAffected)
	}
	var got int64 = -1
	var servedLSN uint64
	lsn := w.pconn.LastLSN()
	if err == nil {
		w.tr.begin("repl.wait")
		err = waitApplied(w.r.applier, lsn)
		w.tr.end()
	}
	if err == nil {
		w.tr.begin("Stmt.Query")
		got, err = readAmount(w.read, id)
		servedLSN = w.rconn.LastLSN()
		w.tr.end()
	}
	d := time.Since(start)
	w.tr.end()
	if err == nil {
		err = checkReplicaRead(got, amount, servedLSN, lsn)
	}
	return 0, d, err
}

// waitApplied blocks until the replica reports the write's LSN as applied.
func waitApplied(applier *server.Replica, lsn uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for applier.AppliedLSN() < lsn {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at LSN %d, waiting for %d: %s", applier.AppliedLSN(), lsn, applier.Stats().LastError)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

func readAmount(st *client.Stmt, id types.Value) (int64, error) {
	rows, err := st.Query(id)
	if err != nil {
		return 0, err
	}
	var got int64 = -1
	if rows.Next() {
		got = rows.Row()[0].Int()
	}
	err = rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return got, err
}

// checkReplicaRead is the staleness oracle: the replica must serve the value
// just written, from a position at or past the write's LSN.
func checkReplicaRead(got, want int64, servedLSN, writeLSN uint64) error {
	if got != want {
		return fmt.Errorf("replica read %d, the primary acknowledged %d", got, want)
	}
	if servedLSN < writeLSN {
		return fmt.Errorf("replica served LSN %d, before the write's %d", servedLSN, writeLSN)
	}
	return nil
}

// plan replays the write over the wire, in process on the primary and on a
// twin with its log in memory, and the read over the wire, in process on the
// replica and as bare operators. The wait between them is the applier's.
func (r *repl) plan() (*layerPlan, error) {
	twin, err := engine.Open(engine.Options{})
	if err != nil {
		return nil, err
	}
	s := twin.Session()
	_, err = s.Execute(ledgerSchema)
	if err == nil {
		_, err = load(s, insertLedgerSQL, 1, r.env.sz.replRows, 500, ledgerTuple)
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		twin.Close()
		return nil, err
	}
	id := func(i int) types.Value { return types.NewInt(1 + int64(mix(uint64(i), 13)%uint64(r.env.sz.replRows))) }
	return &layerPlan{
		items: []*ladderItem{
			{span: "Stmt.Exec", top: -1, remote: r.primary.addr, local: r.primary.db, twin: twin,
				sh: &shape{sql: updateLedgerSQL, write: true, args: func(i int) []types.Value {
					r.written++
					return []types.Value{types.NewInt(r.written), id(i)}
				}}},
			{span: "Stmt.Query", top: -1, remote: r.replica.addr, local: r.replica.db,
				sh: &shape{sql: readLedgerSQL, query: true, limit: 1, args: func(i int) []types.Value { return []types.Value{id(i)} }}},
		},
		direct: map[string]int{"repl.wait": lyReplApply},
		rest:   lyEngine, reconcileKind: 0,
		probeDB: r.primary.db, probeTable: "ledger", probeMaxID: r.env.sz.replRows,
		walRow: ledgerTuple(1),
		close:  func() { twin.Close() },
	}, nil
}
