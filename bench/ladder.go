package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
)

// The layer ladder. A call cannot be opened up from outside, so the layers
// below the workload's own entry point are priced by replaying the
// statements it issued at successively deeper public entry points:
//
//	in situ (traced run) -> client.Stmt over loopback -> engine.Stmt in
//	process -> engine.Stmt on a twin with the log in memory -> the prebuilt
//	operator tree
//
// and a rung's self time is its median minus the rung below.

// The layer groups the time is attributed to.
const (
	lyCore = iota
	lySqlair
	lyWire
	lyEngine
	lyExecStorage
	lyTxnWAL
	lyReplApply
	numLayers
)

var layerNames = [numLayers]string{"core", "sqlair", "wire", "engine", "exec_storage", "txn_wal", "repl_apply"}

// A rung's replay stops after its time budget (sizes.rungBudget) or
// rungMaxRuns executions, whichever comes first, but makes at least
// rungMinRuns.
const (
	rungMaxRuns = 300
	rungMinRuns = 3
)

// ladderItem is one statement shape of a workload and where to replay it.
type ladderItem struct {
	sh *shape
	// span names the traced span that covers the statement in situ.
	span string
	// top is the layer the in-situ entry point adds above the first replay
	// rung (sqlair over client.Stmt), or -1 when the in-situ call already is
	// that rung.
	top int
	// remote is the server to replay against over the wire, "" when the
	// workload calls the engine in process.
	remote string
	local  *engine.Database
	// twin holds the same rows with its log in memory; nil when local does.
	twin *engine.Database
}

// budget is one item's ladder: every rung's median and the self times.
type budget struct {
	item     *ladderItem
	count    int
	inSitu   int64 // ns, median of the traced span
	rungs    []rung
	self     [numLayers]int64
	unattrib int64
	rows     []types.Tuple // rows one execution returned, for the codec rung
}

type rung struct {
	name  string
	ns    int64 // median
	self  int64 // ns minus the rung below; the last rung keeps its own
	layer int   // the layer the self time belongs to
}

// rungExec names the deepest rung; engine.exec_us reports its median.
const rungExec = "exec operators (prebuilt plan)"

// values returns the i'th replay's bind values in ordinal order.
func (sh *shape) values(i int) []types.Value {
	if sh.args != nil {
		return sh.args(i)
	}
	if len(sh.samples) == 0 {
		return nil
	}
	s := sh.samples[i%len(sh.samples)]
	out := make([]types.Value, len(sh.names))
	for k, name := range sh.names {
		out[k] = s.args[name]
	}
	return out
}

// replaySamples is how many captured executions a rung replays in turn.
const replaySamples = 9

// finish readies a captured shape for replay. It derives the parameter order
// from the samples, and keeps only the executions nearest the in-situ median
// duration: what a statement costs can depend on its binds (a keyset page
// costs more the further the scan runs), so the ladder decomposes the median
// execution, not whichever came first.
func (sh *shape) finish() {
	if sh.args != nil || len(sh.samples) == 0 {
		return
	}
	if sh.names == nil {
		for name := range sh.samples[0].args {
			sh.names = append(sh.names, name)
		}
		slices.Sort(sh.names)
	}
	ns := make([]int64, len(sh.samples))
	for i, s := range sh.samples {
		ns[i] = s.ns
	}
	mid := percentile(ns, 0.5)
	slices.SortStableFunc(sh.samples, func(a, b shapeSample) int {
		return cmp.Compare(max(a.ns-mid, mid-a.ns), max(b.ns-mid, mid-b.ns))
	})
	sh.samples = sh.samples[:min(len(sh.samples), replaySamples)]
}

// timeRung runs fn repeatedly within the budget and returns the median.
func timeRung(budget time.Duration, fn func(i int) error) (int64, error) {
	var ns []int64
	start := time.Now()
	for i := 0; i < rungMaxRuns && (i < rungMinRuns || time.Since(start) < budget); i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	return percentile(ns, 0.5), nil
}

// rowSource is the cursor shape engine.Rows and client.Rows share.
type rowSource interface {
	Next() bool
	Row() types.Tuple
	Err() error
	Close() error
}

// drain pulls at most limit rows (0 = all) and closes the cursor.
func drain(rows rowSource, limit int, keep *[]types.Tuple) error {
	for n := 0; (limit <= 0 || n < limit) && rows.Next(); n++ {
		if keep != nil {
			*keep = append(*keep, rows.Row())
		}
	}
	err := rows.Err()
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	return err
}

// statement is what client.Stmt and engine.Stmt share, as far as a replay
// needs it.
type statement[R rowSource, X any] interface {
	BindNamed(name string, v types.Value) error
	Query(args ...types.Value) (R, error)
	Exec(args ...types.Value) (X, error)
}

// replay returns a function that executes the shape once on a prepared
// statement, binding the way the workload binds. keep, when non-nil,
// collects the rows of the first execution.
func replay[R rowSource, X any](st statement[R, X], sh *shape, keep *[]types.Tuple) func(i int) error {
	return func(i int) error {
		vals := sh.values(i)
		if sh.named {
			for k, name := range sh.names {
				if err := st.BindNamed(name, vals[k]); err != nil {
					return err
				}
			}
			vals = nil
		}
		if !sh.query {
			_, err := st.Exec(vals...)
			return err
		}
		rows, err := st.Query(vals...)
		if err != nil {
			return err
		}
		if i > 0 {
			return drain(rows, sh.limit, nil)
		}
		return drain(rows, sh.limit, keep)
	}
}

// replayRemote prepares the shape over the wire, with the fetch size the
// workload set.
func replayRemote(conn *client.Conn, sh *shape) (func(i int) error, error) {
	st, err := conn.Prepare(sh.sql)
	if err != nil {
		return nil, err
	}
	st.SetFetchSize(sh.fetch)
	return replay(st, sh, nil), nil
}

// replayLocal prepares the shape on an in-process session.
func replayLocal(s *engine.Session, sh *shape, keep *[]types.Tuple) (func(i int) error, error) {
	st, err := s.Prepare(sh.sql)
	if err != nil {
		return nil, err
	}
	return replay(st, sh, keep), nil
}

// replayExec runs a SELECT's prebuilt operator tree under a fresh snapshot:
// the statement below the session, prepare and cursor bookkeeping.
func replayExec(db *engine.Database, sh *shape) (func(i int) error, error) {
	stmt, err := sql.ParseSelect(sh.sql)
	if err != nil {
		return nil, err
	}
	node, err := plan.NewBuilder(db.Catalog()).Build(stmt)
	if err != nil {
		return nil, err
	}
	names := sql.StatementParams(stmt)
	frame := &expr.Params{Values: make([]types.Value, len(names))}
	rt := exec.NewRuntime()
	op, err := exec.BuildWithRuntime(node, frame, rt)
	if err != nil {
		return nil, err
	}
	return func(i int) error {
		vals := sh.values(i)
		for k, name := range names {
			if !sh.named {
				frame.Values[k] = vals[k]
			} else if at := slices.Index(sh.names, name); at >= 0 {
				frame.Values[k] = vals[at]
			}
		}
		snap := db.Transactions().AcquireSnapshot()
		defer snap.Release()
		rt.SetSnapshot(snap)
		if err := op.Open(); err != nil {
			return err
		}
		var err error
		for n, ok := 0, true; ok && err == nil && (sh.limit <= 0 || n < sh.limit); n++ {
			_, ok, err = op.Next()
		}
		if cerr := op.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// climb replays one item down the ladder and derives the self times.
func climb(it *ladderItem, stats map[string]spanStat, perRung time.Duration) (*budget, error) {
	it.sh.finish()
	b := &budget{item: it, inSitu: stats[it.span].medianNs, count: stats[it.span].count}
	add := func(name string, layer int, fn func(i int) error, err error) error {
		if err != nil {
			return fmt.Errorf("%s rung of %q: %w", name, it.sh.sql, err)
		}
		ns, err := timeRung(perRung, fn)
		if err != nil {
			return fmt.Errorf("%s rung of %q: %w", name, it.sh.sql, err)
		}
		b.rungs = append(b.rungs, rung{name: name, ns: ns, layer: layer})
		return nil
	}
	hasExec := it.sh.query && !it.sh.write
	// below names the layer a rung's self time belongs to, given what the
	// next rung down strips away.
	below := lyExecStorage
	if hasExec {
		below = lyEngine
	}
	if it.remote != "" {
		conn, err := client.Dial(it.remote)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		fn, err := replayRemote(conn, it.sh)
		if err := add("client.Stmt (loopback)", lyWire, fn, err); err != nil {
			return nil, err
		}
	}
	s := it.local.Session()
	defer s.Close()
	localLayer := below
	if it.twin != nil {
		localLayer = lyTxnWAL
	}
	fn, err := replayLocal(s, it.sh, &b.rows)
	if err := add("engine.Stmt (in process)", localLayer, fn, err); err != nil {
		return nil, err
	}
	execDB := it.local
	if it.twin != nil {
		ts := it.twin.Session()
		defer ts.Close()
		fn, err := replayLocal(ts, it.sh, nil)
		if err := add("engine.Stmt (log in memory)", below, fn, err); err != nil {
			return nil, err
		}
		execDB = it.twin
	}
	if hasExec {
		fn, err := replayExec(execDB, it.sh)
		if err := add(rungExec, lyExecStorage, fn, err); err != nil {
			return nil, err
		}
	}
	// A rung faster than the one below it has nothing to attribute; the
	// shortfall shows up in unattributed.
	sum := int64(0)
	for i := range b.rungs {
		r := &b.rungs[i]
		r.self = r.ns
		if i+1 < len(b.rungs) {
			r.self -= b.rungs[i+1].ns
		}
		b.self[r.layer] += max(r.self, 0)
		sum += max(r.self, 0)
	}
	if it.top >= 0 {
		top := max(b.inSitu-b.rungs[0].ns, 0)
		b.self[it.top] += top
		sum += top
	}
	b.unattrib = b.inSitu - sum
	return b, nil
}

func (b *budget) print(w io.Writer) {
	text := b.item.sh.sql
	if len(text) > 96 {
		text = text[:93] + "..."
	}
	fmt.Fprintf(w, "  %s\n", text)
	fmt.Fprintf(w, "    %-34s %12s %12s  %s\n", "rung", "median_us", "self_us", "layer")
	top := "-"
	if b.item.top >= 0 {
		top = layerNames[b.item.top]
	}
	fmt.Fprintf(w, "    %-34s %12.1f %12s  %s\n", fmt.Sprintf("in situ: %s (n=%d)", b.item.span, b.count), us(b.inSitu), "", top)
	for _, r := range b.rungs {
		fmt.Fprintf(w, "    %-34s %12.1f %12.1f  %s\n", r.name, us(r.ns), us(r.self), layerNames[r.layer])
	}
	fmt.Fprintf(w, "    %-34s %12s %12.1f\n", "unattributed_us", "", us(b.unattrib))
}

// --- single-layer probes -------------------------------------------------------

// prepareCosts times the statement front end for one text: sql.Parse,
// plan.Builder, and Session.Prepare with the plan cached and not. A miss is
// forced by respelling the leading keyword's case: the plan cache keys on the
// text, the parser does not care.
func prepareCosts(db *engine.Database, text string, perRung time.Duration) (parseNs, planNs, hitNs, missNs int64, err error) {
	parseNs, err = timeRung(perRung, func(int) error { _, err := sql.Parse(text); return err })
	if err != nil {
		return
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return
	}
	planNs, err = timeRung(perRung, func(int) error {
		_, err := plan.NewBuilder(db.Catalog()).BuildStatement(stmt)
		return err
	})
	if err != nil {
		return
	}
	s := db.Session()
	defer s.Close()
	prepare := func(text string) error {
		st, err := s.Prepare(text)
		if err == nil {
			err = st.Close()
		}
		return err
	}
	if hitNs, err = timeRung(perRung, func(int) error { return prepare(text) }); err != nil {
		return
	}
	word := text[:strings.IndexByte(text+" ", ' ')]
	var ns []int64
	for v := 1; v < 1<<min(len(word), 6); v++ {
		respelt := []byte(strings.ToLower(word))
		for bit := range respelt {
			if v>>bit&1 == 1 {
				respelt[bit] -= 'a' - 'A'
			}
		}
		t0 := time.Now()
		if err = prepare(string(respelt) + text[len(word):]); err != nil {
			return
		}
		ns = append(ns, int64(time.Since(t0)))
	}
	return parseNs, planNs, hitNs, percentile(ns, 0.5), nil
}

// storageCosts times the storage primitives under a primary-key lookup on
// table: the index search, the heap fetch with decode, and the visibility
// check.
func storageCosts(db *engine.Database, table string, maxID int) (searchNs, heapNs float64, err error) {
	t, err := db.Catalog().GetTable(table)
	if err != nil {
		return 0, 0, err
	}
	tree := t.PrimaryIndex().Tree
	const n = 2000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = types.EncodeKey(nil, types.NewInt(1+int64(mix(uint64(i), 9)%uint64(maxID))))
	}
	snap := db.Transactions().AcquireSnapshot()
	defer snap.Release()
	start := time.Now()
	found := 0
	for _, k := range keys {
		found += len(tree.Search(k))
	}
	searchNs = float64(time.Since(start)) / n
	if found == 0 {
		return 0, 0, fmt.Errorf("storage probe: no key of %s found", table)
	}
	visible := 0
	var heap time.Duration
	for _, k := range keys {
		for _, rid := range tree.Search(k) {
			t0 := time.Now()
			meta, _, err := t.GetVersion(rid)
			heap += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if snap.Visible(meta) {
				visible++
			}
		}
	}
	if visible == 0 {
		return 0, 0, fmt.Errorf("storage probe: no visible version in %s", table)
	}
	return searchNs, float64(heap) / float64(found), nil
}

// walCosts times the log on a scratch file in dir: one buffered append of a
// row record, and one durable append (append plus the fsync it waits for).
func walCosts(dir string, row types.Tuple, perRung time.Duration) (appendNs, fsyncNs int64, err error) {
	path := filepath.Join(dir, "probe.wal")
	defer os.Remove(path)
	w, err := txn.OpenWALFile(path)
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()
	rec := txn.Record{Kind: txn.RecordInsert, Txn: 1, Table: "orders", New: row}
	if appendNs, err = timeRung(perRung, func(int) error { return w.Append(rec) }); err != nil {
		return 0, 0, err
	}
	durableNs, err := timeRung(perRung, func(int) error {
		if err := w.Append(rec); err != nil {
			return err
		}
		return w.AppendDurable(txn.Record{Kind: txn.RecordCommit, Txn: 1})
	})
	return appendNs, max(durableNs-2*appendNs, 0), err
}

// codecCost times the wire codec on the rows a statement returned: encode
// them into a Rows frame, frame it, unframe it, decode them.
func codecCost(rows []types.Tuple, perRung time.Duration) (nsPerRow float64, err error) {
	if len(rows) == 0 {
		return 0, nil
	}
	var stream bytes.Buffer
	ns, err := timeRung(perRung, func(int) error {
		var b wire.Buffer
		b.Bool(true)
		b.Uint32(uint32(len(rows)))
		for _, row := range rows {
			b.Tuple(row)
		}
		stream.Reset()
		if err := wire.WriteFrame(&stream, wire.MsgRows, b.B); err != nil {
			return err
		}
		_, payload, err := wire.ReadFrame(&stream)
		if err != nil {
			return err
		}
		cur := wire.NewCursor(payload)
		cur.Bool()
		for n := cur.Uint32(); n > 0; n-- {
			cur.Tuple()
		}
		return cur.Err()
	})
	return float64(ns) / float64(len(rows)), err
}
