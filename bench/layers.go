package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// layerPlan is a workload's account of where its traced time belongs.
type layerPlan struct {
	// items are the statement shapes to replay down the ladder. The first is
	// the workload's main statement: the single-statement metrics
	// (wire.self_us, engine.exec_us, sql.parse_us, ...) describe it.
	items []*ladderItem
	// direct maps a span name to the layer that owns all of its time.
	direct map[string]int
	// rest is the layer that owns operation time no item or direct span
	// covers (the forms runtime around its statements, say).
	rest int
	// probeDB/probeTable/probeMaxID say where to time the storage
	// primitives; probeDB is nil when the workload keeps no engine open.
	probeDB    *engine.Database
	probeTable string
	probeMaxID int
	// walRow is a row as the workload logs it to a file; nil when it does not.
	walRow types.Tuple
	// reconcileKind is the operation kind whose untraced median the main
	// item's parts (plus the rest layer's time per operation) must add up
	// to within reconcileTolerance.
	reconcileKind int
	// close releases what the plan opened (twin databases).
	close func()
}

// reconcileTolerance is how far the sum of the parts may sit from the whole
// before the budget table flags the gap as a finding.
const reconcileTolerance = 0.15

// outcome is what one run reports.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median.
const setupReps = 3

// setUp builds the workload reps times, keeping the last, and returns the
// median set-up time in seconds.
func setUp(def *workloadDef, e env, reps int) (workload, float64, error) {
	var w workload
	var secs []float64
	for i := 0; i < reps; i++ {
		w = def.make(e)
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < reps-1 {
			if err := w.close(); err != nil {
				return nil, 0, fmt.Errorf("closing after set-up: %w", err)
			}
		}
	}
	return w, median(secs), nil
}

// warmFor is the warm-up before a measured phase of the given length.
func warmFor(measured time.Duration) time.Duration {
	return min(measured/5, 1500*time.Millisecond)
}

// runEndToEnd measures the end-to-end metrics of one workload with tracing
// off: set-up (timed), warm-up, the measured closed loop, the end oracle.
func runEndToEnd(def *workloadDef, e env, measured time.Duration, out io.Writer) (*outcome, error) {
	w, setupS, err := setUp(def, e, setupReps)
	if err != nil {
		return nil, err
	}
	ph, err := runLoad(w, def.clients, warmFor(measured), measured, nil)
	if err != nil {
		w.close()
		return nil, err
	}
	verr := w.verify()
	if cerr := w.close(); verr == nil {
		verr = cerr
	}
	if ph.err != nil {
		fmt.Fprintf(out, "%s: first failed operation: %v\n", def.name, ph.err)
	}
	if verr != nil {
		fmt.Fprintf(out, "%s: end oracle: %v\n", def.name, verr)
	}
	return &outcome{
		correct:   ph.failed() == 0 && verr == nil,
		attempted: ph.attempted(),
		failed:    ph.failed(),
		metrics: map[string]float64{
			"ops_per_s": ph.opsPerSecond(),
			"p50_us":    us(percentile(ph.latencies(-1), 0.5)),
			"setup_s":   setupS,
		},
	}, nil
}

// runLayers is the traced run. It spends the measured time on four things:
// the workload at its normal client count with tracing off, for the counter
// ratios and the per-kind latencies; one client untraced and then traced, for
// the spans and the tracing overhead; and the ladder.
func runLayers(def *workloadDef, e env, measured time.Duration, out io.Writer, spansPath string) (*outcome, error) {
	w, _, err := setUp(def, e, 1)
	if err != nil {
		return nil, err
	}
	defer w.close()
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	res := &outcome{metrics: m}
	note := func(ph *phase) {
		res.attempted += ph.attempted()
		res.failed += ph.failed()
		if ph.err != nil {
			fmt.Fprintf(out, "%s: first failed operation: %v\n", def.name, ph.err)
		}
	}

	// 1. Normal load, tracing off: counts at the layer boundaries.
	counted := measured * 35 / 100
	ph, err := runLoad(w, def.clients, warmFor(counted), counted, nil)
	if err != nil {
		return nil, err
	}
	note(ph)
	counterMetrics(m, w, ph)

	// 2. One client, untraced then traced.
	single := measured * 15 / 100
	plain, err := runLoad(w, 1, warmFor(single), single, nil)
	if err != nil {
		return nil, err
	}
	note(plain)
	// No warm-up: the untraced phase just before left every cache warm, and
	// the ladder wants binds from the measured operations only.
	tr := newTracer()
	traced, err := runLoad(w, 1, 0, single, []*tracer{tr})
	if err != nil {
		return nil, err
	}
	note(traced)
	m["trace_overhead_ratio"] = ratio(traced.opsPerSecond(), plain.opsPerSecond())
	if spansPath != "" {
		if err := writeSpans(spansPath, tr.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "%s: %d spans written to %s\n", def.name, len(tr.spans), spansPath)
	}

	verr := w.verify()
	if verr != nil {
		fmt.Fprintf(out, "%s: end oracle: %v\n", def.name, verr)
	}
	res.correct = res.failed == 0 && verr == nil

	// 3. The ladder, after the oracle: its replays write to the system.
	stats := summarise(tr.spans)
	printSpans(out, def.name, stats)
	if err := ladderMetrics(m, w, def, e, stats, plain, out); err != nil {
		return nil, err
	}
	workloadMetrics(m, w, stats)
	return res, nil
}

// counterMetrics derives the ratio metrics from the counter increases of the
// normal-load phase, and the per-kind latencies.
func counterMetrics(m map[string]float64, w workload, ph *phase) {
	c := ph.counts
	ops := float64(ph.attempted() - ph.failed())
	m["p99_us"] = us(p99(ph.latencies(-1)))
	m["storage.page_fetches_per_op"] = ratio(c[cPoolHits]+c[cPoolMisses], ops)
	m["storage.pool_hit_ratio"] = ratio(c[cPoolHits], c[cPoolHits]+c[cPoolMisses])
	m["storage.evictions_per_op"] = ratio(c[cPoolEvictions], ops)
	// With no lookups at all nothing missed: every statement was already
	// prepared on its connection.
	m["engine.plan_cache_hit_ratio"] = 1
	if lookups := c[cPlanHits] + c[cPlanMisses]; lookups > 0 {
		m["engine.plan_cache_hit_ratio"] = c[cPlanHits] / lookups
	}
	m["txn.fsyncs_per_commit"] = ratio(c[cFsyncs], c[cCommits])
	m["txn.wal_bytes_per_user_byte"] = ratio(c[cWALBytes], c[cUserBytes])
	m["txn.checkpoints"] = c[cCheckpoints]
	m["txn.snapshots_per_op"] = ratio(c[cSnapshots], ops)
	m["txn.versions_gced"] = c[cVersionsGCed]
	m["txn.conflicts"] = c[cConflicts]
	m["wire.msgs_per_op"] = ratio(c[cMessages], ops)
	m["client.stmt_cache_hit_ratio"] = ratio(c[cClientStmtHits], c[cCheckouts])
	m["client.dials"] = c[cDials]
	m["sqlair.stmt_cache_hit_ratio"] = ratio(c[cSqlairStmtHits], c[cSqlairStmtHits]+c[cSqlairStmtMisses])
	m["core.rows_fetched_per_key"] = ratio(c[cWindowRowsFetched], c[cKeystrokes])
	m["core.queries_per_key"] = ratio(c[cWindowQueries], c[cKeystrokes])
	m["repl.wal_bytes_per_txn"] = ratio(c[cWALBytesStreamed], c[cReplTxnsApplied])
	m["repl.txns_skipped"] = c[cReplTxnsSkipped]
	for kind, name := range w.kinds() {
		key := "core." + name + "_us"
		if _, reported := m[key]; reported {
			m[key] = us(percentile(ph.latencies(kind), 0.5))
		}
	}
}

// workloadMetrics fills the metrics that only one workload can supply.
func workloadMetrics(m map[string]float64, w workload, stats []spanStat) {
	byName := statsByName(stats)
	switch w := w.(type) {
	case *durable:
		start := time.Now()
		if st, err := w.db.Checkpoint(); err == nil {
			m["txn.checkpoint_ms"] = float64(time.Since(start).Microseconds()) / 1e3
			m["txn.checkpoint_bytes"] = float64(st.Bytes)
		}
	case *restart:
		m["txn.recover_ms"] = float64(w.recovery.Duration.Microseconds()) / 1e3
		m["txn.image_rows"] = float64(w.recovery.ImageRows)
		m["txn.tail_records"] = float64(w.recovery.TailRecords)
		m["stored_bytes_per_user_byte"] = ratio(float64(w.storedBytes), float64(w.userBytes))
	case *repl:
		m["repl.write_us"] = us(byName["Stmt.Exec"].medianNs)
		m["repl.wait_us"] = us(byName["repl.wait"].medianNs)
		m["repl.read_us"] = us(byName["Stmt.Query"].medianNs)
	}
}

func statsByName(stats []spanStat) map[string]spanStat {
	out := make(map[string]spanStat, len(stats))
	for _, s := range stats {
		out[s.name] = s
	}
	return out
}

func printSpans(out io.Writer, name string, stats []spanStat) {
	fmt.Fprintf(out, "\nspans %s (one client, traced)\n", name)
	fmt.Fprintf(out, "  %-60s %8s %12s %12s %12s\n", "span", "count", "median_us", "total_ms", "self_ms")
	for _, s := range stats {
		label := s.name
		if len(label) > 60 {
			label = label[:57] + "..."
		}
		fmt.Fprintf(out, "  %-60s %8d %12.1f %12.1f %12.1f\n", label, s.count, us(s.medianNs), float64(s.totalNs)/1e6, float64(s.selfNs)/1e6)
	}
}

// ladderMetrics climbs the ladder for every item of the workload's plan,
// prints the budget tables, attributes the traced time to layers and checks
// that the main item's parts add up to the untraced whole.
func ladderMetrics(m map[string]float64, w workload, def *workloadDef, e env, stats []spanStat, plain *phase, out io.Writer) error {
	plan, err := w.plan()
	if err != nil {
		return fmt.Errorf("ladder plan: %w", err)
	}
	if plan.close != nil {
		defer plan.close()
	}
	byName := statsByName(stats)
	var opNs int64
	for _, s := range stats {
		if strings.HasPrefix(s.name, "op:") {
			opNs += s.totalNs
		}
	}
	if opNs == 0 {
		return fmt.Errorf("the traced run recorded no operation")
	}

	fmt.Fprintf(out, "\nbudget %s (medians; self = rung minus the rung below)\n", def.name)
	var share [numLayers + 1]float64 // last: unattributed
	covered := int64(0)
	var main *budget
	for i, it := range plan.items {
		st, seen := byName[it.span]
		if !seen || st.medianNs == 0 {
			continue
		}
		b, err := climb(it, byName, e.sz.rungBudget)
		if err != nil {
			return err
		}
		b.print(out)
		if i == 0 {
			main = b
		}
		covered += st.totalNs
		for l, self := range b.self {
			share[l] += float64(st.totalNs) * float64(self) / float64(b.inSitu)
		}
		share[numLayers] += float64(st.totalNs) * float64(b.unattrib) / float64(b.inSitu)
	}
	for name, layer := range plan.direct {
		share[layer] += float64(byName[name].totalNs)
		covered += byName[name].totalNs
	}
	share[plan.rest] += float64(opNs - covered)

	fmt.Fprintf(out, "\nlayer shares %s (of %0.1f ms traced operation time)\n ", def.name, float64(opNs)/1e6)
	for l, name := range layerNames {
		m["share."+name] = share[l] / float64(opNs)
		fmt.Fprintf(out, " %s=%.3f", name, m["share."+name])
	}
	m["share.unattributed"] = share[numLayers] / float64(opNs)
	fmt.Fprintf(out, " unattributed=%.3f\n", m["share.unattributed"])

	if main != nil {
		if err := mainItemMetrics(m, plan, main, byName, plain, w, e.sz.rungBudget, out); err != nil {
			return err
		}
	}
	if plan.probeDB != nil {
		search, heap, err := storageCosts(plan.probeDB, plan.probeTable, plan.probeMaxID)
		if err != nil {
			return err
		}
		m["btree.search_ns"], m["storage.heap_get_ns"] = search, heap
	}
	if plan.walRow != nil {
		appendNs, fsyncNs, err := walCosts(e.dir, plan.walRow, e.sz.rungBudget)
		if err != nil {
			return err
		}
		m["txn.wal_append_us"], m["txn.fsync_us"] = us(appendNs), us(fsyncNs)
	}
	return nil
}

// mainItemMetrics reports the single-statement metrics of the workload's
// main item and reconciles its budget with the untraced operation.
func mainItemMetrics(m map[string]float64, plan *layerPlan, b *budget, byName map[string]spanStat, plain *phase, w workload, perRung time.Duration, out io.Writer) error {
	m["unattributed_us"] = us(b.unattrib)
	m["wire.self_us"] = us(b.self[lyWire])
	m["sqlair.overhead_us"] = us(b.self[lySqlair])
	for _, r := range b.rungs {
		if r.name == rungExec {
			m["engine.exec_us"] = us(r.ns)
		}
	}
	codec, err := codecCost(b.rows, perRung)
	if err != nil {
		return err
	}
	m["wire.codec_ns_per_row"] = codec
	parse, build, hit, miss, err := prepareCosts(b.item.local, b.item.sh.sql, perRung)
	if err != nil {
		return err
	}
	m["sql.parse_us"], m["plan.build_us"] = us(parse), us(build)
	m["engine.prepare_hit_us"], m["engine.prepare_miss_us"] = us(hit), us(miss)

	// Reconciliation: the operation kind that issues the main statement
	// once, untraced, against the sum of its parts: the statement's rung
	// self times plus what the operation spends outside the statement.
	kind := w.kinds()[plan.reconcileKind]
	whole := percentile(plain.latencies(plan.reconcileKind), 0.5)
	outside := max(byName["op:"+kind].medianNs-b.inSitu, 0)
	parts := outside
	for _, self := range b.self {
		parts += self
	}
	gap := ratio(float64(whole-parts), float64(whole))
	verdict := "reconciled"
	if gap > reconcileTolerance || gap < -reconcileTolerance {
		verdict = fmt.Sprintf("FINDING: parts and whole differ by more than %.0f %%", reconcileTolerance*100)
	}
	fmt.Fprintf(out, "reconciliation %q: untraced median %.1f us, parts %.1f us (statement %.1f + around it %.1f), gap %+.1f %% — %s\n",
		kind, us(whole), us(parts), us(parts-outside), us(outside), gap*100, verdict)
	return nil
}
