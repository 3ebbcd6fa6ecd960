// Package harness regenerates the paper's evaluation and measures each
// architectural addition since: experiments E1–E8 reproduce the paper's
// tables and figures, E9+ benchmark the engine and server (see Experiments
// for the index). Each experiment sets up its workload, runs the measured
// operations through the forms system and the baseline, and renders the
// resulting table or figure series as text. cmd/wowbench prints these
// tables; bench_test.go exposes the same measured operations as Go
// benchmarks.
package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Table is one regenerated table or figure series.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// Config scales the experiments.
type Config struct {
	// Sizes is the synthetic database size.
	Sizes workload.Sizes
	// Operations is the per-cell operation count for latency cells.
	Operations int
	// Quick trims parameter sweeps so the whole suite runs in seconds
	// (used by tests); the full configuration is Full.
	Quick bool
}

// Full is the configuration the recorded results (BENCH_E*.json, "scale":
// "full") use.
var Full = Config{Sizes: workload.Sizes{Customers: 5000, Orders: 40000, ItemsPerOrder: 2}, Operations: 500}

// Quick is a reduced configuration for tests and smoke runs.
var Quick = Config{Sizes: workload.SmallSizes, Operations: 30, Quick: true}

// Experiments lists the experiment identifiers in order. E1–E8 regenerate
// the paper's tables and figures; E9 measures the engine's prepared-statement
// path against re-parsed text execution; E10 measures the planned write path
// (index-range UPDATE and batch-bound INSERT) against the seed write path;
// E11 measures N-client throughput through the wire-protocol server and the
// engine-wide shared plan cache; E12 measures remote bulk ingest — pooled
// ExecBatch frames against the per-row round-trip path; E13 measures
// windowed browsing — the keyset-paged window cursor against per-refresh
// materialisation over the largest table, locally and over the wire; E14
// measures mixed read/write throughput under MVCC against an emulation of
// the replaced table-lock discipline; E15 measures durable commit throughput
// under leader/follower group commit against the per-commit-fsync discipline,
// then SIGKILLs a real server mid-ingest and verifies checkpointed recovery
// loses no acknowledged commit; E16 measures the typed-client economy —
// a RETURNING write-plus-read in one statement against the raw
// INSERT-then-SELECT pair, and struct-mapped point reads against hand-scanned
// ones, over the wire; E17 measures WAL-streaming replication — fleet-routed
// read throughput at 0, 1 and 2 replicas under a concurrent primary write
// stream, auditing the staleness bound on every routed read.
var Experiments = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17"}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Table, error) {
	switch strings.ToUpper(id) {
	case "E1":
		return RunE1(cfg)
	case "E2":
		return RunE2(cfg)
	case "E3":
		return RunE3(cfg)
	case "E4":
		return RunE4(cfg)
	case "E5":
		return RunE5(cfg)
	case "E6":
		return RunE6(cfg)
	case "E7":
		return RunE7(cfg)
	case "E8":
		return RunE8(cfg)
	case "E9":
		return RunE9(cfg)
	case "E10":
		return RunE10(cfg)
	case "E11":
		return RunE11(cfg)
	case "E12":
		return RunE12(cfg)
	case "E13":
		return RunE13(cfg)
	case "E14":
		return RunE14(cfg)
	case "E15":
		return RunE15(cfg)
	case "E16":
		return RunE16(cfg)
	case "E17":
		return RunE17(cfg)
	default:
		return nil, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(Experiments, ", "))
	}
}

// RunAll executes every experiment.
func RunAll(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, id := range Experiments {
		t, err := Run(id, cfg)
		if err != nil {
			return out, fmt.Errorf("harness: %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// environment is the populated database plus compiled forms the experiments
// share.
type environment struct {
	db    *engine.Database
	forms map[string]*core.Form
}

// newEnvironment builds the standard workload database and compiles the
// standard forms.
func newEnvironment(sizes workload.Sizes) (*environment, error) {
	db := engine.OpenMemory()
	if err := workload.Populate(db, sizes); err != nil {
		return nil, err
	}
	forms, err := core.NewCompiler(db).CompileSource(workload.StandardForms)
	if err != nil {
		return nil, err
	}
	byName := map[string]*core.Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}
	return &environment{db: db, forms: byName}, nil
}

func (e *environment) openWindow(form string) (*core.Manager, *core.Window, error) {
	m := core.NewManager(e.db, 100, 30)
	w, err := m.Open(e.forms[form], 0, 0)
	return m, w, err
}

// timeIt measures the average duration of fn over n runs.
func timeIt(n int, fn func(i int) error) (time.Duration, error) {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

func us(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000.0) }
func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6) }

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}

// accessPathOf summarises the access path the planner chose for a query.
func accessPathOf(db *engine.Database, query string) string {
	node, err := db.Session().Plan(query)
	if err != nil {
		return "error"
	}
	explain := plan.Explain(node)
	switch {
	case strings.Contains(explain, "index lookup"):
		return "index lookup"
	case strings.Contains(explain, "index range scan"):
		return "index range"
	default:
		return "seq scan"
	}
}
