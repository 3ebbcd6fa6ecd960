package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// resultSet is what a result file holds: where and on what the numbers were
// taken, and per workload every metric's value in each set run.
type resultSet struct {
	Host       string                     `json:"host"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Go         string                     `json:"go"`
	Commit     string                     `json:"commit"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Sets       int                        `json:"sets"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// EndToEnd and Layers map a metric name to its value in each set.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	Layers   map[string][]float64 `json:"layers"`
}

func (r *workloadResult) failRatio() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

func newResultSet(e env, measured time.Duration) *resultSet {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return &resultSet{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: e.seed, Seconds: measured.Seconds(),
		Workloads: map[string]*workloadResult{},
	}
}

// commit names the source the numbers were taken on: the checked-out git
// commit, or "unknown" outside a repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSet runs every workload once, untraced and traced, and returns the set.
func runSet(e env, measured time.Duration, out io.Writer) (*resultSet, error) {
	set := newResultSet(e, measured)
	set.Sets = 1
	for i := range workloads {
		def := &workloads[i]
		fmt.Fprintf(out, "\n== %s (%d client(s), seed %d, %.0f s measured)\n", def.name, def.clients, e.seed, measured.Seconds())
		e2e, err := runEndToEnd(def, e, measured, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		layers, err := runLayers(def, e, measured, out, "")
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", def.name, err)
		}
		r := &workloadResult{
			Attempted: e2e.attempted + layers.attempted,
			Failed:    e2e.failed + layers.failed,
			EndToEnd:  map[string][]float64{},
			Layers:    map[string][]float64{},
		}
		if !e2e.correct || !layers.correct {
			r.Failed = max(r.Failed, 1) // a failed end oracle counts as a failure
		}
		for k, v := range e2e.metrics {
			r.EndToEnd[k] = []float64{v}
		}
		for k, v := range layers.metrics {
			r.Layers[k] = []float64{v}
		}
		set.Workloads[def.name] = r
	}
	return set, nil
}

// merge appends other's values to set's.
func (set *resultSet) merge(other *resultSet) {
	set.Sets += other.Sets
	for name, o := range other.Workloads {
		r := set.Workloads[name]
		if r == nil {
			set.Workloads[name] = o
			continue
		}
		r.Attempted += o.Attempted
		r.Failed += o.Failed
		for k, v := range o.EndToEnd {
			r.EndToEnd[k] = append(r.EndToEnd[k], v...)
		}
		for k, v := range o.Layers {
			r.Layers[k] = append(r.Layers[k], v...)
		}
	}
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(v, n=4) gives them (the exclusive method).
// Fewer than two values have no spread: all three are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0, 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j, delta := i*m/4, i*m%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// printSet prints every metric of every workload by name, with its unit.
func printSet(out io.Writer, set *resultSet) {
	fmt.Fprintf(out, "\nhost %s  nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d  %.0f s measured  %d set(s)\n",
		set.Host, set.NProc, set.GOMAXPROCS, set.Go, set.Commit, set.Seed, set.Seconds, set.Sets)
	fmt.Fprintf(out, "\nend to end (median [q1 .. q3] spread)\n")
	for _, def := range workloads {
		r := set.Workloads[def.name]
		if r == nil {
			continue
		}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(r.EndToEnd[d.name])
			fmt.Fprintf(out, "  %-16s %-28s %14.4f %-5s [%.4f .. %.4f] %.3f\n", def.name, d.name, q2, d.unit, q1, q3, spread(r.EndToEnd[d.name]))
		}
		fmt.Fprintf(out, "  %-16s %-28s %14.6f %-5s (%d of %d)\n", def.name, "fail_ratio", r.failRatio(), "ratio", r.Failed, r.Attempted)
	}
	fmt.Fprintf(out, "\nper layer (median over sets), one column per workload\n  %-30s %-6s", "metric", "unit")
	for _, def := range workloads {
		fmt.Fprintf(out, " %15s", def.name)
	}
	fmt.Fprintln(out)
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-30s %-6s", d.name, d.unit)
		for _, def := range workloads {
			v := 0.0
			if r := set.Workloads[def.name]; r != nil {
				_, v, _ = quartiles(r.Layers[d.name])
			}
			fmt.Fprintf(out, " %15.4g", v)
		}
		fmt.Fprintln(out)
	}
}

// runCalibration runs n full sets on consecutive seeds, reports every
// end-to-end metric's spread against its bound, and writes the merged set as
// the baseline (to path, or bench/baseline/<host>-<commit>.json). A metric
// whose spread exceeds a third of its bound is listed: a later comparison on
// it would come out unresolved too often.
func runCalibration(e env, measured time.Duration, n int, path string, out io.Writer) error {
	var all *resultSet
	for i := 0; i < n; i++ {
		fmt.Fprintf(out, "\n#### calibration set %d of %d\n", i+1, n)
		run := e
		run.seed = e.seed + int64(i)
		set, err := runSet(run, measured, out)
		if err != nil {
			return err
		}
		if all == nil {
			all = set
		} else {
			all.merge(set)
		}
	}
	printSet(out, all)
	fmt.Fprintf(out, "\ncalibration: spread of each end-to-end metric over %d sets against its bound\n", n)
	for _, def := range workloads {
		for _, d := range endToEnd {
			sp := spread(all.Workloads[def.name].EndToEnd[d.name])
			verdict := "steady"
			switch {
			case sp > d.bound:
				verdict = "TOO WIDE: wider than the bound; demote the metric or lengthen the run"
			case sp > d.bound/3:
				verdict = "wide: above a third of the bound"
			}
			fmt.Fprintf(out, "  %-16s %-12s spread %.3f  bound %.2f  %s\n", def.name, d.name, sp, d.bound, verdict)
		}
	}
	if path == "" {
		path = filepath.Join("bench", "baseline", fmt.Sprintf("%s-%s.json", all.Host, all.Commit))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Fprintf(out, "baseline written to %s\n", path)
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// errWorse is compareFiles's verdict when b regressed against a.
var errWorse = fmt.Errorf("the second result set is worse than the first")

// compareFiles prints one row per workload and end-to-end metric — both
// medians with their quartiles, the ratio with its base, and a verdict — and
// returns errWorse when any metric got worse by more than its bound or any
// workload's fail ratio rose.
func compareFiles(pathA, pathB string, out io.Writer) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a: %s  commit %s  host %s  nproc %d  %d set(s)\n", pathA, a.Commit, a.Host, a.NProc, a.Sets)
	fmt.Fprintf(out, "b: %s  commit %s  host %s  nproc %d  %d set(s)\n\n", pathB, b.Commit, b.Host, b.NProc, b.Sets)
	fmt.Fprintf(out, "%-16s %-10s %-30s %-30s %-18s %s\n", "workload", "metric", "a median [q1..q3]", "b median [q1..q3]", "b/a (base a)", "verdict")
	worse := false
	for _, def := range workloads {
		ra, rb := a.Workloads[def.name], b.Workloads[def.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			verdict := verdictOf(d, va, vb)
			worse = worse || verdict == "worse"
			fmt.Fprintf(out, "%-16s %-10s %-30s %-30s %-18s %s\n", def.name, d.name,
				fmt.Sprintf("%.4g [%.4g..%.4g]", a2, a1, a3), fmt.Sprintf("%.4g [%.4g..%.4g]", b2, b1, b3),
				fmt.Sprintf("%.3f (%.4g %s)", ratio(b2, a2), a2, d.unit), verdict)
		}
		fa, fb := ra.failRatio(), rb.failRatio()
		verdict := "same"
		if fb > fa {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(out, "%-16s %-10s %-30.6f %-30.6f %-18s %s\n", def.name, "fail_ratio", fa, fb, "", verdict)
	}
	if worse {
		return errWorse
	}
	return nil
}

// verdictOf compares b with a on one metric: unresolved when either side's
// spread is wider than the bound, otherwise worse, better or same according
// to whether the medians differ by more than the bound.
func verdictOf(d metricDef, a, b []float64) string {
	if spread(a) > d.bound || spread(b) > d.bound {
		return "unresolved"
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worsening := ratio(mb-ma, ma)
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > d.bound:
		return "worse"
	case worsening < -d.bound:
		return "better"
	}
	return "same"
}
