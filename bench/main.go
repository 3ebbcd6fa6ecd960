// Command bench is the repository's benchmark: five closed-loop workloads
// against the system hosted in this process (engine, and server on TCP
// loopback), an oracle on every result, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. README.md defines everything.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, result as the last line
//	bench [-seed N] [-seconds S] [-out file]          all workloads, both kinds of run
//	bench -calibrate N                                N full sets, spreads and a baseline file
//	bench -compare a.json b.json                      verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print its result as the last line (default: all five)")
		seed      = flag.Int64("seed", 1983, "seed of every key and position stream the driver generates")
		seconds   = flag.Float64("seconds", 10, "measured seconds per run")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		spans     = flag.String("spans", "", "with -trace 1, write the recorded spans to this file")
		out       = flag.String("out", "", "write the result set to this file (with -calibrate: instead of bench/baseline/<host>-<commit>.json)")
		calibrate = flag.Int("calibrate", 0, "run this many full sets and report every metric's spread")
		compare   = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		workdir   = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for database files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *spans, *out, *calibrate, *compare, *workdir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, spans, out string, calibrate int, compare bool, workdir string, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1], os.Stdout)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	measured := time.Duration(seconds * float64(time.Second))
	// Every run works in a directory of its own, removed at exit, so runs
	// can share a checkout.
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := env{dir: dir, seed: seed, sz: fullSizes}

	switch {
	case name != "":
		def := findWorkload(name)
		if def == nil {
			return fmt.Errorf("no workload named %q", name)
		}
		return runOne(def, e, measured, trace, spans, os.Stdout)
	case calibrate > 0:
		return runCalibration(e, measured, calibrate, out, os.Stdout)
	default:
		set, err := runSet(e, measured, os.Stdout)
		if err != nil {
			return err
		}
		printSet(os.Stdout, set)
		if out != "" {
			return writeJSON(out, set)
		}
		return nil
	}
}

// runLine is the last line a single run prints: the driver's contract.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once and prints its result as the last line.
func runOne(def *workloadDef, e env, measured time.Duration, trace int, spans string, out io.Writer) error {
	var res *outcome
	var err error
	defs := endToEnd
	if trace == 0 {
		res, err = runEndToEnd(def, e, measured, out)
	} else {
		defs = perLayer
		res, err = runLayers(def, e, measured, out, spans)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", def.name, err)
	}
	line := runLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	encoded, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(encoded))
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
