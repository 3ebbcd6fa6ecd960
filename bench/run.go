package main

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// sizes fixes how much data each workload holds and how often the durable
// engine checkpoints. The full sizes are the benchmark; the tiny ones keep
// `go test` fast.
type sizes struct {
	browseRows       int // order_items rows; the default 8 MiB pool holds about 150 000
	readCustomers    int
	readOrders       int
	durableCustomers int
	durableOrders    int
	durableItems     int
	recoverInserts   int
	recoverUpdates   int
	replRows         int
	checkpointEvery  time.Duration
	rungBudget       time.Duration // how long the ladder replays one rung
}

var fullSizes = sizes{
	browseRows:       200000,
	readCustomers:    5000,
	readOrders:       40000,
	durableCustomers: 2000,
	durableOrders:    20000,
	durableItems:     2000,
	recoverInserts:   30000,
	recoverUpdates:   10000,
	replRows:         20000,
	checkpointEvery:  time.Second,
	rungBudget:       100 * time.Millisecond,
}

var tinySizes = sizes{
	browseRows:       3000,
	readCustomers:    200,
	readOrders:       1600,
	durableCustomers: 100,
	durableOrders:    400,
	durableItems:     100,
	recoverInserts:   600,
	recoverUpdates:   200,
	replRows:         300,
	checkpointEvery:  100 * time.Millisecond,
	rungBudget:       2 * time.Millisecond,
}

// env is what a workload is built from.
type env struct {
	dir  string // scratch directory for database files, inside the checkout
	seed int64
	sz   sizes
}

// workload is one system under test plus the load that drives it.
type workload interface {
	// kinds names the operation kinds client.op reports, by index.
	kinds() []string
	// setup builds the system and its data; the runner times it as setup_s.
	setup() error
	// worker opens the i'th closed-loop client. With a non-nil tracer the
	// client records a span per public call it makes.
	worker(i int, tr *tracer) (worker, error)
	// counters adds the system's cumulative counters to c.
	counters(c *counters)
	// verify is the end-of-run oracle over everything the clients were told
	// had happened.
	verify() error
	// plan says, after a traced run, which statements to replay down the
	// ladder and which layer owns which span.
	plan() (*layerPlan, error)
	// close tears the system down and removes its files.
	close() error
}

// worker is one closed-loop client: it issues one operation at a time and
// waits for its result.
type worker interface {
	// op runs one operation and checks its result. d covers only the calls
	// into the system, not generating the input or checking the output.
	op() (kind int, d time.Duration, err error)
	// counters adds the client's own cumulative counters (window, pool) to c.
	counters(c *counters)
	close()
}

// sample is one completed operation.
type sample struct {
	at     int64 // ns from the start of the measured part to the operation's end
	d      int64 // ns
	kind   uint8
	failed bool
}

// phase is the outcome of one measured load phase.
type phase struct {
	elapsed time.Duration
	samples []sample
	counts  counters // counter increase over the measured part
	err     error    // first operation error, for diagnostics
}

// runLoad drives n closed-loop clients against w: warm for warm (results
// discarded, so plan, statement and page caches fill), then measure for dur.
// Counters are read while every client is parked between the two parts and
// again after they stop. trs, when non-nil, gives each client its tracer.
func runLoad(w workload, n int, warm, dur time.Duration, trs []*tracer) (*phase, error) {
	clients := make([]worker, n)
	for i := range clients {
		var tr *tracer
		if trs != nil {
			tr = trs[i]
		}
		c, err := w.worker(i, tr)
		if err != nil {
			for _, open := range clients[:i] {
				open.close()
			}
			return nil, fmt.Errorf("opening client %d: %w", i, err)
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	snapshot := func() counters {
		var c counters
		w.counters(&c)
		for _, cl := range clients {
			cl.counters(&c)
		}
		return c
	}

	perClient := make([][]sample, n)
	errs := make([]error, n)
	var warmed, done sync.WaitGroup
	measure := make(chan time.Time)
	warmed.Add(n)
	done.Add(n)
	warmUntil := time.Now().Add(warm)
	for i, c := range clients {
		go func() {
			defer done.Done()
			for time.Now().Before(warmUntil) {
				if _, _, err := c.op(); err != nil && errs[i] == nil {
					errs[i] = fmt.Errorf("warm-up: %w", err)
				}
			}
			warmed.Done()
			until := <-measure
			start := until.Add(-dur)
			out := make([]sample, 0, 1<<14)
			for time.Now().Before(until) {
				kind, d, err := c.op()
				if err != nil && errs[i] == nil {
					errs[i] = err
				}
				out = append(out, sample{at: int64(time.Since(start)), d: int64(d), kind: uint8(kind), failed: err != nil})
			}
			perClient[i] = out
		}()
	}
	warmed.Wait()
	before := snapshot()
	start := time.Now()
	until := start.Add(dur)
	for range clients {
		measure <- until
	}
	done.Wait()
	ph := &phase{elapsed: time.Since(start)}
	after := snapshot()
	for i := range after {
		ph.counts[i] = after[i] - before[i]
	}
	for i, s := range perClient {
		ph.samples = append(ph.samples, s...)
		if ph.err == nil {
			ph.err = errs[i]
		}
	}
	return ph, nil
}

// attempted and failed count the phase's operations.
func (p *phase) attempted() int { return len(p.samples) }

func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// rateSlices is how many equal slices of the measured time opsPerSecond takes
// the median over, and minPerSlice how many operations a slice must hold on
// average for its rate to mean anything.
const (
	rateSlices  = 5
	minPerSlice = 50
)

// opsPerSecond is completed, verified operations per second: the median over
// rateSlices slices of the measured time, so that a burst of interference
// from outside the process (this is a shared sandbox) moves one slice and not
// the result. A run of too few operations to slice reports the plain ratio.
func (p *phase) opsPerSecond() float64 {
	done := p.attempted() - p.failed()
	if done < rateSlices*minPerSlice {
		return float64(done) / p.elapsed.Seconds()
	}
	width := int64(p.elapsed) / rateSlices
	var counts [rateSlices]float64
	for _, s := range p.samples {
		if k := int(s.at / width); k < rateSlices && !s.failed {
			counts[k]++
		}
	}
	return median(counts[:]) / time.Duration(width).Seconds()
}

// latencies returns the durations of the successful operations of one kind
// (kind < 0: all), in ns.
func (p *phase) latencies(kind int) []int64 {
	out := make([]int64, 0, len(p.samples))
	for _, s := range p.samples {
		if !s.failed && (kind < 0 || int(s.kind) == kind) {
			out = append(out, s.d)
		}
	}
	return out
}

// percentile returns the q-quantile (nearest rank) of ns, or 0 when empty.
// It sorts ns in place.
func percentile(ns []int64, q float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return ns[min(int(q*float64(len(ns))), len(ns)-1)]
}

// p99 is the 99th percentile, reported only when at least 1000 samples
// leave at least ten beyond it; otherwise 0.
func p99(ns []int64) int64 {
	if len(ns) < 1000 {
		return 0
	}
	return percentile(ns, 0.99)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
