package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's
// registries together: same workloads, same metrics, same units and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound > 0.25 {
			t.Errorf("%s: bound %v is above 0.25", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", f.RunSeconds)
	}
}

func testEnv(t *testing.T, seed int64) env {
	return env{dir: t.TempDir(), seed: seed, sz: tinySizes}
}

// TestEveryWorkloadRuns drives every workload at tiny sizes through both
// kinds of run and checks the printed result line: correct, nothing failed,
// and exactly the metric names BENCHMARK.json promises.
func TestEveryWorkloadRuns(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2eNames, layerNames []string
	for _, m := range f.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range f.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	slices.Sort(e2eNames)
	slices.Sort(layerNames)
	for _, w := range f.Workloads {
		def := findWorkload(w.Name)
		if def == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the program has none", w.Name)
		}
		for trace, want := range [][]string{e2eNames, layerNames} {
			var out bytes.Buffer
			if err := runOne(def, testEnv(t, 7), 400*time.Millisecond, trace, "", &out); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line runLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", w.Name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, line.Correct, line.Attempted, line.Failed, out.String())
			}
			var got []string
			for name := range line.Metrics {
				got = append(got, name)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace %d: printed metrics %v, BENCHMARK.json promises %v", w.Name, trace, got, want)
			}
			if trace == 0 {
				for name, v := range line.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, name, v.Value)
					}
				}
			}
		}
	}
}

// TestOraclesRejectWrongAnswers feeds each oracle a deliberately wrong
// expectation, so that a check that cannot fail does not pass for a check.
func TestOraclesRejectWrongAnswers(t *testing.T) {
	t.Run("browse: off-by-one id", func(t *testing.T) {
		b := newBrowse(testEnv(t, 1))
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		defer b.close()
		w, err := b.worker(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		for range 10 {
			if _, _, err := w.op(); err != nil {
				t.Fatal(err)
			}
		}
		c := w.(*browseClient)
		unknown := func(int) (int, bool) { return 0, false }
		if err := checkWindow(c.win, c.cursor, c.base, c.total(), unknown); err != nil {
			t.Fatalf("the true expectation was rejected: %v", err)
		}
		if err := checkWindow(c.win, c.cursor, c.base+1, c.total(), unknown); err == nil {
			t.Error("an id one too high was accepted")
		}
		if err := checkWindow(c.win, c.cursor, c.base, c.total()-1, unknown); err == nil {
			t.Error("a row count one too low was accepted")
		}
		wrongQty := func(id int) (int, bool) { return c.qty(id) + 1, true }
		if err := checkWindow(c.win, c.cursor, c.base, c.total(), wrongQty); err == nil {
			t.Error("a wrong saved quantity was accepted")
		}
	})
	t.Run("oltp.read: wrong row and wrong sum", func(t *testing.T) {
		good := customerTuple(3)
		c := Customer{ID: 3, Name: good[1].Str(), City: good[2].Str(), Credit: good[3].Float()}
		if err := checkCustomer(c, 3); err != nil {
			t.Fatalf("the true row was rejected: %v", err)
		}
		if err := checkCustomer(c, 4); err == nil {
			t.Error("customer 3's row was accepted for customer 4")
		}
		if err := checkOrders(ordersOf{n: 2, sum: 10}, ordersOf{n: 3, sum: 10}, 1); err == nil {
			t.Error("a missing order was accepted")
		}
	})
	t.Run("oltp.durable: dropped acknowledged row", func(t *testing.T) {
		d := newDurable(testEnv(t, 1))
		if err := d.setup(); err != nil {
			t.Fatal(err)
		}
		defer d.close()
		if _, err := runLoad(d, durableClients, 0, 100*time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
		if err := d.verify(); err != nil {
			t.Fatalf("the true history was rejected: %v", err)
		}
		// Claim one more acknowledged insert than the engine was given.
		d.acked[0].totals = append(d.acked[0].totals, 1)
		if err := d.verify(); err == nil {
			t.Error("an acknowledged insert that is not in the recovered database was accepted")
		}
		d.acked[0].totals = d.acked[0].totals[:len(d.acked[0].totals)-1]
		d.acked[0].updates[1] = -1
		if err := d.verify(); err == nil {
			t.Error("a lost acknowledged update was accepted")
		}
	})
	t.Run("restart.recover: wrong count and checksum", func(t *testing.T) {
		r := newRestart(testEnv(t, 1))
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		defer r.close()
		w, _ := r.worker(0, nil)
		if _, _, err := w.op(); err != nil {
			t.Fatalf("the true history was rejected: %v", err)
		}
		r.wantRows++ // as if the unacknowledged insert had to survive
		if _, _, err := w.op(); err == nil {
			t.Error("a recovered database missing a row was accepted")
		}
		r.wantRows--
		r.wantSum += 1
		if _, _, err := w.op(); err == nil {
			t.Error("a wrong checksum was accepted")
		}
	})
	t.Run("repl.rw: stale replica value", func(t *testing.T) {
		if err := checkReplicaRead(101, 101, 500, 400); err != nil {
			t.Fatalf("a fresh read was rejected: %v", err)
		}
		if err := checkReplicaRead(100, 101, 500, 400); err == nil {
			t.Error("a stale value was accepted")
		}
		if err := checkReplicaRead(101, 101, 300, 400); err == nil {
			t.Error("a read served from before the write's LSN was accepted")
		}
	})
}

// TestSeedDrivesTheKeyStream: the same seed repeats the script, another seed
// changes it.
func TestSeedDrivesTheKeyStream(t *testing.T) {
	script := func(seed int64) []int {
		b := newBrowse(testEnv(t, seed))
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		defer b.close()
		w, err := b.worker(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		var cursors []int
		for range 60 {
			if _, _, err := w.op(); err != nil {
				t.Fatal(err)
			}
			c := w.(*browseClient)
			cursors = append(cursors, c.base+c.cursor)
		}
		return cursors
	}
	a, again, b := script(1), script(1), script(2)
	if !slices.Equal(a, again) {
		t.Error("the same seed gave two different scripts")
	}
	if slices.Equal(a, b) {
		t.Error("two seeds gave the same script")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareVerdicts checks every verdict -compare can give and that a
// regression or a risen fail ratio is an error.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops []float64, failed int) string {
		set := &resultSet{Sets: len(ops), Workloads: map[string]*workloadResult{}}
		for _, def := range workloads {
			set.Workloads[def.name] = &workloadResult{Attempted: 1000, Failed: failed,
				EndToEnd: map[string][]float64{"ops_per_s": ops, "p50_us": {100, 101, 99, 100}, "setup_s": {1, 1, 1, 1}}}
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1000, 1010, 990, 1000}, 0)
	for _, c := range []struct {
		name    string
		ops     []float64
		failed  int
		verdict string
		worse   bool
	}{
		{"same", []float64{1020, 1000, 1010, 1015}, 0, "same", false},
		{"better", []float64{1500, 1510, 1490, 1500}, 0, "better", false},
		{"worse", []float64{700, 710, 690, 700}, 0, "worse", true},
		{"unresolved", []float64{400, 1000, 1600, 700}, 0, "unresolved", false},
		{"failing", []float64{1000, 1010, 990, 1000}, 3, "worse", true},
	} {
		var out bytes.Buffer
		err := compareFiles(base, write(c.name+".json", c.ops, c.failed), &out)
		if c.worse != errors.Is(err, errWorse) {
			t.Errorf("%s: error %v, want worse=%v", c.name, err, c.worse)
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
	}
}
