package main

import (
	"encoding/json"
	"maps"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// span is one timed call the driver made into a layer's public API. Spans of
// one operation share Op; Parent is the ID of the enclosing span (0 = none).
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory for one client goroutine; they are written
// out after the run. A nil *tracer records nothing, so the untraced path pays
// one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	op    int32
	// skipped counts open spans that were begun outside any operation (a
	// window's opening queries) and so are not recorded.
	skipped int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// nextOp starts a new operation: spans begun from here on carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// inOp reports whether an operation's span is open.
func (t *tracer) inOp() bool { return t != nil && len(t.stack) > 0 }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	if t.skipped > 0 || (len(t.stack) == 0 && !strings.HasPrefix(name, "op:")) {
		t.skipped++
		return
	}
	id := int32(len(t.spans) + 1)
	var parent int32
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	if t.skipped > 0 {
		t.skipped--
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// timed runs one operation that is a single call into the system: it opens
// the operation's span and the call's span around fn and returns how long fn
// took. It works on a nil tracer.
func (t *tracer) timed(op, call string, fn func() error) (time.Duration, error) {
	t.nextOp()
	t.begin("op:" + op)
	t.begin(call)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end()
	t.end()
	return d, err
}

// writeSpans writes the recorded spans as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanStat summarises the spans of one name.
type spanStat struct {
	name     string
	count    int
	totalNs  int64
	selfNs   int64 // total minus the time covered by child spans
	medianNs int64
}

// summarise groups spans by name. A span's self time is its duration minus
// its direct children's durations (children of one client never overlap).
func summarise(spans []span) []spanStat {
	childNs := make([]int64, len(spans)+1)
	for _, s := range spans {
		childNs[s.Parent] += s.End - s.Start
	}
	byName := map[string]*spanStat{}
	durs := map[string][]int64{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.totalNs += d
		st.selfNs += d - childNs[s.ID]
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]spanStat, 0, len(byName))
	for name, st := range byName {
		st.medianNs = percentile(durs[name], 0.5)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].totalNs > out[j].totalNs })
	return out
}

// --- traced window source ----------------------------------------------------

// shape is one SQL statement text the workload issued, with sampled bind
// sets and the largest row count one execution pulled. The ladder replays
// shapes at successively deeper entry points.
type shape struct {
	sql   string
	write bool // the statement writes
	query bool // run through Query and drained; false: run through Exec
	// named shapes bind through BindNamed, as the forms runtime and sqlair
	// do; the others bind positionally in one call.
	named bool
	names []string                  // parameter names in ordinal order
	args  func(i int) []types.Value // the i'th replay's values; nil: use samples
	limit int                       // rows one execution pulls (0 = all)
	fetch int                       // fetch size set on the remote statement (0 = default)
	// samples are bind sets captured from the traced run, each with how
	// long that execution took in situ.
	samples []shapeSample
}

type shapeSample struct {
	args core.NamedArgs
	ns   int64
}

const maxShapeSamples = 512

// tracedSource wraps a window's core.Source so that every statement the
// forms runtime issues becomes a span, and so the statement texts and binds
// it generates (the pager's page, count and keyset queries) can be replayed
// by the ladder. It is installed only in the traced run.
type tracedSource struct {
	inner  core.Source
	tr     *tracer
	shapes map[string]*shape
}

func (s *tracedSource) Prepare(text string) (core.Statement, error) {
	st, err := s.inner.Prepare(text)
	if err != nil {
		return nil, err
	}
	sh := s.shapes[text]
	if sh == nil {
		sh = &shape{sql: text, named: true}
		s.shapes[text] = sh
	}
	return &tracedStatement{inner: st, src: s, shape: sh, binds: core.NamedArgs{}}, nil
}

func (s *tracedSource) NewSource() core.Source {
	return &tracedSource{inner: s.inner.NewSource(), tr: s.tr, shapes: s.shapes}
}

type tracedStatement struct {
	inner core.Statement
	src   *tracedSource
	shape *shape
	binds core.NamedArgs
}

func (st *tracedStatement) BindNamed(name string, v types.Value) error {
	st.binds[name] = v
	return st.inner.BindNamed(name, v)
}

// sample records the binds of the execution about to start and returns a
// function that stamps it with its duration.
func (st *tracedStatement) sample() (done func()) {
	if len(st.shape.samples) >= maxShapeSamples || !st.src.tr.inOp() {
		return func() {}
	}
	at, start := len(st.shape.samples), time.Now()
	st.shape.samples = append(st.shape.samples, shapeSample{args: maps.Clone(st.binds)})
	return func() { st.shape.samples[at].ns = int64(time.Since(start)) }
}

func (st *tracedStatement) SetFetchSize(n int) {
	st.shape.fetch = max(st.shape.fetch, n)
	if fs, ok := st.inner.(interface{ SetFetchSize(int) }); ok {
		fs.SetFetchSize(n)
	}
}

// Query opens a span that stays open until the row stream is closed, so the
// fetch round trips the pager makes are inside it.
func (st *tracedStatement) Query() (core.RowStream, error) {
	done := st.sample()
	st.shape.query = true
	st.src.tr.begin("stmt:" + st.shape.sql)
	rows, err := st.inner.Query()
	if err != nil {
		st.src.tr.end()
		return nil, err
	}
	return &tracedRows{inner: rows, st: st, sampled: done}, nil
}

func (st *tracedStatement) Exec() (core.ExecSummary, error) {
	done := st.sample()
	st.shape.write = true
	st.src.tr.begin("stmt:" + st.shape.sql)
	res, err := st.inner.Exec()
	st.src.tr.end()
	done()
	return res, err
}

func (st *tracedStatement) Close() error { return st.inner.Close() }

type tracedRows struct {
	inner   core.RowStream
	st      *tracedStatement
	sampled func()
	n       int
	done    bool
}

func (r *tracedRows) Next() bool {
	ok := r.inner.Next()
	if ok {
		r.n++
	}
	return ok
}
func (r *tracedRows) Row() types.Tuple { return r.inner.Row() }
func (r *tracedRows) Err() error       { return r.inner.Err() }

func (r *tracedRows) Close() error {
	err := r.inner.Close()
	if !r.done {
		r.done = true
		r.st.src.tr.end()
		r.sampled()
		r.st.shape.limit = max(r.st.shape.limit, r.n)
	}
	return err
}
