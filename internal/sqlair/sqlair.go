package sqlair

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server/client"
)

// ErrNoRows is returned by Query.Get when the statement produced no rows.
var ErrNoRows = errors.New("sqlair: no rows returned")

// Statement is one preprocessed typed query: the engine SQL it compiles to,
// plus the input and output mapping derived from the type expressions. A
// Statement is immutable and safe to share across goroutines and DBs.
type Statement struct {
	src     string
	sql     string
	inputs  []inputRef
	outputs []outputRef
	types   map[string]*typeInfo
}

// prepare parses a typed query. The samples declare which Go types the
// query's `&Type...` and `$Type...` expressions may reference — pass one
// (zero) value per type, e.g. prepare(q, Customer{}, Filter{}).
func prepare(query string, samples ...any) (*Statement, error) {
	typesByName := make(map[string]*typeInfo, len(samples))
	for _, sample := range samples {
		ti, err := typeInfoOf(reflect.TypeOf(sample))
		if err != nil {
			return nil, err
		}
		if prior, ok := typesByName[ti.name]; ok && prior.typ != ti.typ {
			return nil, fmt.Errorf("sqlair: two different types named %s passed to Prepare", ti.name)
		}
		typesByName[ti.name] = ti
	}
	sql, inputs, outputs, err := parseQuery(query, typesByName)
	if err != nil {
		return nil, err
	}
	return &Statement{src: query, sql: sql, inputs: inputs, outputs: outputs, types: typesByName}, nil
}

// MustPrepare parses a typed query like DB.Prepare, without the cache, and
// panics on error — for package-level statement variables, where a malformed
// query is a programming error.
func MustPrepare(query string, samples ...any) *Statement {
	st, err := prepare(query, samples...)
	if err != nil {
		panic(err)
	}
	return st
}

// SQL returns the engine SQL the typed query compiled to.
func (s *Statement) SQL() string { return s.sql }

// Stats summarises a DB's caches: the per-DB statement cache (typed parse
// plans keyed by query text) and the process-wide type-reflection cache.
type Stats struct {
	StmtHits   uint64
	StmtMisses uint64
	TypeHits   uint64
	TypeMisses uint64
}

// DB runs typed statements against one database, local or remote. It holds
// no connection itself: an engine DB opens a session per operation, a pool
// DB checks a connection out per operation and returns it when the operation's rows are
// closed. DB is safe for concurrent use (each operation gets its own
// statement handle).
type DB struct {
	acquire func(ctx context.Context) (core.Source, func(), error)

	mu         sync.RWMutex
	stmts      map[string]*Statement
	stmtHits   atomic.Uint64
	stmtMisses atomic.Uint64
}

// NewEngineDB wraps a local engine database. Each operation opens a session
// of its own and closes it when the operation's iterator is closed, so
// concurrent operations never share one (an engine session is not safe for
// concurrent use). The context is checked before each operation but cannot
// interrupt one mid-flight (the engine is synchronous).
func NewEngineDB(db *engine.Database) *DB {
	return &DB{
		acquire: func(ctx context.Context) (core.Source, func(), error) {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			session := db.Session()
			return core.NewEngineSource(session), func() { session.Close() }, nil
		},
		stmts: make(map[string]*Statement),
	}
}

// NewPoolDB wraps a connection pool. Each operation checks a connection out
// with the operation's context (which bounds the wait and interrupts the
// round trips until release), and releases it when the operation's iterator
// is closed. Statement text prepared on a pooled connection stays in that
// connection's cache, so repeated shapes skip the Prepare round trip.
func NewPoolDB(pool *client.Pool) *DB {
	return &DB{
		acquire: func(ctx context.Context) (core.Source, func(), error) {
			h, err := pool.GetContext(ctx)
			if err != nil {
				return nil, nil, err
			}
			return core.NewPooledSource(h), h.Release, nil
		},
		stmts: make(map[string]*Statement),
	}
}

// Prepare returns the DB's cached statement for the query text, parsing and
// caching it on first use. The samples matter only on the first call for a
// given text; subsequent calls hit the cache regardless.
func (db *DB) Prepare(query string, samples ...any) (*Statement, error) {
	db.mu.RLock()
	st, ok := db.stmts[query]
	db.mu.RUnlock()
	if ok {
		db.stmtHits.Add(1)
		return st, nil
	}
	db.stmtMisses.Add(1)
	st, err := prepare(query, samples...)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if prior, ok := db.stmts[query]; ok {
		st = prior
	} else {
		db.stmts[query] = st
	}
	db.mu.Unlock()
	return st, nil
}

// Stats returns a snapshot of the DB's cache counters.
func (db *DB) Stats() Stats {
	th, tm := typeCacheStats()
	return Stats{
		StmtHits:   db.stmtHits.Load(),
		StmtMisses: db.stmtMisses.Load(),
		TypeHits:   th,
		TypeMisses: tm,
	}
}

// Query starts one execution of a statement with the given input structs.
// Nothing runs until Run, Get or Iter is called. Errors in the inputs are
// deferred to that call, so Query itself never fails.
func (db *DB) Query(ctx context.Context, st *Statement, inputs ...any) *Query {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Query{db: db, stmt: st, ctx: ctx, inputs: inputs}
}

// Query is one pending execution: a statement plus the input structs whose
// fields bind its parameters. Exactly one of Run, Get or Iter consumes it.
type Query struct {
	db     *DB
	stmt   *Statement
	ctx    context.Context
	inputs []any
}

// inputValue finds the query input matching a type name, dereferenced to its
// struct value. The input lists are tiny, so a linear scan beats building a
// lookup map per execution.
func (q *Query) inputValue(typeName string) (reflect.Value, error) {
	for _, in := range q.inputs {
		ti, err := typeInfoOf(reflect.TypeOf(in))
		if err != nil {
			return reflect.Value{}, err
		}
		if ti.name != typeName {
			continue
		}
		rv := reflect.ValueOf(in)
		for rv.Kind() == reflect.Pointer {
			if rv.IsNil() {
				return reflect.Value{}, fmt.Errorf("sqlair: nil %s passed as query input", ti.name)
			}
			rv = rv.Elem()
		}
		return rv, nil
	}
	return reflect.Value{}, fmt.Errorf("sqlair: statement needs a %s input, none was passed to Query", typeName)
}

// bindInputs extracts the statement's parameters from the input structs and
// binds them directly — no intermediate argument map on the per-operation
// path.
func (q *Query) bindInputs(st core.Statement) error {
	for _, ref := range q.stmt.inputs {
		rv, err := q.inputValue(ref.typeName)
		if err != nil {
			return err
		}
		ti := q.stmt.types[ref.typeName]
		fv := rv.Field(ti.fields[ti.byCol[ref.col]].index)
		v, err := valueForField(fv)
		if err != nil {
			return fmt.Errorf("sqlair: input %s.%s: %w", ref.typeName, ref.col, err)
		}
		if err := st.BindNamed(ref.param, v); err != nil {
			return err
		}
	}
	return nil
}

// open prepares and binds the statement on an acquired source. On error the
// source has been released.
func (q *Query) open() (core.Statement, func(), error) {
	src, release, err := q.db.acquire(q.ctx)
	if err != nil {
		return nil, nil, err
	}
	st, err := src.Prepare(q.stmt.sql)
	if err != nil {
		release()
		return nil, nil, err
	}
	if err := q.bindInputs(st); err != nil {
		st.Close()
		release()
		return nil, nil, err
	}
	return st, release, nil
}

// Get executes the statement and scans its first row into the output
// structs, one per `&Type` used in the query. It returns ErrNoRows when the
// statement produced none. Rows past the first are discarded.
func (q *Query) Get(outputs ...any) error {
	it, err := q.Iter()
	if err != nil {
		return err
	}
	if !it.Next() {
		closeErr := it.Close()
		if closeErr != nil {
			return closeErr
		}
		return ErrNoRows
	}
	if err := it.Get(outputs...); err != nil {
		it.Close()
		return err
	}
	return it.Close()
}

// Iter executes the statement and returns an iterator over its rows. Close
// it when done — for a pool DB the connection stays checked out until then.
func (q *Query) Iter() (*Iterator, error) {
	if len(q.stmt.outputs) == 0 {
		return nil, fmt.Errorf("sqlair: statement has no output expressions; add RETURNING &Type.column")
	}
	st, release, err := q.open()
	if err != nil {
		return nil, err
	}
	rows, err := st.Query()
	if err != nil {
		st.Close()
		release()
		return nil, err
	}
	return &Iterator{stmt: q.stmt, st: st, rows: rows, release: release}, nil
}

// Iterator streams a typed query's rows. The usual loop:
//
//	it, err := db.Query(ctx, stmt, in).Iter()
//	for it.Next() {
//	    var c Customer
//	    if err := it.Get(&c); err != nil { ... }
//	}
//	err = it.Close()
type Iterator struct {
	stmt    *Statement
	st      core.Statement
	rows    core.RowStream
	release func()
	closed  bool
	err     error
}

// Next advances to the next row, returning false at the end or on error
// (Close reports which).
func (it *Iterator) Next() bool {
	if it.closed {
		return false
	}
	return it.rows.Next()
}

// Get scans the current row into the output structs: each `&Type` column of
// the row lands in the field of the passed *Type that carries its db tag.
func (it *Iterator) Get(outputs ...any) error {
	if it.closed {
		return fmt.Errorf("sqlair: Get on a closed iterator")
	}
	row := it.rows.Row()
	if row == nil {
		return fmt.Errorf("sqlair: Get called before Next (or after the rows were exhausted)")
	}
	if len(row) != len(it.stmt.outputs) {
		return fmt.Errorf("sqlair: statement yields %d columns but its type expressions cover %d; "+
			"every output column must come from a &Type expression", len(row), len(it.stmt.outputs))
	}
	type dest struct {
		name   string
		rv     reflect.Value
		filled bool
	}
	dests := make([]dest, len(outputs))
	for i, out := range outputs {
		rv := reflect.ValueOf(out)
		if rv.Kind() != reflect.Pointer || rv.IsNil() {
			return fmt.Errorf("sqlair: outputs must be non-nil pointers to structs, got %T", out)
		}
		ti, err := typeInfoOf(rv.Type())
		if err != nil {
			return err
		}
		dests[i] = dest{name: ti.name, rv: rv.Elem()}
	}
	for i, ref := range it.stmt.outputs {
		var d *dest
		for j := range dests {
			if dests[j].name == ref.typeName {
				d = &dests[j]
				break
			}
		}
		if d == nil {
			return fmt.Errorf("sqlair: no *%s passed to Get for output column %q", ref.typeName, ref.col)
		}
		d.filled = true
		ti := it.stmt.types[ref.typeName]
		fv := d.rv.Field(ti.fields[ti.byCol[ref.col]].index)
		if err := setField(fv, row[i]); err != nil {
			return fmt.Errorf("sqlair: output %s.%s: %w", ref.typeName, ref.col, err)
		}
	}
	for _, d := range dests {
		if !d.filled {
			return fmt.Errorf("sqlair: Get was passed a *%s but the statement has no &%s outputs", d.name, d.name)
		}
	}
	return nil
}

// Close releases the iterator: the cursor, the statement handle and — for a
// pool DB — the checked-out connection. It returns the first error the
// iteration hit. Close is idempotent.
func (it *Iterator) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	it.err = it.rows.Err()
	if err := it.rows.Close(); err != nil && it.err == nil {
		it.err = err
	}
	if err := it.st.Close(); err != nil && it.err == nil {
		it.err = err
	}
	it.release()
	return it.err
}
