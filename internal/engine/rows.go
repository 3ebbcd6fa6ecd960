package engine

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/types"
)

// Rows is a streaming cursor over a query's result. Rows are pulled from the
// operator tree one at a time — nothing is materialised beyond what the plan
// itself needs (a sort or aggregate buffers; a plain scan streams straight
// from the pages).
//
//	rows, err := stmt.Query()
//	...
//	defer rows.Close()
//	for rows.Next() {
//		var id int64
//		var name string
//		if err := rows.Scan(&id, &name); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The cursor holds its statement (and, outside an explicit transaction, the
// shared locks on the tables it reads) until Close. Exhausting the rows
// closes the cursor automatically; Close is idempotent, and closing
// mid-iteration releases the locks immediately.
type Rows struct {
	stmt *Stmt
	op   exec.Operator
	// enc is op's encoded path, nil when its rows are not stored payloads.
	enc     exec.EncodedOperator
	columns []string
	release func()
	cur     types.Tuple
	err     error
	closed  bool
}

// Columns returns the result's column names.
func (r *Rows) Columns() []string {
	out := make([]string, len(r.columns))
	copy(out, r.columns)
	return out
}

// Next advances to the next row. It returns false when the rows are exhausted
// or an error occurred — check Err afterwards to tell the two apart. The
// cursor closes itself when Next returns false.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	tuple, ok, err := r.op.Next()
	if err != nil {
		r.err = err
		r.close()
		return false
	}
	if !ok {
		r.close()
		return false
	}
	r.cur = tuple
	r.stmt.session.db.prep.rowsStreamed.Add(1)
	return true
}

// AppendNext advances as Next does, but appends the row to dst in its
// types.EncodeTuple encoding, the wire's and the heap's, instead of making
// it the current row, and returns the grown slice. When the operator tree's
// rows are stored payloads (exec.AsEncoded) the bytes are copied from the
// heap as they are, never decoded; otherwise the row is pulled with Next
// and encoded. It returns dst unchanged and false when the rows are
// exhausted or an error occurred, and the cursor has then closed itself.
func (r *Rows) AppendNext(dst []byte) ([]byte, bool) {
	if r.enc == nil {
		if !r.Next() {
			return dst, false
		}
		dst, r.cur = types.EncodeTuple(dst, r.cur), nil
		return dst, true
	}
	if r.closed || r.err != nil {
		return dst, false
	}
	out, ok, err := r.enc.NextEncoded(dst)
	if err != nil || !ok {
		r.err = err
		r.close()
		return dst, false
	}
	r.cur = nil
	r.stmt.session.db.prep.rowsStreamed.Add(1)
	return out, true
}

// Row returns the current row (valid until the next call to Next).
func (r *Rows) Row() types.Tuple { return r.cur }

// Scan copies the current row into the destinations: *types.Value takes the
// value as is; *int64, *int, *float64, *string and *bool convert, with SQL
// NULL becoming each type's zero value.
func (r *Rows) Scan(dests ...any) error {
	if r.cur == nil {
		return fmt.Errorf("engine: Scan called before Next (or after the rows were exhausted)")
	}
	if len(dests) != len(r.cur) {
		return fmt.Errorf("engine: Scan got %d destinations for %d columns", len(dests), len(r.cur))
	}
	for i, dest := range dests {
		if err := assignValue(r.cur[i], dest); err != nil {
			return fmt.Errorf("engine: Scan column %d (%s): %w", i+1, r.columnName(i), err)
		}
	}
	return nil
}

func (r *Rows) columnName(i int) string {
	if i < len(r.columns) {
		return r.columns[i]
	}
	return "?"
}

func assignValue(v types.Value, dest any) error {
	switch d := dest.(type) {
	case *types.Value:
		*d = v
	case *int64:
		if v.IsNull() {
			*d = 0
			return nil
		}
		cast, err := v.Cast(types.KindInt)
		if err != nil {
			return err
		}
		*d = cast.Int()
	case *int:
		if v.IsNull() {
			*d = 0
			return nil
		}
		cast, err := v.Cast(types.KindInt)
		if err != nil {
			return err
		}
		*d = int(cast.Int())
	case *float64:
		if v.IsNull() {
			*d = 0
			return nil
		}
		cast, err := v.Cast(types.KindFloat)
		if err != nil {
			return err
		}
		*d = cast.Float()
	case *string:
		if v.IsNull() {
			*d = ""
			return nil
		}
		*d = v.String()
	case *bool:
		if v.IsNull() {
			*d = false
			return nil
		}
		cast, err := v.Cast(types.KindBool)
		if err != nil {
			return err
		}
		*d = cast.Bool()
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

// Err returns the error that stopped iteration, if any.
func (r *Rows) Err() error { return r.err }

// bufferedOp serves pre-materialised rows — a RETURNING clause's output —
// through the ordinary operator interface, so a write's cursor behaves exactly
// like a SELECT's.
type bufferedOp struct {
	schema *types.Schema
	rows   []types.Tuple
	pos    int
}

func (o *bufferedOp) Schema() *types.Schema { return o.schema }
func (o *bufferedOp) Open() error           { o.pos = 0; return nil }
func (o *bufferedOp) Close() error          { return nil }

func (o *bufferedOp) Next() (types.Tuple, bool, error) {
	if o.pos >= len(o.rows) {
		return nil, false, nil
	}
	row := o.rows[o.pos]
	o.pos++
	return row, true, nil
}

// Close releases the cursor: the operator tree shuts down, any cursor-held
// read locks release, and the statement becomes runnable again. Closing an
// already-closed cursor is a no-op.
func (r *Rows) Close() error {
	r.close()
	return nil
}

func (r *Rows) close() {
	if r.closed {
		return
	}
	r.closed = true
	r.cur = nil
	if err := r.op.Close(); err != nil && r.err == nil {
		r.err = err
	}
	if r.release != nil {
		r.release()
	}
	r.stmt.busy = false
	delete(r.stmt.session.openRows, r)
	r.stmt.session.db.prep.cursorsClosed.Add(1)
}
