package exec

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// scanOperator reads a base table sequentially or through an index,
// filtering row versions through the runtime's snapshot and applying the
// residual filter. Indexes hold an entry per version, so both paths decide
// visibility per record id at fetch time; a record id that no longer
// resolves is a version some aborting transaction physically removed after
// the index was read, and is skipped.
//
// An index scan, equality or range, streams: it pulls one leaf of record ids
// at a time from a btree.Cursor over its key interval ([k, k] for an
// equality), in either direction, into one ids buffer that lives as long as
// the operator, so a caller that closes after a page has paid for a page and
// a prepared statement's next execution allocates no batch. Between batches
// writers may add or remove index entries; that is safe because every
// version the snapshot can see was indexed before the snapshot was taken and
// cannot be reclaimed while it is held, so it is in the index for the whole
// scan and the cursor returns it exactly once — anything a writer adds meanwhile is invisible to the
// snapshot whether or not the cursor meets it. The one reader that does see
// concurrent additions is a write statement scanning its own transaction's
// rows, which is why collectTargets drains the scan before the first write.
type scanOperator struct {
	node   *plan.ScanNode
	filter *expr.Compiled
	params *expr.Params
	rt     *Runtime

	// Sequential scan state.
	iter *catalog.TableVersionIterator
	// Index scan state: the current batch of record ids and the position of
	// the next one to fetch, and the cursor that refills the batch.
	rids   []storage.RecordID
	pos    int
	cursor btree.Cursor
	// keyCol is the schema position of the index's leading column, and
	// eqKey the buffer an equality's key is encoded into.
	keyCol int
	eqKey  []byte
}

func newScanOperator(n *plan.ScanNode, params *expr.Params, rt *Runtime) (*scanOperator, error) {
	op := &scanOperator{node: n, params: params, rt: rt}
	if n.Index != nil {
		pos, err := n.Table.Schema().ColumnIndex(n.Index.Columns[0])
		if err != nil {
			return nil, fmt.Errorf("exec: index key: %w", err)
		}
		op.keyCol = pos
	}
	if n.Filter != nil {
		compiled, err := expr.CompileWithParams(n.Filter, n.Schema(), params)
		if err != nil {
			return nil, fmt.Errorf("exec: scan filter: %w", err)
		}
		op.filter = compiled
	}
	return op, nil
}

func (o *scanOperator) Schema() *types.Schema { return o.node.Schema() }

func (o *scanOperator) Open() error {
	o.pos = 0
	o.rids = o.rids[:0]
	o.iter = nil
	o.cursor = btree.Cursor{}
	switch o.node.Access {
	case plan.AccessSeqScan:
		o.iter = o.node.Table.VersionIterator()
		o.iter.Reuse()
	case plan.AccessIndexEq, plan.AccessIndexRange:
		r, empty, err := o.interval()
		if err != nil || empty {
			return err
		}
		o.cursor = o.node.Index.Tree.Cursor(r)
	default:
		return fmt.Errorf("exec: unknown access kind %v", o.node.Access)
	}
	return nil
}

// resolveKey turns an index-key operand into its concrete value: the literal
// as planned, or the bound parameter's current value coerced toward the index
// column's kind so key encoding matches the stored entries.
func (o *scanOperator) resolveKey(v types.Value, param int) (types.Value, error) {
	if param >= 0 {
		bound, err := o.params.Value(param)
		if err != nil {
			return types.Null(), fmt.Errorf("exec: index key: %w", err)
		}
		v = bound
	}
	return o.node.Table.Schema().CoerceToColumn(v, o.keyCol), nil
}

// interval resolves an index scan's key interval now that parameters have
// values: the key itself for an equality, keyRange's interval for a range.
// empty reports a NULL operand. SQL comparison with NULL is never true, and
// the planner already consumed the conjunct, so that scan yields nothing
// (EncodeKey(NULL) would instead read real entries).
func (o *scanOperator) interval() (r btree.Range, empty bool, err error) {
	if o.node.Access != plan.AccessIndexEq {
		return o.keyRange()
	}
	v, err := o.resolveKey(o.node.EqValue, o.node.EqParam)
	if err != nil || v.IsNull() {
		return r, true, err
	}
	o.eqKey = types.EncodeKey(o.eqKey[:0], v)
	return btree.Range{Low: o.eqKey, High: o.eqKey}, false, nil
}

// keyRange converts the plan's bounds and direction into the cursor's key
// interval, keeping the strictest bound of each side now that parameters have
// values. nullBound reports that a bound resolved to NULL, which no row can
// satisfy.
func (o *scanOperator) keyRange() (r btree.Range, nullBound bool, err error) {
	r.Reverse = o.node.Reverse
	for _, b := range o.node.Low {
		key, err := o.boundKey(b)
		if err != nil || key == nil {
			return r, true, err
		}
		if cmp := bytes.Compare(key, r.Low); r.Low == nil || cmp > 0 || (cmp == 0 && !b.Inclusive) {
			r.Low, r.LowOpen = key, !b.Inclusive
		}
	}
	for _, b := range o.node.High {
		key, err := o.boundKey(b)
		if err != nil || key == nil {
			return r, true, err
		}
		if cmp := bytes.Compare(key, r.High); r.High == nil || cmp < 0 || (cmp == 0 && !b.Inclusive) {
			r.High, r.HighOpen = key, !b.Inclusive
		}
	}
	if r.Low == nil && r.High != nil {
		// NULL keys sort first, and "k < v" is never true of a NULL k: a scan
		// bounded only from above starts past them.
		r.Low, r.LowOpen = types.EncodeKey(nil, types.Null()), true
	}
	return r, false, nil
}

// boundKey resolves one range bound to its encoded key, or nil when the bound
// is NULL.
func (o *scanOperator) boundKey(b *plan.Bound) ([]byte, error) {
	v, err := o.resolveKey(b.Value, b.Param)
	if err != nil || v.IsNull() {
		return nil, err
	}
	return types.EncodeKey(nil, v), nil
}

// refill replaces the exhausted record-id batch with the cursor's next one,
// in the same buffer; false means the scan is over.
func (o *scanOperator) refill() bool {
	o.rids, o.pos = o.cursor.Next(o.rids[:0]), 0
	return len(o.rids) > 0
}

func (o *scanOperator) Close() error { return nil }

// countVisible returns how many rows the scan would yield without reading
// one: Table.CountVisible takes the physical count of the scan's key interval
// (or of the whole heap for a sequential scan) and corrects it by the
// unsettled versions the runtime's snapshot cannot see. The scan must have no
// residual filter, which needs the row.
func (o *scanOperator) countVisible() (int64, error) {
	if o.node.Access == plan.AccessSeqScan {
		return int64(o.node.Table.CountVisible(nil, btree.Range{}, o.rt.visible)), nil
	}
	r, empty, err := o.interval()
	if err != nil || empty {
		return 0, err
	}
	return int64(o.node.Table.CountVisible(o.node.Index, r, o.rt.visible)), nil
}

func (o *scanOperator) Next() (types.Tuple, bool, error) {
	_, tuple, ok, err := o.nextRow()
	return tuple, ok, err
}

// NextEncoded appends the next visible version's stored payload to dst,
// undecoded: the types.EncodeTuple bytes of the row Next would return. It
// applies no residual filter, so AsEncoded offers it only for a scan
// without one.
func (o *scanOperator) NextEncoded(dst []byte) ([]byte, bool, error) {
	ok, err := o.nextVisible(func(_ storage.RecordID, payload []byte) error {
		dst = append(dst, payload...)
		return nil
	})
	return dst, ok, err
}

// fold hands every visible row that passes the residual filter to add, as
// one tuple reused for every row and decoded only at the columns want marks
// (the others read as NULL): the aggregate's input path, which builds no
// row. add must not retain the tuple.
func (o *scanOperator) fold(want []bool, add func(types.Tuple) error) error {
	var row types.Tuple
	use := func(rid storage.RecordID, payload []byte) (err error) {
		if row, err = types.DecodeColumns(row, payload, want); err != nil {
			return fmt.Errorf("exec: decoding row %v of %s: %w", rid, o.node.Table.Name(), err)
		}
		if o.filter != nil {
			if pass, err := o.filter.EvalBool(row); err != nil || !pass {
				return err
			}
		}
		return add(row)
	}
	for {
		if ok, err := o.nextVisible(use); err != nil || !ok {
			return err
		}
	}
}

// nextRow yields the next visible matching row together with its record id
// (the write operators pull target rids through it; Next discards them).
func (o *scanOperator) nextRow() (storage.RecordID, types.Tuple, bool, error) {
	for {
		var rid storage.RecordID
		var tuple types.Tuple
		ok, err := o.nextVisible(func(r storage.RecordID, payload []byte) (err error) {
			rid = r
			if tuple, err = types.DecodeTuple(payload); err != nil {
				return fmt.Errorf("exec: decoding row %v of %s: %w", r, o.node.Table.Name(), err)
			}
			return nil
		})
		if err != nil || !ok {
			return storage.RecordID{}, nil, false, err
		}
		if o.filter != nil {
			ok, err := o.filter.EvalBool(tuple)
			if err != nil {
				return storage.RecordID{}, nil, false, err
			}
			if !ok {
				continue
			}
		}
		return rid, tuple, true, nil
	}
}

// nextVisible finds the next version the runtime's snapshot sees and hands
// its record id and stored payload to use, which decodes or copies it: the
// scan's one loop, which Next, NextEncoded and fold consume. Headers are judged
// before anything is decoded, so a version the snapshot cannot see costs no
// decode. An index scan reads each version in place (Table.ViewVersion):
// payload aliases the pool frame and is valid only inside use, which must
// not call back into the table. A sequential scan's payload is in its
// iterator's one page copy (TableVersionIterator.Reuse), valid until the
// scan reads the next page; no consumer keeps it past use. A record id that
// no longer resolves is a version some aborting transaction removed (or a
// sweep reclaimed) after the index read, and is skipped. use's error is
// returned as it is.
func (o *scanOperator) nextVisible(use func(rid storage.RecordID, payload []byte) error) (bool, error) {
	for {
		if o.iter != nil {
			rid, meta, payload, ok, err := o.iter.Next()
			if err != nil || !ok {
				return false, err
			}
			if !o.rt.visible(meta) {
				continue
			}
			err = use(rid, payload)
			return err == nil, err
		}
		if o.pos >= len(o.rids) && !o.refill() {
			return false, nil
		}
		rid := o.rids[o.pos]
		o.pos++
		seen := false
		err := o.node.Table.ViewVersion(rid, func(meta storage.VersionMeta, payload []byte) error {
			if !o.rt.visible(meta) {
				return nil
			}
			seen = true
			return use(rid, payload)
		})
		switch {
		case seen:
			return err == nil, err
		case errors.Is(err, storage.ErrRecordNotFound):
			continue
		case err != nil:
			return false, fmt.Errorf("exec: fetching row %v of %s: %w", rid, o.node.Table.Name(), err)
		}
	}
}

// filterOperator applies a predicate above an arbitrary input.
type filterOperator struct {
	input Operator
	cond  *expr.Compiled
}

func newFilterOperator(n *plan.FilterNode, params *expr.Params, rt *Runtime) (*filterOperator, error) {
	input, err := BuildWithRuntime(n.Input, params, rt)
	if err != nil {
		return nil, err
	}
	cond, err := expr.CompileWithParams(n.Cond, input.Schema(), params)
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	return &filterOperator{input: input, cond: cond}, nil
}

func (o *filterOperator) Schema() *types.Schema { return o.input.Schema() }
func (o *filterOperator) Open() error           { return o.input.Open() }
func (o *filterOperator) Close() error          { return o.input.Close() }

func (o *filterOperator) Next() (types.Tuple, bool, error) {
	for {
		tuple, ok, err := o.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := o.cond.EvalBool(tuple)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return tuple, true, nil
		}
	}
}

// projectOperator computes the SELECT list. A list that names every input
// column in order, each under its own name, is the identity: its rows are
// its input's, passed on unchanged.
type projectOperator struct {
	input    Operator
	exprs    []*expr.Compiled
	schema   *types.Schema
	identity bool
	// encoded is the input's encoded path when it offers one (AsEncoded).
	encoded EncodedOperator
}

func newProjectOperator(n *plan.ProjectNode, params *expr.Params, rt *Runtime) (*projectOperator, error) {
	input, err := BuildWithRuntime(n.Input, params, rt)
	if err != nil {
		return nil, err
	}
	in := input.Schema()
	op := &projectOperator{input: input, schema: n.Schema(), identity: len(n.Items) == len(in.Columns), encoded: AsEncoded(input)}
	for i, item := range n.Items {
		c, err := expr.CompileWithParams(item.Expr, in, params)
		if err != nil {
			return nil, fmt.Errorf("exec: projection %s: %w", item.Name, err)
		}
		op.exprs = append(op.exprs, c)
		if ref, ok := item.Expr.(*sql.ColumnRef); !ok || i >= len(in.Columns) || item.Name != in.Columns[i].Name {
			op.identity = false
		} else if pos, err := in.ColumnIndex(ref.RefName()); err != nil || pos != i {
			op.identity = false
		}
	}
	return op, nil
}

func (o *projectOperator) Schema() *types.Schema { return o.schema }
func (o *projectOperator) Open() error           { return o.input.Open() }
func (o *projectOperator) Close() error          { return o.input.Close() }

func (o *projectOperator) Next() (types.Tuple, bool, error) {
	tuple, ok, err := o.input.Next()
	if err != nil || !ok || o.identity {
		return tuple, ok, err
	}
	out := make(types.Tuple, len(o.exprs))
	for i, e := range o.exprs {
		v, err := e.Eval(tuple)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// NextEncoded passes on the input's encoded row; AsEncoded offers it only
// for the identity over an input that has an encoded path.
func (o *projectOperator) NextEncoded(dst []byte) ([]byte, bool, error) {
	return o.encoded.NextEncoded(dst)
}
