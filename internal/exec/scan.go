package exec

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
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
// A range scan streams: it pulls one leaf of record ids at a time from a
// btree.Cursor, in either direction, so a caller that closes after a page
// has paid for a page. Between batches writers may add or remove index
// entries; that is safe because every version the snapshot can see was
// indexed before the snapshot was taken and cannot be reclaimed while it is
// held, so it is in the index for the whole scan and the cursor returns it
// exactly once — anything a writer adds meanwhile is invisible to the
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
	// Index scan state: the fetched record ids not yet returned, in order,
	// and for a range scan the cursor that refills them.
	rids   []storage.RecordID
	pos    int
	cursor *btree.Cursor
}

func newScanOperator(n *plan.ScanNode, params *expr.Params, rt *Runtime) (*scanOperator, error) {
	op := &scanOperator{node: n, params: params, rt: rt}
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
	o.cursor = nil
	switch o.node.Access {
	case plan.AccessSeqScan:
		o.iter = o.node.Table.VersionIterator()
	case plan.AccessIndexEq, plan.AccessIndexRange:
		r, empty, err := o.interval()
		if err != nil || empty {
			return err
		}
		if o.node.Access == plan.AccessIndexEq {
			o.rids = o.node.Index.Tree.Search(r.Low)
		} else {
			o.cursor = o.node.Index.Tree.Cursor(r)
		}
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
	return o.node.Table.Schema().CoerceToColumn(v, o.node.Index.Columns[0]), nil
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
	key := types.EncodeKey(nil, v)
	return btree.Range{Low: key, High: key}, false, nil
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

// refill replaces the exhausted record-id batch with the range cursor's next
// one; false means the scan is over.
func (o *scanOperator) refill() bool {
	if o.cursor == nil {
		return false
	}
	o.rids, o.pos = o.rids[:0], 0
	for _, e := range o.cursor.Next() {
		o.rids = append(o.rids, e.Records...)
	}
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

// nextRow yields the next visible matching row together with its record id
// (the write operators pull target rids through it; Next discards them).
func (o *scanOperator) nextRow() (storage.RecordID, types.Tuple, bool, error) {
	for {
		var rid storage.RecordID
		var tuple types.Tuple
		if o.iter != nil {
			r, meta, payload, ok, err := o.iter.Next()
			if err != nil {
				return storage.RecordID{}, nil, false, err
			}
			if !ok {
				return storage.RecordID{}, nil, false, nil
			}
			if !o.rt.visible(meta) {
				continue // never decoded
			}
			t, err := types.DecodeTuple(payload)
			if err != nil {
				return storage.RecordID{}, nil, false, fmt.Errorf("exec: decoding row %v of %s: %w", r, o.node.Table.Name(), err)
			}
			rid, tuple = r, t
		} else {
			if o.pos >= len(o.rids) && !o.refill() {
				return storage.RecordID{}, nil, false, nil
			}
			rid = o.rids[o.pos]
			o.pos++
			meta, payload, err := o.node.Table.GetVersion(rid)
			if err != nil {
				// A version an aborting transaction removed (or a sweep
				// reclaimed) after the index read: skip it.
				if errors.Is(err, storage.ErrRecordNotFound) {
					continue
				}
				return storage.RecordID{}, nil, false, fmt.Errorf("exec: fetching row %v of %s: %w", rid, o.node.Table.Name(), err)
			}
			if !o.rt.visible(meta) {
				continue // never decoded
			}
			if tuple, err = types.DecodeTuple(payload); err != nil {
				return storage.RecordID{}, nil, false, fmt.Errorf("exec: decoding row %v of %s: %w", rid, o.node.Table.Name(), err)
			}
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

// projectOperator computes the SELECT list.
type projectOperator struct {
	input  Operator
	exprs  []*expr.Compiled
	schema *types.Schema
}

func newProjectOperator(n *plan.ProjectNode, params *expr.Params, rt *Runtime) (*projectOperator, error) {
	input, err := BuildWithRuntime(n.Input, params, rt)
	if err != nil {
		return nil, err
	}
	op := &projectOperator{input: input, schema: n.Schema()}
	for _, item := range n.Items {
		c, err := expr.CompileWithParams(item.Expr, input.Schema(), params)
		if err != nil {
			return nil, fmt.Errorf("exec: projection %s: %w", item.Name, err)
		}
		op.exprs = append(op.exprs, c)
	}
	return op, nil
}

func (o *projectOperator) Schema() *types.Schema { return o.schema }
func (o *projectOperator) Open() error           { return o.input.Open() }
func (o *projectOperator) Close() error          { return o.input.Close() }

func (o *projectOperator) Next() (types.Tuple, bool, error) {
	tuple, ok, err := o.input.Next()
	if err != nil || !ok {
		return nil, false, err
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
