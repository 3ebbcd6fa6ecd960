// Write operators: the execution half of planned DML. BuildWrite compiles an
// Insert/Update/Delete plan node into a reusable operator — expressions are
// compiled once against the bind frame, so a prepared write rebinds and runs
// again without touching the planner — and Run applies the write inside a
// transaction supplied by the caller.
package exec

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// WriteOperator executes one DML plan. Like the read operator tree it is
// reusable: rebind the frame it was built with and Run it again.
type WriteOperator interface {
	// Returning describes the rows Run streams back for the statement's
	// RETURNING clause — nil when the statement has none (the common case),
	// in which case Run's row slice is always nil.
	Returning() *types.Schema
	// Run applies the write inside t and returns the affected row count plus
	// the RETURNING projection of every affected row (nil without the
	// clause). The target scan reads through t's snapshot
	// (first-updater-wins: a visible version another transaction superseded
	// in the meantime fails the write with txn.ErrWriteConflict when t tries
	// to claim it).
	Run(t *txn.Txn) (int, []types.Tuple, error)
}

// BuildWrite compiles a DML plan node into a write operator reading
// parameters from the given bind frame.
func BuildWrite(node plan.Node, params *expr.Params) (WriteOperator, error) {
	switch n := node.(type) {
	case *plan.InsertNode:
		return newInsertOperator(n, params)
	case *plan.UpdateNode:
		return newUpdateOperator(n, params)
	case *plan.DeleteNode:
		return newDeleteOperator(n, params)
	default:
		return nil, fmt.Errorf("exec: %T is not a DML plan node", node)
	}
}

// compileCheck compiles the CHECK OPTION of the view a write goes through —
// the view's predicate over the base table's rows — once, for checkRow to
// evaluate per written row. It is nil for a base table or a view without a
// predicate, and nil accepts every row.
func compileCheck(updatable *plan.Updatable, schema *types.Schema) (*expr.Compiled, error) {
	if updatable == nil || updatable.Where == nil {
		return nil, nil
	}
	check, err := expr.Compile(updatable.Where, schema)
	if err != nil {
		return nil, fmt.Errorf("view: check option for %q: %w", updatable.ViewName, err)
	}
	return check, nil
}

// checkRow refuses a row the compiled check of the updatable view does not
// admit.
func checkRow(check *expr.Compiled, updatable *plan.Updatable, row types.Tuple) error {
	if check == nil {
		return nil
	}
	ok, err := check.EvalBool(row)
	if err != nil {
		return fmt.Errorf("view: check option for %q: %w", updatable.ViewName, err)
	}
	if !ok {
		return fmt.Errorf("view: row violates the predicate of view %q and would not be visible through it", updatable.ViewName)
	}
	return nil
}

// --- RETURNING ---------------------------------------------------------------

// returningEval is a compiled RETURNING clause: projection expressions
// evaluated against one affected row (the inserted tuple, the post-update
// image, or the deleted row's last visible version).
type returningEval struct {
	schema *types.Schema
	exprs  []*expr.Compiled
}

// compileReturning compiles the planned clause against the base table's row
// schema (qualified by the same lowercased-table alias the planner resolved
// names under). Nil plan yields a nil eval, which projects nothing.
func compileReturning(r *plan.Returning, table *catalog.Table, params *expr.Params) (*returningEval, error) {
	if r == nil {
		return nil, nil
	}
	rowSchema := table.Schema().WithTable(strings.ToLower(table.Name()))
	out := &returningEval{schema: r.Schema, exprs: make([]*expr.Compiled, len(r.Exprs))}
	for i, e := range r.Exprs {
		c, err := expr.CompileWithParams(e, rowSchema, params)
		if err != nil {
			return nil, fmt.Errorf("exec: RETURNING %s: %w", r.Names[i], err)
		}
		out.exprs[i] = c
	}
	return out, nil
}

// outSchema reports the projected row shape (nil receiver → nil schema).
func (r *returningEval) outSchema() *types.Schema {
	if r == nil {
		return nil
	}
	return r.schema
}

// project appends the clause's projection of row to rows. A nil receiver
// passes rows through untouched, so callers need not branch on the clause's
// presence.
func (r *returningEval) project(rows []types.Tuple, row types.Tuple) ([]types.Tuple, error) {
	if r == nil {
		return rows, nil
	}
	out := make(types.Tuple, len(r.exprs))
	for i, c := range r.exprs {
		v, err := c.Eval(row)
		if err != nil {
			return rows, err
		}
		out[i] = v
	}
	return append(rows, out), nil
}

// --- INSERT ------------------------------------------------------------------

// insertOperator evaluates each planned row into a full-width tuple and
// inserts it. For INSERT ... SELECT the rows come from a child query operator
// instead of compiled VALUES expressions.
type insertOperator struct {
	node *plan.InsertNode
	// defaults is the tuple template: column defaults where declared, NULL
	// elsewhere. It is copied into row for every inserted row: the insert
	// encodes the row and keeps no reference to it, so one buffer serves
	// every row of every Run.
	defaults types.Tuple
	row      types.Tuple
	// rows holds the compiled value expressions, parallel to node.Rows
	// (empty for the SELECT form).
	rows [][]*expr.Compiled
	// sel is the child query feeding the insert (nil for the VALUES form).
	// selRt is its runtime, pointed at the write transaction's snapshot per
	// Run.
	sel   Operator
	selRt *Runtime
	check *expr.Compiled
	ret   *returningEval
}

func newInsertOperator(n *plan.InsertNode, params *expr.Params) (*insertOperator, error) {
	schema := n.Table.Schema()
	op := &insertOperator{node: n, defaults: make(types.Tuple, schema.Len())}
	for i, col := range schema.Columns {
		if col.Default != nil {
			op.defaults[i] = *col.Default
		} else {
			op.defaults[i] = types.Null()
		}
	}
	if n.Select != nil {
		op.selRt = NewRuntime()
		sel, err := BuildWithRuntime(n.Select, params, op.selRt)
		if err != nil {
			return nil, fmt.Errorf("exec: INSERT ... SELECT: %w", err)
		}
		op.sel = sel
	}
	// Value expressions are row-free: compiling against an empty schema makes
	// any column reference a prepare-time error.
	empty := types.NewSchema()
	for _, row := range n.Rows {
		compiled := make([]*expr.Compiled, len(row))
		for i, e := range row {
			c, err := expr.CompileWithParams(e, empty, params)
			if err != nil {
				return nil, fmt.Errorf("exec: INSERT value: %w", err)
			}
			compiled[i] = c
		}
		op.rows = append(op.rows, compiled)
	}
	check, err := compileCheck(n.Check, schema)
	if err != nil {
		return nil, err
	}
	op.check = check
	if op.ret, err = compileReturning(n.Returning, n.Table, params); err != nil {
		return nil, err
	}
	return op, nil
}

func (o *insertOperator) Returning() *types.Schema { return o.ret.outSchema() }

// selectRows drains the child SELECT through t's snapshot. It is drained
// completely before any insert happens, so the feeding query never observes
// the rows it is inserting (same discipline as collectTargets).
func (o *insertOperator) selectRows(t *txn.Txn) ([]types.Tuple, error) {
	o.selRt.SetSnapshot(t.Snapshot())
	if err := o.sel.Open(); err != nil {
		return nil, err
	}
	var out []types.Tuple
	for {
		row, ok, err := o.sel.Next()
		if err != nil {
			return nil, errors.Join(err, o.sel.Close())
		}
		if !ok {
			break
		}
		out = append(out, row.Clone())
	}
	if err := o.sel.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// place stores v, the i-th value of a source row, in the column it fills,
// coerced best-effort toward that column's declared kind by position:
// SELECT-fed values carry whatever kind the query produced (exact
// mismatches surface through constraint checks, as with binds).
func (o *insertOperator) place(tuple types.Tuple, i int, v types.Value) {
	pos := i
	if o.node.ColumnPos != nil {
		pos = o.node.ColumnPos[i]
	}
	tuple[pos] = o.node.Table.Schema().CoerceToColumn(v, pos)
}

// Run inserts every source row: each VALUES row evaluated straight into a
// copy of the defaults, or each row of the drained SELECT.
func (o *insertOperator) Run(t *txn.Txn) (affected int, returned []types.Tuple, err error) {
	var selected []types.Tuple
	n := len(o.rows)
	if o.sel != nil {
		if selected, err = o.selectRows(t); err != nil {
			return 0, nil, err
		}
		n = len(selected)
	}
	for r := 0; r < n; r++ {
		o.row = append(o.row[:0], o.defaults...)
		tuple := o.row
		if o.sel != nil {
			for i, v := range selected[r] {
				o.place(tuple, i, v)
			}
		} else {
			for i, c := range o.rows[r] {
				v, err := c.Eval(nil)
				if err != nil {
					return affected, returned, err
				}
				o.place(tuple, i, v)
			}
		}
		if err := checkRow(o.check, o.node.Check, tuple); err != nil {
			return affected, returned, err
		}
		if _, err := t.Insert(o.node.Table, tuple); err != nil {
			return affected, returned, err
		}
		if returned, err = o.ret.project(returned, tuple); err != nil {
			return affected, returned, err
		}
		affected++
	}
	return affected, returned, nil
}

// --- UPDATE / DELETE ---------------------------------------------------------

// target is one row a write will touch, captured before mutation starts so
// the scan never observes its own writes.
type target struct {
	rid   storage.RecordID
	tuple types.Tuple
}

// collectTargets points the write's runtime at t's snapshot and drains the
// child scan into the target list: the write touches exactly the rows its
// transaction can see, and never observes its own writes. No table lock is
// taken — each target is claimed row-by-row when the mutation runs.
// withTuples retains each row's decoded tuple (updates evaluate assignments
// against the pre-update image); deletes pass false so a wide DELETE buffers
// only record ids, not the whole affected row set.
func collectTargets(t *txn.Txn, scan *scanOperator, withTuples bool) (out []target, err error) {
	scan.rt.SetSnapshot(t.Snapshot())
	if err := scan.Open(); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := scan.Close(); cerr != nil && err == nil {
			out, err = nil, cerr
		}
	}()
	for {
		rid, tuple, ok, err := scan.nextRow()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		if !withTuples {
			tuple = nil
		}
		out = append(out, target{rid: rid, tuple: tuple})
	}
}

// updateOperator rewrites the rows its child scan yields.
type updateOperator struct {
	node *plan.UpdateNode
	scan *scanOperator
	// sets pairs each assignment's schema position with its compiled value
	// expression (evaluated against the pre-update row).
	sets []struct {
		pos   int
		value *expr.Compiled
	}
	check *expr.Compiled
	ret   *returningEval
}

func newUpdateOperator(n *plan.UpdateNode, params *expr.Params) (*updateOperator, error) {
	scanNode, ok := n.Input.(*plan.ScanNode)
	if !ok {
		return nil, fmt.Errorf("exec: UPDATE expects a scan child, got %T", n.Input)
	}
	scan, err := newScanOperator(scanNode, params, NewRuntime())
	if err != nil {
		return nil, err
	}
	op := &updateOperator{node: n, scan: scan}
	for _, s := range n.Sets {
		c, err := expr.CompileWithParams(s.Expr, scan.Schema(), params)
		if err != nil {
			return nil, fmt.Errorf("exec: SET %s: %w", s.Column, err)
		}
		op.sets = append(op.sets, struct {
			pos   int
			value *expr.Compiled
		}{pos: s.Pos, value: c})
	}
	check, err := compileCheck(n.Check, n.Table.Schema())
	if err != nil {
		return nil, err
	}
	op.check = check
	if op.ret, err = compileReturning(n.Returning, n.Table, params); err != nil {
		return nil, err
	}
	return op, nil
}

func (o *updateOperator) Returning() *types.Schema { return o.ret.outSchema() }

func (o *updateOperator) Run(t *txn.Txn) (affected int, returned []types.Tuple, err error) {
	targets, err := collectTargets(t, o.scan, true)
	if err != nil {
		return 0, nil, err
	}
	for _, target := range targets {
		next := target.tuple.Clone()
		for _, s := range o.sets {
			v, err := s.value.Eval(target.tuple)
			if err != nil {
				return affected, returned, err
			}
			next[s.pos] = v
		}
		if err := checkRow(o.check, o.node.Check, next); err != nil {
			return affected, returned, err
		}
		if _, err := t.Update(o.node.Table, target.rid, next); err != nil {
			return affected, returned, err
		}
		// RETURNING sees the post-update image.
		if returned, err = o.ret.project(returned, next); err != nil {
			return affected, returned, err
		}
		affected++
	}
	return affected, returned, nil
}

// deleteOperator removes the rows its child scan yields.
type deleteOperator struct {
	node *plan.DeleteNode
	scan *scanOperator
	ret  *returningEval
}

func newDeleteOperator(n *plan.DeleteNode, params *expr.Params) (*deleteOperator, error) {
	scanNode, ok := n.Input.(*plan.ScanNode)
	if !ok {
		return nil, fmt.Errorf("exec: DELETE expects a scan child, got %T", n.Input)
	}
	scan, err := newScanOperator(scanNode, params, NewRuntime())
	if err != nil {
		return nil, err
	}
	op := &deleteOperator{node: n, scan: scan}
	if op.ret, err = compileReturning(n.Returning, n.Table, params); err != nil {
		return nil, err
	}
	return op, nil
}

func (o *deleteOperator) Returning() *types.Schema { return o.ret.outSchema() }

func (o *deleteOperator) Run(t *txn.Txn) (affected int, returned []types.Tuple, err error) {
	// RETURNING projects each deleted row's last visible version, so the
	// scan must retain tuples; without the clause only record ids are kept.
	targets, err := collectTargets(t, o.scan, o.ret != nil)
	if err != nil {
		return 0, nil, err
	}
	for _, target := range targets {
		if err := t.Delete(o.node.Table, target.rid); err != nil {
			return affected, returned, err
		}
		if returned, err = o.ret.project(returned, target.tuple); err != nil {
			return affected, returned, err
		}
		affected++
	}
	return affected, returned, nil
}
