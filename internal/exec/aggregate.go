package exec

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// aggregateOperator implements hash aggregation: it drains its input,
// partitions rows by the group-by key and folds each group through the
// aggregate functions. A global aggregate (no GROUP BY) has one group and
// looks nothing up per row.
//
// When its input is a base table scan the aggregate does not pull rows: it
// folds each visible version inside the scan's loop (scanOperator.fold),
// decoding into one reused tuple only the columns its GROUP BY, its
// arguments and the scan's residual filter name, so a row it folds costs no
// allocation unless a named value is TEXT.
type aggregateOperator struct {
	node    *plan.AggregateNode
	input   Operator
	groupBy []*expr.Compiled
	args    []*expr.Compiled // nil entry for COUNT(*)
	schema  *types.Schema

	// want marks the columns the fold decodes when input is a base table
	// scan.
	want []bool

	groups []types.Tuple
	pos    int
}

func newAggregateOperator(n *plan.AggregateNode, params *expr.Params, rt *Runtime) (*aggregateOperator, error) {
	input, err := BuildWithRuntime(n.Input, params, rt)
	if err != nil {
		return nil, err
	}
	op := &aggregateOperator{node: n, input: input, schema: n.Schema()}
	named := []sql.Expr{}
	for _, g := range n.GroupBy {
		c, err := expr.CompileWithParams(g.Expr, input.Schema(), params)
		if err != nil {
			return nil, fmt.Errorf("exec: GROUP BY %s: %w", g.Name, err)
		}
		op.groupBy = append(op.groupBy, c)
		named = append(named, g.Expr)
	}
	for _, a := range n.Aggs {
		if a.Arg == nil {
			op.args = append(op.args, nil)
			continue
		}
		c, err := expr.CompileWithParams(a.Arg, input.Schema(), params)
		if err != nil {
			return nil, fmt.Errorf("exec: aggregate %s: %w", a.Name, err)
		}
		op.args = append(op.args, c)
		named = append(named, a.Arg)
	}
	if scan, ok := input.(*scanOperator); ok {
		op.want = make([]bool, len(scan.Schema().Columns))
		for _, e := range append(named, scan.node.Filter) {
			for _, ref := range sql.ColumnsIn(e) {
				i, err := scan.Schema().ColumnIndex(ref.RefName())
				if err != nil {
					return nil, fmt.Errorf("exec: aggregate input %s: %w", ref, err)
				}
				op.want[i] = true
			}
		}
	}
	return op, nil
}

func (o *aggregateOperator) Schema() *types.Schema { return o.schema }
func (o *aggregateOperator) Close() error          { return o.input.Close() }

// aggState folds one aggregate over one group.
type aggState struct {
	fn      plan.AggFunc
	count   int64
	sum     float64
	sumInt  int64
	allInts bool
	min     types.Value
	max     types.Value
	seen    bool
}

func (s *aggState) add(v types.Value) error {
	if s.fn == plan.AggCountStar {
		s.count++
		return nil
	}
	if v.IsNull() {
		return nil // SQL aggregates ignore NULL inputs
	}
	s.count++
	switch s.fn {
	case plan.AggCount:
		// count of non-null values; nothing else to fold
	case plan.AggSum, plan.AggAvg:
		switch v.Kind() {
		case types.KindInt:
			s.sumInt += v.Int()
			s.sum += float64(v.Int())
		case types.KindFloat:
			s.allInts = false
			s.sum += v.Float()
		default:
			return fmt.Errorf("exec: cannot sum %s values", v.Kind())
		}
	case plan.AggMin, plan.AggMax:
		if !s.seen {
			s.min, s.max, s.seen = v, v, true
			return nil
		}
		cmpMin, err := v.Compare(s.min)
		if err != nil {
			return err
		}
		if cmpMin < 0 {
			s.min = v
		}
		cmpMax, err := v.Compare(s.max)
		if err != nil {
			return err
		}
		if cmpMax > 0 {
			s.max = v
		}
	}
	return nil
}

func (s *aggState) result() types.Value {
	switch s.fn {
	case plan.AggCount, plan.AggCountStar:
		return types.NewInt(s.count)
	case plan.AggSum:
		if s.count == 0 {
			return types.Null()
		}
		if s.allInts {
			return types.NewInt(s.sumInt)
		}
		return types.NewFloat(s.sum)
	case plan.AggAvg:
		if s.count == 0 {
			return types.Null()
		}
		return types.NewFloat(s.sum / float64(s.count))
	case plan.AggMin:
		if !s.seen {
			return types.Null()
		}
		return s.min
	case plan.AggMax:
		if !s.seen {
			return types.Null()
		}
		return s.max
	default:
		return types.Null()
	}
}

// countOnly returns the scan a global COUNT(*) can be answered from
// without reading a row (scanOperator.countVisible): the aggregate sits
// directly on a base table scan with no residual filter, has no GROUP BY, and
// computes nothing but COUNT(*).
func (o *aggregateOperator) countOnly() (*scanOperator, bool) {
	scan, ok := o.input.(*scanOperator)
	if !ok || scan.filter != nil || len(o.groupBy) > 0 {
		return nil, false
	}
	for _, a := range o.node.Aggs {
		if a.Func != plan.AggCountStar {
			return nil, false
		}
	}
	return scan, true
}

func (o *aggregateOperator) Open() error {
	o.groups = nil
	o.pos = 0
	if scan, ok := o.countOnly(); ok {
		n, err := scan.countVisible()
		if err != nil {
			return err
		}
		row := make(types.Tuple, len(o.node.Aggs))
		for i := range row {
			row[i] = types.NewInt(n)
		}
		o.groups = []types.Tuple{row}
		return nil
	}
	if err := o.input.Open(); err != nil {
		return err
	}
	// A group's row holds its key and has room for its results.
	type group struct {
		row    types.Tuple
		states []aggState
	}
	newGroup := func(key types.Tuple) *group {
		grp := &group{
			row:    append(make(types.Tuple, 0, len(key)+len(o.args)), key...),
			states: make([]aggState, len(o.args)),
		}
		for i, a := range o.node.Aggs {
			grp.states[i] = aggState{fn: a.Func, allInts: true}
		}
		return grp
	}
	// A global aggregate folds every row into its one group, which exists
	// before the first row: over an empty input it still produces its row
	// (COUNT(*) = 0, SUM = NULL, ...). Grouped rows are looked up by the
	// fingerprint of their key; one key tuple and one fingerprint buffer
	// serve every row, and a new group copies them, so a row of an existing
	// group allocates nothing.
	global := newGroup(nil)
	groups := map[string]*group{}
	var order []string
	key := make(types.Tuple, len(o.groupBy))
	var buf []byte
	add := func(row types.Tuple) error {
		grp := global
		if len(o.groupBy) > 0 {
			for i, g := range o.groupBy {
				v, err := g.Eval(row)
				if err != nil {
					return err
				}
				key[i] = v
			}
			buf = types.EncodeTuple(buf[:0], key)
			var ok bool
			if grp, ok = groups[string(buf)]; !ok {
				grp = newGroup(key)
				fingerprint := string(buf)
				groups[fingerprint] = grp
				order = append(order, fingerprint)
			}
		}
		for i, a := range o.args {
			var v types.Value
			if a != nil {
				val, err := a.Eval(row)
				if err != nil {
					return err
				}
				v = val
			}
			if err := grp.states[i].add(v); err != nil {
				return err
			}
		}
		return nil
	}
	if scan, ok := o.input.(*scanOperator); ok {
		if err := scan.fold(o.want, add); err != nil {
			return err
		}
	} else {
		for {
			row, ok, err := o.input.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := add(row); err != nil {
				return err
			}
		}
	}
	if len(o.groupBy) == 0 {
		groups[""], order = global, []string{""}
	}
	sort.Strings(order)
	o.groups = make([]types.Tuple, 0, len(order))
	for _, fingerprint := range order {
		grp := groups[fingerprint]
		for i := range grp.states {
			grp.row = append(grp.row, grp.states[i].result())
		}
		o.groups = append(o.groups, grp.row)
	}
	return nil
}

func (o *aggregateOperator) Next() (types.Tuple, bool, error) {
	if o.pos >= len(o.groups) {
		return nil, false, nil
	}
	row := o.groups[o.pos]
	o.pos++
	return row, true, nil
}

// sortOperator materialises its input and sorts it by the compiled keys.
type sortOperator struct {
	node  *plan.SortNode
	input Operator
	keys  []*expr.Compiled
	descs []bool

	rows []types.Tuple
	pos  int
}

func newSortOperator(n *plan.SortNode, params *expr.Params, rt *Runtime) (*sortOperator, error) {
	input, err := BuildWithRuntime(n.Input, params, rt)
	if err != nil {
		return nil, err
	}
	op := &sortOperator{node: n, input: input}
	for _, k := range n.Keys {
		c, err := expr.CompileWithParams(k.Expr, input.Schema(), params)
		if err != nil {
			return nil, fmt.Errorf("exec: ORDER BY %s: %w", k.Expr.String(), err)
		}
		op.keys = append(op.keys, c)
		op.descs = append(op.descs, k.Desc)
	}
	return op, nil
}

func (o *sortOperator) Schema() *types.Schema { return o.input.Schema() }
func (o *sortOperator) Close() error          { return o.input.Close() }

func (o *sortOperator) Open() error {
	o.rows = nil
	o.pos = 0
	if err := o.input.Open(); err != nil {
		return err
	}
	type keyedRow struct {
		row  types.Tuple
		keys types.Tuple
	}
	var rows []keyedRow
	for {
		row, ok, err := o.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		keys := make(types.Tuple, len(o.keys))
		for i, k := range o.keys {
			v, err := k.Eval(row)
			if err != nil {
				return err
			}
			keys[i] = v
		}
		rows = append(rows, keyedRow{row: row, keys: keys})
	}
	// The first pair of keys that cannot be compared fails the statement, as
	// it fails MIN and MAX: no order was decided for it.
	var cmpErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range o.keys {
			cmp, err := rows[i].keys[k].Compare(rows[j].keys[k])
			if err != nil && cmpErr == nil {
				cmpErr = err
			}
			if cmp == 0 || cmpErr != nil {
				continue
			}
			if o.descs[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	if cmpErr != nil {
		return cmpErr
	}
	o.rows = make([]types.Tuple, len(rows))
	for i, r := range rows {
		o.rows[i] = r.row
	}
	return nil
}

func (o *sortOperator) Next() (types.Tuple, bool, error) {
	if o.pos >= len(o.rows) {
		return nil, false, nil
	}
	row := o.rows[o.pos]
	o.pos++
	return row, true, nil
}

// Compile-time assertions that every operator satisfies Operator.
var (
	_ Operator = (*scanOperator)(nil)
	_ Operator = (*filterOperator)(nil)
	_ Operator = (*projectOperator)(nil)
	_ Operator = (*joinOperator)(nil)
	_ Operator = (*aggregateOperator)(nil)
	_ Operator = (*sortOperator)(nil)
	_ Operator = (*distinctOperator)(nil)
	_ Operator = (*limitOperator)(nil)
	_ Operator = (*derivedOperator)(nil)
)
