package exec

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// aggregateOperator implements hash aggregation: it drains its input,
// partitions rows by the group-by key and folds each group through the
// aggregate functions.
type aggregateOperator struct {
	node    *plan.AggregateNode
	input   Operator
	groupBy []*expr.Compiled
	args    []*expr.Compiled // nil entry for COUNT(*)
	schema  *types.Schema

	groups []types.Tuple
	pos    int
}

func newAggregateOperator(n *plan.AggregateNode, params *expr.Params, rt *Runtime) (*aggregateOperator, error) {
	input, err := BuildWithRuntime(n.Input, params, rt)
	if err != nil {
		return nil, err
	}
	op := &aggregateOperator{node: n, input: input, schema: n.Schema()}
	for _, g := range n.GroupBy {
		c, err := expr.CompileWithParams(g.Expr, input.Schema(), params)
		if err != nil {
			return nil, fmt.Errorf("exec: GROUP BY %s: %w", g.Name, err)
		}
		op.groupBy = append(op.groupBy, c)
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

func newAggState(fn plan.AggFunc) *aggState {
	return &aggState{fn: fn, allInts: true}
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
	type group struct {
		key    types.Tuple
		states []*aggState
	}
	groups := map[string]*group{}
	var order []string
	anyRow := false
	// One key tuple and one fingerprint buffer serve every row: a group is
	// looked up with the buffer as it stands and copies them only when it is
	// created, so a row of an existing group allocates nothing for its key.
	key := make(types.Tuple, len(o.groupBy))
	var buf []byte
	for {
		row, ok, err := o.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		anyRow = true
		for i, g := range o.groupBy {
			v, err := g.Eval(row)
			if err != nil {
				return err
			}
			key[i] = v
		}
		buf = types.EncodeTuple(buf[:0], key)
		grp, okGrp := groups[string(buf)]
		if !okGrp {
			grp = &group{key: key.Clone()}
			for _, a := range o.node.Aggs {
				grp.states = append(grp.states, newAggState(a.Func))
			}
			fingerprint := string(buf)
			groups[fingerprint] = grp
			order = append(order, fingerprint)
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
	}
	// A global aggregate (no GROUP BY) over an empty input still produces
	// one row (COUNT(*) = 0, SUM = NULL, ...).
	if !anyRow && len(o.groupBy) == 0 {
		var states []*aggState
		for _, a := range o.node.Aggs {
			states = append(states, newAggState(a.Func))
		}
		row := make(types.Tuple, 0, len(states))
		for _, s := range states {
			row = append(row, s.result())
		}
		o.groups = append(o.groups, row)
		return nil
	}
	sort.Strings(order)
	for _, fingerprint := range order {
		grp := groups[fingerprint]
		row := make(types.Tuple, 0, len(grp.key)+len(grp.states))
		row = append(row, grp.key...)
		for _, s := range grp.states {
			row = append(row, s.result())
		}
		o.groups = append(o.groups, row)
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
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range o.keys {
			cmp, err := rows[i].keys[k].Compare(rows[j].keys[k])
			if err != nil {
				cmp = 0
			}
			if cmp == 0 {
				continue
			}
			if o.descs[k] {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
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
