// Package exec runs plan trees. Each plan node maps to a pull-style operator
// (Open / Next / Close); BuildWithRuntime compiles the expressions once and
// wires the operators together.
package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// Runtime carries the per-execution state an operator tree cannot bake in at
// build time: the MVCC snapshot scans filter row versions through. A prepared
// statement builds its operator tree once and re-points the runtime at a
// fresh snapshot on every open, the way it rebinds its parameter frame.
type Runtime struct {
	snap *txn.Snapshot
}

// NewRuntime returns a runtime with no snapshot.
func NewRuntime() *Runtime { return &Runtime{} }

// SetSnapshot points the runtime at the snapshot the next execution reads
// under. A nil snapshot reads the latest live versions (xmax==0), which is
// what direct exec callers outside any transaction scope get.
func (r *Runtime) SetSnapshot(s *txn.Snapshot) { r.snap = s }

// visible applies the runtime's visibility policy to one version header.
func (r *Runtime) visible(meta storage.VersionMeta) bool {
	if r == nil || r.snap == nil {
		return meta.Xmax == 0
	}
	return r.snap.Visible(meta)
}

// Operator is a pull-style iterator over tuples.
type Operator interface {
	// Schema describes the tuples the operator produces.
	Schema() *types.Schema
	// Open prepares the operator (and its inputs) for iteration.
	Open() error
	// Next returns the next tuple; ok is false when the input is exhausted.
	Next() (tuple types.Tuple, ok bool, err error)
	// Close releases any resources. It is safe to call after an error.
	Close() error
}

// BuildWithRuntime compiles a plan tree into an operator tree whose scans
// read through rt's snapshot. The caller keeps rt and re-points it at a new
// snapshot per execution.
func BuildWithRuntime(node plan.Node, params *expr.Params, rt *Runtime) (Operator, error) {
	switch n := node.(type) {
	case *plan.ScanNode:
		return newScanOperator(n, params, rt)
	case *plan.DerivedNode:
		input, err := BuildWithRuntime(n.Input, params, rt)
		if err != nil {
			return nil, err
		}
		return &derivedOperator{input: input, schema: n.Schema()}, nil
	case *plan.FilterNode:
		return newFilterOperator(n, params, rt)
	case *plan.JoinNode:
		return newJoinOperator(n, params, rt)
	case *plan.ProjectNode:
		return newProjectOperator(n, params, rt)
	case *plan.AggregateNode:
		return newAggregateOperator(n, params, rt)
	case *plan.SortNode:
		return newSortOperator(n, params, rt)
	case *plan.DistinctNode:
		input, err := BuildWithRuntime(n.Input, params, rt)
		if err != nil {
			return nil, err
		}
		return &distinctOperator{input: input}, nil
	case *plan.LimitNode:
		input, err := BuildWithRuntime(n.Input, params, rt)
		if err != nil {
			return nil, err
		}
		return &limitOperator{input: input, limit: n.Limit, offset: n.Offset}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", node)
	}
}

// derivedOperator renames its input's columns (a view used as a table); the
// tuples pass through unchanged.
type derivedOperator struct {
	input  Operator
	schema *types.Schema
}

func (o *derivedOperator) Schema() *types.Schema { return o.schema }
func (o *derivedOperator) Open() error           { return o.input.Open() }
func (o *derivedOperator) Close() error          { return o.input.Close() }
func (o *derivedOperator) Next() (types.Tuple, bool, error) {
	return o.input.Next()
}

// limitOperator applies OFFSET and LIMIT.
type limitOperator struct {
	input   Operator
	limit   int64
	offset  int64
	skipped int64
	emitted int64
}

func (o *limitOperator) Schema() *types.Schema { return o.input.Schema() }
func (o *limitOperator) Open() error {
	o.skipped, o.emitted = 0, 0
	return o.input.Open()
}
func (o *limitOperator) Close() error { return o.input.Close() }

func (o *limitOperator) Next() (types.Tuple, bool, error) {
	for {
		if o.limit >= 0 && o.emitted >= o.limit {
			return nil, false, nil
		}
		tuple, ok, err := o.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if o.skipped < o.offset {
			o.skipped++
			continue
		}
		o.emitted++
		return tuple, true, nil
	}
}

// distinctOperator drops tuples it has already emitted, keyed by the tuple's
// storage encoding.
type distinctOperator struct {
	input Operator
	seen  map[string]bool
}

func (o *distinctOperator) Schema() *types.Schema { return o.input.Schema() }
func (o *distinctOperator) Open() error {
	o.seen = make(map[string]bool)
	return o.input.Open()
}
func (o *distinctOperator) Close() error { return o.input.Close() }

func (o *distinctOperator) Next() (types.Tuple, bool, error) {
	for {
		tuple, ok, err := o.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		key := string(types.EncodeTuple(nil, tuple))
		if o.seen[key] {
			continue
		}
		o.seen[key] = true
		return tuple, true, nil
	}
}
