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

// EncodedOperator is an operator whose rows are stored heap payloads: it can
// hand each row over as the bytes types.EncodeTuple makes of it, copied from
// the page, with no decode and no encode. Get one through AsEncoded, which
// offers it only for an operator tree that has that path.
type EncodedOperator interface {
	Operator
	// NextEncoded advances as Next does and appends the row's encoding to
	// dst, returning the grown slice; at the end or on an error dst comes
	// back as it was.
	NextEncoded(dst []byte) ([]byte, bool, error)
}

// AsEncoded returns op's encoded path, or nil when op's rows are not stored
// payloads. Only three operators offer one: a scan with no residual filter,
// a projection that is the identity over an operator that offers one, and a
// limit over such an operator. Anything that computes, drops, reorders or
// filters on values decodes.
func AsEncoded(op Operator) EncodedOperator {
	switch o := op.(type) {
	case *scanOperator:
		if o.filter == nil {
			return o
		}
	case *projectOperator:
		if o.identity && o.encoded != nil {
			return o
		}
	case *limitOperator:
		if o.encoded != nil {
			return o
		}
	}
	return nil
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
		return &limitOperator{input: input, encoded: AsEncoded(input), limit: n.Limit, offset: n.Offset}, nil
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
	input Operator
	// encoded is the input's encoded path when it offers one (AsEncoded).
	encoded EncodedOperator
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
	var tuple types.Tuple
	ok, err := o.pull(func() (ok bool, err error) {
		tuple, ok, err = o.input.Next()
		return ok, err
	})
	if !ok {
		return nil, false, err
	}
	return tuple, true, nil
}

func (o *limitOperator) NextEncoded(dst []byte) ([]byte, bool, error) {
	out := dst
	ok, err := o.pull(func() (ok bool, err error) {
		out, ok, err = o.encoded.NextEncoded(dst)
		return ok, err
	})
	if !ok {
		return dst, false, err
	}
	return out, true, nil
}

// pull advances the input through next past the offset's rows, and reports
// whether it stopped on a row within the limit.
func (o *limitOperator) pull(next func() (bool, error)) (bool, error) {
	for o.limit < 0 || o.emitted < o.limit {
		ok, err := next()
		if err != nil || !ok {
			return false, err
		}
		if o.skipped < o.offset {
			o.skipped++
			continue
		}
		o.emitted++
		return true, nil
	}
	return false, nil
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
