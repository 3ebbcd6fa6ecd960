// Package plan turns parsed statements into executable plan trees: it
// resolves table and view names through the catalog, expands views as
// derived tables, pushes predicates down to scans, selects index access
// paths (with parameter operands resolved when the scan opens, so cached
// plans stay parameter-generic), elides sorts an index already serves
// (descending orders become reverse index scans, which is what lets keyset
// pagination stream), and decides join strategies. INSERT/UPDATE/DELETE
// plan through the same builder (BuildStatement), their predicates as
// ordinary child scans, and a write through an updatable view is translated
// onto its base table (view.go). Since the builder resolves every name, it
// also gives each bind parameter the kind of the column it meets
// (Builder.ParamKinds). The exec package walks the resulting tree and runs
// it.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// Node is one operator in a plan tree.
type Node interface {
	// Schema describes the tuples the node produces.
	Schema() *types.Schema
	// Children returns the node's inputs (empty for leaves).
	Children() []Node
	// Explain renders one line describing the node, for EXPLAIN output and
	// the planner tests.
	Explain() string
}

// AccessKind says how a ScanNode reads its table.
type AccessKind int

// Access kinds.
const (
	AccessSeqScan AccessKind = iota
	AccessIndexEq
	AccessIndexRange
)

func (k AccessKind) String() string {
	switch k {
	case AccessSeqScan:
		return "seq scan"
	case AccessIndexEq:
		return "index lookup"
	case AccessIndexRange:
		return "index range scan"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Bound is one end of an index range. The bound is either a literal Value or,
// for prepared statements, a bind parameter resolved when the scan opens:
// Param >= 0 names the parameter ordinal and Value is ignored.
type Bound struct {
	Value     types.Value
	Param     int // parameter ordinal, or -1 for a literal bound
	Inclusive bool
}

// ScanNode reads a base table, optionally through an index, applying a
// residual filter to each row.
type ScanNode struct {
	Table *catalog.Table
	// Alias is the name columns are qualified with in this query.
	Alias string
	// Access describes the access path.
	Access AccessKind
	// Index is the chosen index for AccessIndexEq / AccessIndexRange.
	Index *catalog.Index
	// EqValue is the key value for AccessIndexEq. When EqParam >= 0 the key
	// comes from that bind-parameter ordinal instead, resolved at open time,
	// so a cached plan stays valid across rebinds.
	EqValue types.Value
	EqParam int
	// Low and High bound an AccessIndexRange scan: every bound listed must
	// hold, and the scan seeks to the strictest once its parameters are
	// bound — two parameter bounds on one side cannot be ranked at plan
	// time. Either may be empty (a range with neither is a full index scan
	// in key order, which sort elision uses to serve ORDER BY without
	// sorting).
	Low, High []*Bound
	// Reverse walks the index access path backwards, yielding rows in
	// descending key order. Set by sort elision when the query's ORDER BY is
	// the index order reversed; meaningless for seq scans.
	Reverse bool
	// Filter is the residual predicate evaluated on each fetched row
	// (already excludes whatever the access path guarantees).
	Filter sql.Expr
	schema *types.Schema
}

// Schema implements Node.
func (n *ScanNode) Schema() *types.Schema { return n.schema }

// Children implements Node.
func (n *ScanNode) Children() []Node { return nil }

// Explain implements Node.
func (n *ScanNode) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scan %s", n.Table.Name())
	if n.Alias != "" && n.Alias != n.Table.Name() {
		fmt.Fprintf(&b, " AS %s", n.Alias)
	}
	fmt.Fprintf(&b, " (%s", n.Access)
	if n.Index != nil {
		fmt.Fprintf(&b, " on %s", n.Index.Name)
	}
	if n.Reverse {
		b.WriteString(", reverse")
	}
	b.WriteString(")")
	if n.Filter != nil {
		fmt.Fprintf(&b, " filter %s", n.Filter.String())
	}
	return b.String()
}

// DerivedNode wraps a sub-plan (a view expansion) and renames its output
// columns under an alias, exactly like a derived table.
type DerivedNode struct {
	Input  Node
	Alias  string
	schema *types.Schema
}

// Schema implements Node.
func (n *DerivedNode) Schema() *types.Schema { return n.schema }

// Children implements Node.
func (n *DerivedNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *DerivedNode) Explain() string { return fmt.Sprintf("Derived %s", n.Alias) }

// FilterNode drops rows that do not satisfy Cond.
type FilterNode struct {
	Input Node
	Cond  sql.Expr
}

// Schema implements Node.
func (n *FilterNode) Schema() *types.Schema { return n.Input.Schema() }

// Children implements Node.
func (n *FilterNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *FilterNode) Explain() string { return "Filter " + n.Cond.String() }

// JoinStrategy selects the physical join algorithm.
type JoinStrategy int

// Join strategies.
const (
	JoinNestedLoop JoinStrategy = iota
	JoinHash
)

func (s JoinStrategy) String() string {
	if s == JoinHash {
		return "hash"
	}
	return "nested loop"
}

// JoinNode combines two inputs. For JoinHash, EqLeft/EqRight are the
// equi-join key expressions over the respective inputs; Residual holds any
// remaining condition. Outer marks a LEFT join (unmatched left rows are
// emitted padded with NULLs).
type JoinNode struct {
	Left, Right Node
	Strategy    JoinStrategy
	Outer       bool
	// On is the full join condition (nil for a cross join).
	On sql.Expr
	// EqLeft / EqRight are set for hash joins.
	EqLeft, EqRight sql.Expr
	// Residual is the non-equi remainder of On for hash joins.
	Residual sql.Expr
	schema   *types.Schema
}

// Schema implements Node.
func (n *JoinNode) Schema() *types.Schema { return n.schema }

// Children implements Node.
func (n *JoinNode) Children() []Node { return []Node{n.Left, n.Right} }

// Explain implements Node.
func (n *JoinNode) Explain() string {
	kind := "Join"
	if n.Outer {
		kind = "LeftJoin"
	}
	out := fmt.Sprintf("%s (%s)", kind, n.Strategy)
	if n.On != nil {
		out += " on " + n.On.String()
	}
	return out
}

// ProjectItem is one output column of a projection.
type ProjectItem struct {
	Expr sql.Expr
	Name string
}

// ProjectNode computes the SELECT list.
type ProjectNode struct {
	Input  Node
	Items  []ProjectItem
	schema *types.Schema
}

// Schema implements Node.
func (n *ProjectNode) Schema() *types.Schema { return n.schema }

// Children implements Node.
func (n *ProjectNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *ProjectNode) Explain() string {
	names := make([]string, len(n.Items))
	for i, it := range n.Items {
		names[i] = it.Name
	}
	return "Project " + strings.Join(names, ", ")
}

// AggFunc enumerates the supported aggregates.
type AggFunc int

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggCountStar:
		return "COUNT(*)"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec is one aggregate computed by an AggregateNode.
type AggSpec struct {
	Func AggFunc
	// Arg is the aggregated expression (nil for COUNT(*)).
	Arg sql.Expr
	// Name is the output column name (the original call's text).
	Name string
}

// AggregateNode groups its input by the GroupBy expressions and computes the
// aggregates per group. Its output schema is the group-by columns followed by
// the aggregate columns.
type AggregateNode struct {
	Input   Node
	GroupBy []ProjectItem
	Aggs    []AggSpec
	schema  *types.Schema
}

// Schema implements Node.
func (n *AggregateNode) Schema() *types.Schema { return n.schema }

// Children implements Node.
func (n *AggregateNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *AggregateNode) Explain() string {
	var parts []string
	for _, g := range n.GroupBy {
		parts = append(parts, g.Name)
	}
	for _, a := range n.Aggs {
		parts = append(parts, a.Name)
	}
	return "Aggregate " + strings.Join(parts, ", ")
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr sql.Expr
	Desc bool
}

// SortNode orders its input.
type SortNode struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (n *SortNode) Schema() *types.Schema { return n.Input.Schema() }

// Children implements Node.
func (n *SortNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *SortNode) Explain() string {
	keys := make([]string, len(n.Keys))
	for i, k := range n.Keys {
		keys[i] = k.Expr.String()
		if k.Desc {
			keys[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(keys, ", ")
}

// DistinctNode removes duplicate rows.
type DistinctNode struct {
	Input Node
}

// Schema implements Node.
func (n *DistinctNode) Schema() *types.Schema { return n.Input.Schema() }

// Children implements Node.
func (n *DistinctNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *DistinctNode) Explain() string { return "Distinct" }

// LimitNode caps and offsets its input.
type LimitNode struct {
	Input  Node
	Limit  int64 // -1 for no limit
	Offset int64
}

// Schema implements Node.
func (n *LimitNode) Schema() *types.Schema { return n.Input.Schema() }

// Children implements Node.
func (n *LimitNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *LimitNode) Explain() string {
	if n.Limit < 0 {
		return fmt.Sprintf("Offset %d", n.Offset)
	}
	return fmt.Sprintf("Limit %d offset %d", n.Limit, n.Offset)
}

// Explain renders the whole plan tree, one node per line, children indented.
func Explain(n Node) string {
	var b strings.Builder
	explainInto(&b, n, 0)
	return b.String()
}

func explainInto(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Explain())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explainInto(b, c, depth+1)
	}
}
