package plan

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// chooseAccessPaths walks the plan tree and, for every ScanNode that has a
// pushed-down filter, tries to convert part of that filter into an index
// access path: an exact lookup for equality predicates on an indexed column,
// or a range scan for inequality / BETWEEN predicates.
//
// The conjuncts an access path fully answers are removed from the residual
// filter; everything else stays and is re-checked per row.
func chooseAccessPaths(n Node) {
	if n == nil {
		return
	}
	if scan, ok := n.(*ScanNode); ok {
		chooseScanAccess(scan)
		return
	}
	for _, c := range n.Children() {
		chooseAccessPaths(c)
	}
}

func chooseScanAccess(scan *ScanNode) {
	if scan.Filter == nil {
		return
	}
	conjuncts := splitConjuncts(scan.Filter)

	type rangeBounds struct {
		low, high []*Bound
		consumed  []int
	}

	// First pass: look for an equality predicate on a single-column index —
	// the cheapest access path.
	for i, c := range conjuncts {
		col, operand, op, ok := constantComparison(c, scan)
		if !ok || op != sql.OpEq {
			continue
		}
		idx := scan.Table.IndexOn(col)
		if idx == nil || len(idx.Columns) != 1 {
			continue
		}
		scan.Access = AccessIndexEq
		scan.Index = idx
		scan.EqValue = operand.value
		scan.EqParam = operand.param
		scan.Filter = joinConjuncts(removeAt(conjuncts, []int{i}))
		return
	}

	// Second pass: accumulate range bounds per column, keyed by its
	// lower-cased name, and pick the index that consumes the most conjuncts.
	best := map[string]*rangeBounds{}
	boundsOf := func(col string) *rangeBounds {
		col = strings.ToLower(col)
		if best[col] == nil {
			best[col] = &rangeBounds{}
		}
		return best[col]
	}
	for i, c := range conjuncts {
		// BETWEEN gives both bounds at once.
		if between, ok := c.(*sql.BetweenExpr); ok && !between.Negate {
			col, okCol := scanColumn(between.Operand, scan)
			if !okCol {
				continue
			}
			low, okLow := keyOperand(between.Low)
			high, okHigh := keyOperand(between.High)
			if !okLow || !okHigh {
				continue
			}
			b := boundsOf(col)
			b.low = append(b.low, low.bound(true))
			b.high = append(b.high, high.bound(true))
			b.consumed = append(b.consumed, i)
			continue
		}
		col, operand, op, ok := constantComparison(c, scan)
		if !ok {
			continue
		}
		b := boundsOf(col)
		switch op {
		case sql.OpGt:
			b.low = append(b.low, operand.bound(false))
		case sql.OpGe:
			b.low = append(b.low, operand.bound(true))
		case sql.OpLt:
			b.high = append(b.high, operand.bound(false))
		case sql.OpLe:
			b.high = append(b.high, operand.bound(true))
		default:
			continue
		}
		b.consumed = append(b.consumed, i)
	}

	// Rank the single-column indexes with range bounds by the conjuncts they
	// consume; a tie goes to the index created first, so a statement plans
	// the same way in every database.
	var bestIndex *catalog.Index
	var bestBounds *rangeBounds
	for _, idx := range scan.Table.Indexes() {
		if len(idx.Columns) != 1 {
			continue
		}
		b := best[strings.ToLower(idx.Columns[0])]
		if b == nil || len(b.consumed) == 0 {
			continue
		}
		if bestBounds == nil || len(b.consumed) > len(bestBounds.consumed) {
			bestIndex, bestBounds = idx, b
		}
	}
	if bestBounds == nil {
		return
	}
	scan.Access = AccessIndexRange
	scan.Index = bestIndex
	scan.Low = bestBounds.low
	scan.High = bestBounds.high
	scan.Filter = joinConjuncts(removeAt(conjuncts, bestBounds.consumed))
}

// scanOperand is an index-key operand: a literal value known at plan time, or
// a bind parameter (param >= 0) resolved when the scan opens.
type scanOperand struct {
	value types.Value
	param int
}

// bound wraps the operand as one end of an index range.
func (o scanOperand) bound(inclusive bool) *Bound {
	return &Bound{Value: o.value, Param: o.param, Inclusive: inclusive}
}

// keyOperand matches expressions usable as index keys: literals and bind
// parameters with assigned ordinals.
func keyOperand(e sql.Expr) (scanOperand, bool) {
	switch e := e.(type) {
	case *sql.Literal:
		return scanOperand{value: e.Value, param: -1}, true
	case *sql.Param:
		if e.Index >= 0 {
			return scanOperand{value: types.Null(), param: e.Index}, true
		}
	}
	return scanOperand{}, false
}

// constantComparison matches conjuncts of the form "column OP operand" or
// "operand OP column" (with the operator flipped) where column belongs to the
// scan and operand is a literal or bind parameter. It returns the bare column
// name, the operand and the operator normalised so the column is on the left.
func constantComparison(e sql.Expr, scan *ScanNode) (col string, operand scanOperand, op sql.BinaryOp, ok bool) {
	bin, isBin := e.(*sql.BinaryExpr)
	if !isBin {
		return "", scanOperand{}, 0, false
	}
	switch bin.Op {
	case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
	default:
		return "", scanOperand{}, 0, false
	}
	if c, okCol := scanColumn(bin.Left, scan); okCol {
		if v, okVal := keyOperand(bin.Right); okVal {
			return c, v, bin.Op, true
		}
	}
	if c, okCol := scanColumn(bin.Right, scan); okCol {
		if v, okVal := keyOperand(bin.Left); okVal {
			return c, v, flipOp(bin.Op), true
		}
	}
	return "", scanOperand{}, 0, false
}

func flipOp(op sql.BinaryOp) sql.BinaryOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	default:
		return op
	}
}

// scanColumn reports whether e is a reference to one of the scan's columns
// and returns the bare column name.
func scanColumn(e sql.Expr, scan *ScanNode) (string, bool) {
	ref, ok := e.(*sql.ColumnRef)
	if !ok {
		return "", false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, scan.Alias) && !strings.EqualFold(ref.Table, scan.Table.Name()) {
		return "", false
	}
	if !scan.Table.Schema().HasColumn(ref.Name) {
		return "", false
	}
	return ref.Name, true
}

func removeAt(conjuncts []sql.Expr, drop []int) []sql.Expr {
	dropSet := map[int]bool{}
	for _, d := range drop {
		dropSet[d] = true
	}
	var out []sql.Expr
	for i, c := range conjuncts {
		if !dropSet[i] {
			out = append(out, c)
		}
	}
	return out
}
