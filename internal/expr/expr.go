// Package expr compiles and evaluates SQL expressions against tuples.
//
// Compilation resolves column references to positions in a schema once, so
// that evaluation — which runs per row in filters, projections, validation
// rules and computed form fields — does no name lookups.
package expr

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// Params is the bind frame a prepared statement evaluates against: one value
// slot per parameter ordinal. Expressions compiled with a Params pointer read
// the slots at evaluation time, so rebinding the frame and re-running needs no
// recompilation.
type Params struct {
	Values []types.Value
}

// Value returns the bound value for ordinal idx.
func (p *Params) Value(idx int) (types.Value, error) {
	if p == nil || idx < 0 || idx >= len(p.Values) {
		return types.Null(), fmt.Errorf("expr: parameter %d is not bound", idx+1)
	}
	return p.Values[idx], nil
}

// Compiled is an expression bound to a schema, ready to evaluate against
// tuples of that schema.
type Compiled struct {
	eval evalFunc
	kind types.Kind
}

type evalFunc func(t types.Tuple) (types.Value, error)

// Kind returns the expression's statically inferred result kind. Expressions
// whose kind depends on the data (for example NULL literals) report KindNull.
func (c *Compiled) Kind() types.Kind { return c.kind }

// Eval evaluates the expression against one tuple.
func (c *Compiled) Eval(t types.Tuple) (types.Value, error) { return c.eval(t) }

// EvalBool evaluates the expression as a predicate using SQL's semantics for
// filtering: NULL and false both reject the row.
func (c *Compiled) EvalBool(t types.Tuple) (bool, error) {
	v, err := c.eval(t)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

// truthy reports whether a value passes a WHERE-style filter: only a true
// boolean does; NULL, false, and every non-boolean reject.
func truthy(v types.Value) bool {
	return v.Kind() == types.KindBool && v.Bool()
}

// Compile binds an expression to the schema. Aggregate calls are rejected —
// the executor evaluates aggregates itself and rewrites them to column
// references before compiling HAVING and projection expressions. Parameter
// placeholders are rejected; use CompileWithParams when a bind frame exists.
func Compile(e sql.Expr, schema *types.Schema) (*Compiled, error) {
	return CompileWithParams(e, schema, nil)
}

// CompileWithParams compiles an expression whose parameter placeholders read
// from the given bind frame at evaluation time. A nil frame makes any
// placeholder a compile error.
func CompileWithParams(e sql.Expr, schema *types.Schema, params *Params) (*Compiled, error) {
	fn, kind, err := compile(e, schema, params)
	if err != nil {
		return nil, err
	}
	return &Compiled{eval: fn, kind: kind}, nil
}

// CompileConst compiles an expression that must not reference any columns
// (DEFAULT clauses, literal form field defaults) and evaluates it once.
func CompileConst(e sql.Expr) (types.Value, error) {
	return compileConstParams(e, nil)
}

// compileConstParams is CompileConst with a bind frame, for prepared INSERT
// value lists and similar row-free contexts.
func compileConstParams(e sql.Expr, params *Params) (types.Value, error) {
	if cols := sql.ColumnsIn(e); len(cols) > 0 {
		return types.Null(), fmt.Errorf("expr: %s references column %s but no row is available", e.String(), cols[0].String())
	}
	c, err := CompileWithParams(e, types.NewSchema(), params)
	if err != nil {
		return types.Null(), err
	}
	return c.Eval(nil)
}

func compile(e sql.Expr, schema *types.Schema, params *Params) (evalFunc, types.Kind, error) {
	switch e := e.(type) {
	case *sql.Literal:
		v := e.Value
		return func(types.Tuple) (types.Value, error) { return v, nil }, v.Kind(), nil

	case *sql.Param:
		if params == nil {
			return nil, types.KindNull, fmt.Errorf("expr: parameter %s is not allowed here (statement was not prepared)", e.String())
		}
		idx := e.Index
		// The bound value's kind is unknown until run time.
		return func(types.Tuple) (types.Value, error) {
			return params.Value(idx)
		}, types.KindNull, nil

	case *sql.ColumnRef:
		idx, err := schema.ColumnIndex(e.RefName())
		if err != nil {
			return nil, types.KindNull, fmt.Errorf("expr: %w", err)
		}
		kind := schema.Columns[idx].Type
		return func(t types.Tuple) (types.Value, error) {
			if idx >= len(t) {
				return types.Null(), fmt.Errorf("expr: row has %d values, column %q is at %d", len(t), e.String(), idx)
			}
			return t[idx], nil
		}, kind, nil

	case *sql.UnaryExpr:
		operand, opKind, err := compile(e.Operand, schema, params)
		if err != nil {
			return nil, types.KindNull, err
		}
		switch e.Op {
		case sql.OpNot:
			return func(t types.Tuple) (types.Value, error) {
				v, err := operand(t)
				if err != nil {
					return types.Null(), err
				}
				if v.IsNull() {
					return types.Null(), nil
				}
				b, err := v.Cast(types.KindBool)
				if err != nil {
					return types.Null(), fmt.Errorf("expr: NOT applied to %s", v.Kind())
				}
				return types.NewBool(!b.Bool()), nil
			}, types.KindBool, nil
		case sql.OpNeg:
			return func(t types.Tuple) (types.Value, error) {
				v, err := operand(t)
				if err != nil || v.IsNull() {
					return types.Null(), err
				}
				switch v.Kind() {
				case types.KindInt:
					return types.NewInt(-v.Int()), nil
				case types.KindFloat:
					return types.NewFloat(-v.Float()), nil
				default:
					return types.Null(), fmt.Errorf("expr: cannot negate %s", v.Kind())
				}
			}, opKind, nil
		default:
			return nil, types.KindNull, fmt.Errorf("expr: unknown unary operator")
		}

	case *sql.BinaryExpr:
		return compileBinary(e, schema, params)

	case *sql.IsNullExpr:
		operand, _, err := compile(e.Operand, schema, params)
		if err != nil {
			return nil, types.KindNull, err
		}
		negate := e.Negate
		return func(t types.Tuple) (types.Value, error) {
			v, err := operand(t)
			if err != nil {
				return types.Null(), err
			}
			return types.NewBool(v.IsNull() != negate), nil
		}, types.KindBool, nil

	case *sql.BetweenExpr:
		operand, _, err := compile(e.Operand, schema, params)
		if err != nil {
			return nil, types.KindNull, err
		}
		low, _, err := compile(e.Low, schema, params)
		if err != nil {
			return nil, types.KindNull, err
		}
		high, _, err := compile(e.High, schema, params)
		if err != nil {
			return nil, types.KindNull, err
		}
		negate := e.Negate
		return func(t types.Tuple) (types.Value, error) {
			v, err := operand(t)
			if err != nil {
				return types.Null(), err
			}
			lo, err := low(t)
			if err != nil {
				return types.Null(), err
			}
			hi, err := high(t)
			if err != nil {
				return types.Null(), err
			}
			if v.IsNull() || lo.IsNull() || hi.IsNull() {
				return types.Null(), nil
			}
			cmpLo, err := v.Compare(lo)
			if err != nil {
				return types.Null(), fmt.Errorf("expr: BETWEEN: %w", err)
			}
			cmpHi, err := v.Compare(hi)
			if err != nil {
				return types.Null(), fmt.Errorf("expr: BETWEEN: %w", err)
			}
			in := cmpLo >= 0 && cmpHi <= 0
			return types.NewBool(in != negate), nil
		}, types.KindBool, nil

	case *sql.InExpr:
		operand, _, err := compile(e.Operand, schema, params)
		if err != nil {
			return nil, types.KindNull, err
		}
		items := make([]evalFunc, len(e.List))
		for i, item := range e.List {
			fn, _, err := compile(item, schema, params)
			if err != nil {
				return nil, types.KindNull, err
			}
			items[i] = fn
		}
		negate := e.Negate
		return func(t types.Tuple) (types.Value, error) {
			v, err := operand(t)
			if err != nil {
				return types.Null(), err
			}
			if v.IsNull() {
				return types.Null(), nil
			}
			sawNull := false
			for _, item := range items {
				iv, err := item(t)
				if err != nil {
					return types.Null(), err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				cmp, err := v.Compare(iv)
				if err != nil {
					continue // incomparable list member can never match
				}
				if cmp == 0 {
					return types.NewBool(!negate), nil
				}
			}
			if sawNull {
				return types.Null(), nil
			}
			return types.NewBool(negate), nil
		}, types.KindBool, nil

	case *sql.FuncCall:
		if e.IsAggregate() {
			return nil, types.KindNull, fmt.Errorf("expr: aggregate %s is not allowed here", e.Name)
		}
		return compileScalarFunc(e, schema, params)

	default:
		return nil, types.KindNull, fmt.Errorf("expr: unsupported expression %T", e)
	}
}

func compileBinary(e *sql.BinaryExpr, schema *types.Schema, params *Params) (evalFunc, types.Kind, error) {
	left, leftKind, err := compile(e.Left, schema, params)
	if err != nil {
		return nil, types.KindNull, err
	}
	right, rightKind, err := compile(e.Right, schema, params)
	if err != nil {
		return nil, types.KindNull, err
	}
	op := e.Op
	switch op {
	case sql.OpAnd, sql.OpOr:
		return func(t types.Tuple) (types.Value, error) {
			l, err := left(t)
			if err != nil {
				return types.Null(), err
			}
			// Short-circuit on a determined result; keep SQL's three-valued
			// logic for NULL operands.
			lb, lNull := boolOrNull(l)
			if op == sql.OpAnd && !lNull && !lb {
				return types.NewBool(false), nil
			}
			if op == sql.OpOr && !lNull && lb {
				return types.NewBool(true), nil
			}
			r, err := right(t)
			if err != nil {
				return types.Null(), err
			}
			rb, rNull := boolOrNull(r)
			if op == sql.OpAnd {
				switch {
				case !rNull && !rb:
					return types.NewBool(false), nil
				case lNull || rNull:
					return types.Null(), nil
				default:
					return types.NewBool(true), nil
				}
			}
			switch {
			case !rNull && rb:
				return types.NewBool(true), nil
			case lNull || rNull:
				return types.Null(), nil
			default:
				return types.NewBool(false), nil
			}
		}, types.KindBool, nil

	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		return func(t types.Tuple) (types.Value, error) {
			l, err := left(t)
			if err != nil {
				return types.Null(), err
			}
			r, err := right(t)
			if err != nil {
				return types.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return types.Null(), nil
			}
			// Coerce string literals typed into forms toward the column's
			// domain so "credit > '100'" behaves as users expect.
			l, r = harmonize(l, r)
			cmp, err := l.Compare(r)
			if err != nil {
				return types.Null(), fmt.Errorf("expr: %w", err)
			}
			var out bool
			switch op {
			case sql.OpEq:
				out = cmp == 0
			case sql.OpNe:
				out = cmp != 0
			case sql.OpLt:
				out = cmp < 0
			case sql.OpLe:
				out = cmp <= 0
			case sql.OpGt:
				out = cmp > 0
			case sql.OpGe:
				out = cmp >= 0
			}
			return types.NewBool(out), nil
		}, types.KindBool, nil

	case sql.OpLike:
		return func(t types.Tuple) (types.Value, error) {
			l, err := left(t)
			if err != nil {
				return types.Null(), err
			}
			r, err := right(t)
			if err != nil {
				return types.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return types.Null(), nil
			}
			ls, err := l.Cast(types.KindString)
			if err != nil {
				return types.Null(), err
			}
			rs, err := r.Cast(types.KindString)
			if err != nil {
				return types.Null(), err
			}
			return types.NewBool(matchLike(ls.Str(), rs.Str())), nil
		}, types.KindBool, nil

	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		resultKind := types.KindInt
		if leftKind == types.KindFloat || rightKind == types.KindFloat || op == sql.OpDiv {
			resultKind = types.KindFloat
		}
		if (leftKind == types.KindString || rightKind == types.KindString) && op == sql.OpAdd {
			resultKind = types.KindString
		}
		return func(t types.Tuple) (types.Value, error) {
			l, err := left(t)
			if err != nil {
				return types.Null(), err
			}
			r, err := right(t)
			if err != nil {
				return types.Null(), err
			}
			if l.IsNull() || r.IsNull() {
				return types.Null(), nil
			}
			return arithmetic(op, l, r)
		}, resultKind, nil
	}
	return nil, types.KindNull, fmt.Errorf("expr: unsupported binary operator %s", op)
}

// boolOrNull interprets a value as a boolean operand of AND/OR.
func boolOrNull(v types.Value) (val bool, isNull bool) {
	if v.IsNull() {
		return false, true
	}
	if v.Kind() == types.KindBool {
		return v.Bool(), false
	}
	return false, true
}

// harmonize casts one operand toward the other when exactly one of them is a
// string and the other is numeric, boolean or a date — the common case when a
// user types a constant into a form field or a query-by-form pattern.
func harmonize(l, r types.Value) (types.Value, types.Value) {
	if l.Kind() == r.Kind() || types.Comparable(l.Kind(), r.Kind()) {
		return l, r
	}
	if l.Kind() == types.KindString {
		if cast, err := l.Cast(r.Kind()); err == nil {
			return cast, r
		}
	}
	if r.Kind() == types.KindString {
		if cast, err := r.Cast(l.Kind()); err == nil {
			return l, cast
		}
	}
	return l, r
}

// arithmetic applies a numeric (or string concatenation) operator to two
// non-NULL values.
func arithmetic(op sql.BinaryOp, l, r types.Value) (types.Value, error) {
	if op == sql.OpAdd && (l.Kind() == types.KindString || r.Kind() == types.KindString) {
		ls, _ := l.Cast(types.KindString)
		rs, _ := r.Cast(types.KindString)
		return types.NewString(ls.Str() + rs.Str()), nil
	}
	l, r = harmonize(l, r)
	bothInt := l.Kind() == types.KindInt && r.Kind() == types.KindInt
	if !isNumeric(l) || !isNumeric(r) {
		return types.Null(), fmt.Errorf("expr: %s is not defined for %s and %s", op, l.Kind(), r.Kind())
	}
	switch op {
	case sql.OpAdd:
		if bothInt {
			return types.NewInt(l.Int() + r.Int()), nil
		}
		return types.NewFloat(l.Float() + r.Float()), nil
	case sql.OpSub:
		if bothInt {
			return types.NewInt(l.Int() - r.Int()), nil
		}
		return types.NewFloat(l.Float() - r.Float()), nil
	case sql.OpMul:
		if bothInt {
			return types.NewInt(l.Int() * r.Int()), nil
		}
		return types.NewFloat(l.Float() * r.Float()), nil
	case sql.OpDiv:
		if r.Float() == 0 {
			return types.Null(), fmt.Errorf("expr: division by zero")
		}
		return types.NewFloat(l.Float() / r.Float()), nil
	case sql.OpMod:
		if !bothInt {
			return types.Null(), fmt.Errorf("expr: %% requires integers")
		}
		if r.Int() == 0 {
			return types.Null(), fmt.Errorf("expr: division by zero")
		}
		return types.NewInt(l.Int() % r.Int()), nil
	default:
		return types.Null(), fmt.Errorf("expr: %s is not an arithmetic operator", op)
	}
}

func isNumeric(v types.Value) bool {
	return v.Kind() == types.KindInt || v.Kind() == types.KindFloat
}

// matchLike implements SQL LIKE: '%' matches any run of characters (including
// none) and '_' matches exactly one character. Matching is case-sensitive.
func matchLike(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer matcher with backtracking over the last '%'.
	si, pi := 0, 0
	starSi, starPi := -1, -1
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// scalarFuncs maps upper-case function names to implementations.
var scalarFuncs = map[string]struct {
	minArgs, maxArgs int
	kind             types.Kind
	apply            func(args []types.Value) (types.Value, error)
}{
	"UPPER": {1, 1, types.KindString, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		s, err := a[0].Cast(types.KindString)
		if err != nil {
			return types.Null(), err
		}
		return types.NewString(strings.ToUpper(s.Str())), nil
	}},
	"LOWER": {1, 1, types.KindString, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		s, err := a[0].Cast(types.KindString)
		if err != nil {
			return types.Null(), err
		}
		return types.NewString(strings.ToLower(s.Str())), nil
	}},
	"LENGTH": {1, 1, types.KindInt, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		s, err := a[0].Cast(types.KindString)
		if err != nil {
			return types.Null(), err
		}
		return types.NewInt(int64(len(s.Str()))), nil
	}},
	"TRIM": {1, 1, types.KindString, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		s, err := a[0].Cast(types.KindString)
		if err != nil {
			return types.Null(), err
		}
		return types.NewString(strings.TrimSpace(s.Str())), nil
	}},
	"SUBSTR": {2, 3, types.KindString, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		s, err := a[0].Cast(types.KindString)
		if err != nil {
			return types.Null(), err
		}
		start, err := a[1].Cast(types.KindInt)
		if err != nil {
			return types.Null(), err
		}
		str := s.Str()
		from := int(start.Int()) - 1 // SQL SUBSTR is 1-based
		if from < 0 {
			from = 0
		}
		if from > len(str) {
			from = len(str)
		}
		to := len(str)
		if len(a) == 3 && !a[2].IsNull() {
			n, err := a[2].Cast(types.KindInt)
			if err != nil {
				return types.Null(), err
			}
			to = from + int(n.Int())
			if to > len(str) {
				to = len(str)
			}
			if to < from {
				to = from
			}
		}
		return types.NewString(str[from:to]), nil
	}},
	"ABS": {1, 1, types.KindFloat, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		switch a[0].Kind() {
		case types.KindInt:
			v := a[0].Int()
			if v < 0 {
				v = -v
			}
			return types.NewInt(v), nil
		case types.KindFloat:
			return types.NewFloat(math.Abs(a[0].Float())), nil
		default:
			return types.Null(), fmt.Errorf("expr: ABS of %s", a[0].Kind())
		}
	}},
	"ROUND": {1, 2, types.KindFloat, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		f, err := a[0].Cast(types.KindFloat)
		if err != nil {
			return types.Null(), err
		}
		places := 0
		if len(a) == 2 && !a[1].IsNull() {
			p, err := a[1].Cast(types.KindInt)
			if err != nil {
				return types.Null(), err
			}
			places = int(p.Int())
		}
		scale := math.Pow(10, float64(places))
		return types.NewFloat(math.Round(f.Float()*scale) / scale), nil
	}},
	"COALESCE": {1, 16, types.KindNull, func(a []types.Value) (types.Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null(), nil
	}},
}

func compileScalarFunc(e *sql.FuncCall, schema *types.Schema, params *Params) (evalFunc, types.Kind, error) {
	name := strings.ToUpper(e.Name)
	def, ok := scalarFuncs[name]
	if !ok {
		return nil, types.KindNull, fmt.Errorf("expr: unknown function %s", name)
	}
	if e.Star {
		return nil, types.KindNull, fmt.Errorf("expr: %s(*) is not valid", name)
	}
	if len(e.Args) < def.minArgs || len(e.Args) > def.maxArgs {
		return nil, types.KindNull, fmt.Errorf("expr: %s takes %d to %d arguments, got %d", name, def.minArgs, def.maxArgs, len(e.Args))
	}
	args := make([]evalFunc, len(e.Args))
	for i, a := range e.Args {
		fn, _, err := compile(a, schema, params)
		if err != nil {
			return nil, types.KindNull, err
		}
		args[i] = fn
	}
	apply := def.apply
	return func(t types.Tuple) (types.Value, error) {
		vals := make([]types.Value, len(args))
		for i, fn := range args {
			v, err := fn(t)
			if err != nil {
				return types.Null(), err
			}
			vals[i] = v
		}
		return apply(vals)
	}, def.kind, nil
}
