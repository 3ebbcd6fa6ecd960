package core

import (
	"fmt"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// Query-by-form
//
// In query mode the user types patterns directly into the form's fields and
// presses the execute key; the window turns the filled-in fields into a
// predicate. The pattern language is the one the early forms systems taught
// their users:
//
//	Boston          equality (strings compare exactly)
//	>1000, <=50     comparisons for numeric, date and text fields
//	100..500        an inclusive range (BETWEEN)
//	Bo%  _a_       LIKE patterns ('%' any run, '_' one character)
//	null / not null IS NULL / IS NOT NULL
//	<>Boston        not equal
//
// Patterns in several fields combine with AND.
//
// A window renders each pattern twice over: once as a parameterized template
// ("credit > @q_credit") whose shape is shared by every pattern with the same
// operator, and once as the typed values bound into that template. Patterns
// that differ only in their operand reuse one prepared statement.

// patternShape classifies a parsed QBF pattern.
type patternShape int

const (
	patternIsNull  patternShape = iota // IS [NOT] NULL; no operand
	patternCompare                     // col OP value
	patternRange                       // col BETWEEN low AND high
	patternLike                        // col LIKE value
)

// fieldPattern is one parsed QBF pattern: its shape plus the typed operand
// values, ready to render as either a literal predicate or a parameterized
// template with bindings.
type fieldPattern struct {
	field  *Field
	shape  patternShape
	op     sql.BinaryOp // for patternCompare
	negate bool         // for patternIsNull
	values []types.Value
}

// parseFieldPattern parses one field's query pattern, or returns nil for a
// blank pattern.
func parseFieldPattern(field *Field, pattern string) (*fieldPattern, error) {
	text := strings.TrimSpace(pattern)
	if text == "" {
		return nil, nil
	}
	if field.Column < 0 {
		return nil, fmt.Errorf("core: field %q is computed and cannot be queried", field.name())
	}

	lower := strings.ToLower(text)
	switch lower {
	case "null", "=null":
		return &fieldPattern{field: field, shape: patternIsNull}, nil
	case "not null", "!null", "<>null":
		return &fieldPattern{field: field, shape: patternIsNull, negate: true}, nil
	}

	// Explicit comparison operator prefix.
	for _, op := range []struct {
		prefix string
		op     sql.BinaryOp
	}{
		{">=", sql.OpGe}, {"<=", sql.OpLe}, {"<>", sql.OpNe}, {"!=", sql.OpNe},
		{">", sql.OpGt}, {"<", sql.OpLt}, {"=", sql.OpEq},
	} {
		if strings.HasPrefix(text, op.prefix) {
			value, err := patternValue(field, strings.TrimSpace(text[len(op.prefix):]))
			if err != nil {
				return nil, err
			}
			return &fieldPattern{field: field, shape: patternCompare, op: op.op, values: []types.Value{value}}, nil
		}
	}

	// Inclusive range "low..high".
	if idx := strings.Index(text, ".."); idx > 0 {
		lowText := strings.TrimSpace(text[:idx])
		highText := strings.TrimSpace(text[idx+2:])
		if lowText != "" && highText != "" {
			low, err := patternValue(field, lowText)
			if err != nil {
				return nil, err
			}
			high, err := patternValue(field, highText)
			if err != nil {
				return nil, err
			}
			return &fieldPattern{field: field, shape: patternRange, values: []types.Value{low, high}}, nil
		}
	}

	// LIKE patterns for text fields.
	if field.Kind == types.KindString && strings.ContainsAny(text, "%_") {
		return &fieldPattern{field: field, shape: patternLike, values: []types.Value{types.NewString(text)}}, nil
	}

	// Plain equality.
	value, err := patternValue(field, text)
	if err != nil {
		return nil, err
	}
	return &fieldPattern{field: field, shape: patternCompare, op: sql.OpEq, values: []types.Value{value}}, nil
}

// paramExpr renders the pattern as a template over named parameters derived
// from name, recording the bindings. IS NULL patterns bind nothing (NULL is
// not a value, it is part of the shape).
func (p *fieldPattern) paramExpr(name string, binds map[string]types.Value) sql.Expr {
	column := &sql.ColumnRef{Name: p.field.name()}
	placeholder := func(suffix string, v types.Value) *sql.Param {
		binds[name+suffix] = v
		return &sql.Param{Index: -1, Name: name + suffix}
	}
	switch p.shape {
	case patternIsNull:
		return &sql.IsNullExpr{Operand: column, Negate: p.negate}
	case patternRange:
		return &sql.BetweenExpr{
			Operand: column,
			Low:     placeholder("_lo", p.values[0]),
			High:    placeholder("_hi", p.values[1]),
		}
	case patternLike:
		return &sql.BinaryExpr{Op: sql.OpLike, Left: column, Right: placeholder("", p.values[0])}
	default:
		return &sql.BinaryExpr{Op: p.op, Left: column, Right: placeholder("", p.values[0])}
	}
}

// fieldPredicate converts one field's query pattern into a
// parameterized template — "credit > @q_credit" instead of "credit > 1000" —
// and records the value bindings in binds. Windows key their prepared
// statements on the template text, so re-querying with a different operand
// reuses the statement.
func fieldPredicate(field *Field, pattern, name string, binds map[string]types.Value) (sql.Expr, error) {
	parsed, err := parseFieldPattern(field, pattern)
	if err != nil || parsed == nil {
		return nil, err
	}
	return parsed.paramExpr(name, binds), nil
}

// patternValue parses the value part of a pattern in the field's domain.
func patternValue(field *Field, text string) (types.Value, error) {
	v, err := types.ParseAs(text, field.Kind)
	if err != nil {
		return types.Null(), fmt.Errorf("core: field %q: %v", field.name(), err)
	}
	if v.IsNull() && text != "" {
		return types.Null(), fmt.Errorf("core: field %q: %q is not a valid %s", field.name(), text, field.Kind)
	}
	return v, nil
}

// qbfPredicate combines the query patterns of several fields (keyed by field
// name) into one predicate, or nil when every pattern is blank. Each field's
// pattern becomes a conjunct over "@q_<field>" parameters, in field order so
// the template is stable, with the typed values recorded in binds.
func qbfPredicate(form *Form, patterns map[string]string, binds map[string]types.Value) (sql.Expr, error) {
	var combined sql.Expr
	for _, field := range form.Fields {
		pattern, ok := patterns[field.name()]
		if !ok {
			continue
		}
		conjunct, err := fieldPredicate(field, pattern, "q_"+strings.ToLower(field.name()), binds)
		if err != nil {
			return nil, err
		}
		if conjunct == nil {
			continue
		}
		if combined == nil {
			combined = conjunct
		} else {
			combined = &sql.BinaryExpr{Op: sql.OpAnd, Left: combined, Right: conjunct}
		}
	}
	return combined, nil
}

// Selectivity estimation is not needed: the window's pager runs the
// predicate through the engine, which picks the access path; only a page of
// the result is ever fetched, however unselective the pattern is.
