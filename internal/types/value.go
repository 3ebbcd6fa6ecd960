// Package types defines the value model shared by every layer of the system:
// typed scalar values, column and schema descriptors, tuples, and a compact
// binary encoding used by the storage engine.
//
// The design follows the relational model of the early forms systems: a small
// fixed set of scalar domains (integer, float, string, boolean, date) plus
// NULL, three-valued comparison semantics, and schemas that are ordered lists
// of named, typed columns.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the domain of a Value.
type Kind uint8

// The supported scalar domains.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a type name (as written in CREATE TABLE or an FDL
// field declaration) into a Kind. Recognised spellings are case-insensitive.
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "TEXT", "STRING", "CHAR", "VARCHAR":
		return KindString, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "DATE":
		return KindDate, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single typed scalar. The zero Value is NULL.
//
// Value is a small immutable struct passed by value throughout the system;
// strings share their backing storage with the source they were parsed or
// decoded from.
type Value struct {
	kind Kind
	i    int64 // KindInt, KindDate (days since 1970-01-01)
	f    float64
	s    string
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a floating point value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a text value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{kind: KindBool, b: v} }

// NewDate returns a date value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{kind: KindDate, i: t.Unix() / 86400}
}

// NewDateFromDays returns a date value from a count of days since 1970-01-01.
func NewDateFromDays(days int64) Value { return Value{kind: KindDate, i: days} }

// parseDate parses a date in ISO form YYYY-MM-DD.
func parseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", strings.TrimSpace(s))
	if err != nil {
		return Null(), fmt.Errorf("types: invalid date %q: %w", s, err)
	}
	return Value{kind: KindDate, i: t.Unix() / 86400}, nil
}

// Kind reports the value's domain.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It is only meaningful for KindInt and
// KindDate values.
func (v Value) Int() int64 { return v.i }

// Float returns the numeric payload as a float64 for KindInt and KindFloat.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Str returns the string payload. It is only meaningful for KindString values.
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload. It is only meaningful for KindBool values.
func (v Value) Bool() bool { return v.b }

// Days returns the date payload as days since 1970-01-01.
func (v Value) Days() int64 { return v.i }

// Time returns the date payload as a UTC time at midnight.
func (v Value) Time() time.Time { return time.Unix(v.i*86400, 0).UTC() }

// String renders the value the way the SQL shell and forms display it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return fmt.Sprintf("<bad value kind %d>", v.kind)
	}
}

// SQL renders the value as a SQL literal, quoting strings and dates. Floats
// render in plain decimal notation — the display form's exponent notation
// ("1e+06") is not in the lexer's number grammar, and a SQL() rendering must
// re-parse.
func (v Value) SQL() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDate:
		return "'" + v.String() + "'"
	case KindFloat:
		// A small whole float renders without the fraction and re-parses as
		// an INT literal; the engine's numeric coercion treats the two alike.
		// Past 2^53 the domains diverge — int64 arithmetic can overflow where
		// float arithmetic saturates, and the text may not even fit the
		// integer grammar — so large whole floats keep a ".0" to re-parse as
		// floats.
		s := strconv.FormatFloat(v.f, 'f', -1, 64)
		if !strings.Contains(s, ".") && (v.f >= 1<<53 || v.f <= -(1<<53)) {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// numericKinds reports whether both kinds are numeric (int or float).
func numericKinds(a, b Kind) bool {
	return (a == KindInt || a == KindFloat) && (b == KindInt || b == KindFloat)
}

// Comparable reports whether values of the two kinds may be compared.
func Comparable(a, b Kind) bool {
	if a == KindNull || b == KindNull {
		return true
	}
	if a == b {
		return true
	}
	return numericKinds(a, b)
}

// ErrIncomparable is returned by Compare when the operand domains cannot be
// ordered against each other.
type ErrIncomparable struct {
	Left, Right Kind
}

func (e *ErrIncomparable) Error() string {
	return fmt.Sprintf("types: cannot compare %s with %s", e.Left, e.Right)
}

// Compare orders v against o. It returns a negative number, zero, or a
// positive number as v sorts before, equal to, or after o.
//
// NULL sorts before every non-NULL value and equal to NULL; callers that need
// SQL's three-valued logic must test IsNull before calling Compare.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == KindNull && o.kind == KindNull:
			return 0, nil
		case v.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if numericKinds(v.kind, o.kind) && v.kind != o.kind {
		return compareFloat(v.Float(), o.Float()), nil
	}
	if v.kind != o.kind {
		return 0, &ErrIncomparable{Left: v.kind, Right: o.kind}
	}
	switch v.kind {
	case KindInt, KindDate:
		return compareInt(v.i, o.i), nil
	case KindFloat:
		return compareFloat(v.f, o.f), nil
	case KindString:
		return strings.Compare(v.s, o.s), nil
	case KindBool:
		vi, oi := 0, 0
		if v.b {
			vi = 1
		}
		if o.b {
			oi = 1
		}
		return vi - oi, nil
	}
	return 0, &ErrIncomparable{Left: v.kind, Right: o.kind}
}

// Equal reports whether the two values are of the same kind and equal.
// Unlike Compare it never treats an int as equal to a float unless the
// numeric values coincide; NULL equals only NULL.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return v.kind == o.kind
	}
	c, err := v.Compare(o)
	return err == nil && c == 0
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Cast converts the value to the target kind, following the coercion rules the
// forms layer uses when a user types text into a field: numbers parse from
// strings, ints widen to floats, floats truncate to ints, everything renders
// to string, and NULL casts to NULL of any kind.
func (v Value) Cast(to Kind) (Value, error) {
	if v.kind == to || v.kind == KindNull {
		if v.kind == KindNull {
			return Null(), nil
		}
		return v, nil
	}
	switch to {
	case KindInt:
		switch v.kind {
		case KindFloat:
			if math.IsNaN(v.f) || math.IsInf(v.f, 0) {
				return Null(), fmt.Errorf("types: cannot cast %v to INT", v.f)
			}
			return NewInt(int64(v.f)), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
			if err != nil {
				return Null(), fmt.Errorf("types: %q is not an integer", v.s)
			}
			return NewInt(i), nil
		case KindBool:
			if v.b {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case KindFloat:
		switch v.kind {
		case KindInt:
			return NewFloat(float64(v.i)), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
			if err != nil {
				return Null(), fmt.Errorf("types: %q is not a number", v.s)
			}
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindBool:
		switch v.kind {
		case KindInt:
			return NewBool(v.i != 0), nil
		case KindString:
			switch strings.ToLower(strings.TrimSpace(v.s)) {
			case "true", "t", "yes", "y", "1":
				return NewBool(true), nil
			case "false", "f", "no", "n", "0":
				return NewBool(false), nil
			}
			return Null(), fmt.Errorf("types: %q is not a boolean", v.s)
		}
	case KindDate:
		switch v.kind {
		case KindString:
			return parseDate(v.s)
		case KindInt:
			return NewDateFromDays(v.i), nil
		}
	}
	return Null(), fmt.Errorf("types: cannot cast %s to %s", v.kind, to)
}

// ParseAs parses user-entered text into a value of the given kind. Empty
// text parses to NULL, which is how form fields represent "not filled in".
func ParseAs(text string, kind Kind) (Value, error) {
	if strings.TrimSpace(text) == "" {
		return Null(), nil
	}
	return NewString(text).Cast(kind)
}

// Hash returns a 64-bit hash of the value, suitable for hash joins and
// grouping. Values that are Equal hash identically; ints and floats holding
// the same number hash identically so mixed-type equality joins work.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt, KindDate:
		// Hash ints through their float representation when exactly
		// representable so that 1 and 1.0 collide, matching Equal.
		f := float64(v.i)
		if int64(f) == v.i {
			u := math.Float64bits(f)
			for s := 0; s < 64; s += 8 {
				mix(byte(u >> s))
			}
		} else {
			u := uint64(v.i)
			for s := 0; s < 64; s += 8 {
				mix(byte(u >> s))
			}
		}
	case KindFloat:
		u := math.Float64bits(v.f)
		for s := 0; s < 64; s += 8 {
			mix(byte(u >> s))
		}
	case KindString:
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	case KindBool:
		if v.b {
			mix(1)
		} else {
			mix(2)
		}
	}
	return h
}
