package types

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation, view, or intermediate result.
type Column struct {
	// Name is the column's bare name ("city").
	Name string
	// Table is the qualifier the column was resolved under ("customers"),
	// empty for computed columns.
	Table string
	// Type is the column's declared domain.
	Type Kind
	// NotNull marks columns that must carry a value on insert.
	NotNull bool
	// PrimaryKey marks the column as (part of) the table's primary key.
	PrimaryKey bool
	// Unique marks the column as carrying a uniqueness constraint of its own.
	Unique bool
	// Default, when non-nil, is evaluated for omitted insert values.
	Default *Value
}

// qualifiedName returns "table.name" when the column has a qualifier and the
// bare name otherwise.
func (c Column) qualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing the shape of tuples.
type Schema struct {
	Columns []Column
}

// CoerceToColumn casts v toward the named column's declared kind, for key
// comparisons whose encoding is kind-sensitive (index lookups). It is best
// effort: NULLs, unknown columns and failed casts return v unchanged.
func (s *Schema) CoerceToColumn(v Value, column string) Value {
	if v.IsNull() {
		return v
	}
	idx, err := s.ColumnIndex(column)
	if err != nil {
		return v
	}
	want := s.Columns[idx].Type
	if v.Kind() == want {
		return v
	}
	if cast, err := v.Cast(want); err == nil {
		return cast
	}
	return v
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColumnIndex finds a column by name. The name may be qualified
// ("customers.city") or bare ("city"). A bare name that matches more than one
// column is ambiguous and reported as an error; an unknown name is reported
// with the schema's column list to make form-binding errors easy to read.
func (s *Schema) ColumnIndex(name string) (int, error) {
	// Computed columns (aggregates, expressions) keep their full text as the
	// column name; a '.' inside parentheses is part of that text, not a
	// table qualifier.
	table, bare := "", name
	if i := strings.LastIndexByte(name, '.'); i >= 0 && !strings.ContainsAny(name, "()") {
		table, bare = name[:i], name[i+1:]
	}
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, bare) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("types: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("types: unknown column %q (have %s)", name, strings.Join(s.columnNames(), ", "))
	}
	return found, nil
}

// HasColumn reports whether the name resolves to exactly one column.
func (s *Schema) HasColumn(name string) bool {
	_, err := s.ColumnIndex(name)
	return err == nil
}

// columnNames returns the qualified names of all columns, in order.
func (s *Schema) columnNames() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.qualifiedName()
	}
	return names
}

// PrimaryKey returns the indexes of the primary-key columns, in schema order.
func (s *Schema) PrimaryKey() []int {
	var pk []int
	for i, c := range s.Columns {
		if c.PrimaryKey {
			pk = append(pk, i)
		}
	}
	return pk
}

// Concat returns a schema holding this schema's columns followed by o's, as
// produced by a join.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// WithTable returns a copy of the schema with every column's qualifier set to
// table. It is used when a table or view is given an alias.
func (s *Schema) WithTable(table string) *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	for i := range cols {
		cols[i].Table = table
	}
	return &Schema{Columns: cols}
}

// String renders the schema as "(name TYPE, ...)" for error messages and the
// SQL shell's DESCRIBE output.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
		if c.NotNull && !c.PrimaryKey {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row of values, positionally aligned with a Schema.
type Tuple []Value

// Clone returns a copy of the tuple that shares no slice storage with the
// original (Values themselves are immutable).
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns this tuple followed by o, matching Schema.Concat.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Equal reports whether two tuples have the same length and pairwise-equal
// values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ValidateAgainst checks the tuple against the schema: arity, NOT NULL
// constraints, and domain compatibility (values are cast to the column type
// where a lossless coercion exists). It returns the possibly-coerced tuple.
func (t Tuple) ValidateAgainst(s *Schema) (Tuple, error) {
	if len(t) != len(s.Columns) {
		return nil, fmt.Errorf("types: tuple has %d values, schema %s has %d columns", len(t), s, len(s.Columns))
	}
	out := t.Clone()
	for i, c := range s.Columns {
		v := out[i]
		if v.IsNull() {
			if c.NotNull || c.PrimaryKey {
				return nil, fmt.Errorf("types: column %q must not be NULL", c.Name)
			}
			continue
		}
		if v.Kind() != c.Type {
			cast, err := v.Cast(c.Type)
			if err != nil {
				return nil, fmt.Errorf("types: column %q: %w", c.Name, err)
			}
			out[i] = cast
		}
	}
	return out, nil
}
