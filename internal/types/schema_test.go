package types

import (
	"strings"
	"testing"
)

func testSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Table: "customers", Type: KindInt, PrimaryKey: true},
		Column{Name: "name", Table: "customers", Type: KindString, NotNull: true},
		Column{Name: "city", Table: "customers", Type: KindString},
		Column{Name: "credit", Table: "customers", Type: KindFloat},
	)
}

func TestColumnIndex(t *testing.T) {
	s := testSchema()
	cases := []struct {
		name string
		want int
		ok   bool
	}{
		{"id", 0, true},
		{"customers.id", 0, true},
		{"CITY", 2, true},
		{"customers.credit", 3, true},
		{"orders.id", -1, false},
		{"missing", -1, false},
	}
	for _, c := range cases {
		got, err := s.ColumnIndex(c.name)
		if c.ok != (err == nil) {
			t.Errorf("ColumnIndex(%q) error = %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ColumnIndex(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestColumnIndexAmbiguous(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Table: "a", Type: KindInt},
		Column{Name: "id", Table: "b", Type: KindInt},
	)
	if _, err := s.ColumnIndex("id"); err == nil {
		t.Error("bare ambiguous name should error")
	}
	if i, err := s.ColumnIndex("b.id"); err != nil || i != 1 {
		t.Errorf("qualified name should disambiguate: %d, %v", i, err)
	}
}

func TestSchemaProjectConcatClone(t *testing.T) {
	s := testSchema()
	c := s.Concat(s)
	if c.Len() != 2*s.Len() || c.Columns[s.Len()].Name != "id" {
		t.Errorf("Concat = %v", c)
	}
	c.Columns[0].Name = "changed"
	if s.Columns[0].Name != "id" {
		t.Error("Concat should not share column storage")
	}
}

func TestSchemaWithTable(t *testing.T) {
	s := testSchema().WithTable("c")
	for _, col := range s.Columns {
		if col.Table != "c" {
			t.Errorf("WithTable: column %q has table %q", col.Name, col.Table)
		}
	}
	if testSchema().Columns[0].Table != "customers" {
		t.Error("WithTable must not mutate the receiver")
	}
}

func TestSchemaPrimaryKeyAndString(t *testing.T) {
	s := testSchema()
	pk := s.PrimaryKey()
	if len(pk) != 1 || pk[0] != 0 {
		t.Errorf("PrimaryKey = %v", pk)
	}
	str := s.String()
	if !strings.Contains(str, "id INT PRIMARY KEY") || !strings.Contains(str, "name TEXT NOT NULL") {
		t.Errorf("String = %q", str)
	}
}

func TestTupleOperations(t *testing.T) {
	tup := Tuple{NewInt(1), NewString("Ada"), NewString("Boston"), NewFloat(100)}
	cl := tup.Clone()
	cl[0] = NewInt(2)
	if tup[0].Int() != 1 {
		t.Error("Clone should not share storage")
	}
	p := Tuple{tup[1], tup[2]}
	cat := tup.Concat(Tuple{NewBool(true)})
	if len(cat) != 5 {
		t.Errorf("Concat len = %d", len(cat))
	}
	if !tup.Equal(tup.Clone()) {
		t.Error("tuple should equal its clone")
	}
	if tup.Equal(p) {
		t.Error("different-length tuples are not equal")
	}
	if got := p.String(); got != "(Ada, Boston)" {
		t.Errorf("String = %q", got)
	}
}

func TestTupleValidateAgainst(t *testing.T) {
	s := testSchema()
	ok := Tuple{NewInt(1), NewString("Ada"), Null(), NewInt(50)}
	got, err := ok.ValidateAgainst(s)
	if err != nil {
		t.Fatalf("ValidateAgainst: %v", err)
	}
	if got[3].Kind() != KindFloat {
		t.Errorf("credit should be coerced to FLOAT, got %v", got[3].Kind())
	}

	if _, err := (Tuple{NewInt(1)}).ValidateAgainst(s); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := (Tuple{Null(), NewString("Ada"), Null(), Null()}).ValidateAgainst(s); err == nil {
		t.Error("NULL primary key should fail")
	}
	if _, err := (Tuple{NewInt(1), Null(), Null(), Null()}).ValidateAgainst(s); err == nil {
		t.Error("NULL in NOT NULL column should fail")
	}
	if _, err := (Tuple{NewInt(1), NewString("Ada"), NewString("x"), NewString("abc")}).ValidateAgainst(s); err == nil {
		t.Error("uncastable value should fail")
	}
}

func TestQualifiedName(t *testing.T) {
	c := Column{Name: "total", Table: "orders"}
	if c.qualifiedName() != "orders.total" {
		t.Errorf("QualifiedName = %q", c.qualifiedName())
	}
	c.Table = ""
	if c.qualifiedName() != "total" {
		t.Errorf("QualifiedName = %q", c.qualifiedName())
	}
}
