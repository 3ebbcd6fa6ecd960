package core

import (
	"testing"

	"repro/internal/types"
)

// TestBuildFieldPredicateParamShapes checks that each pattern shape renders a
// parameter template plus bindings, and that two patterns with the same shape
// share the template text (the property window statement reuse rests on).
func TestBuildFieldPredicateParamShapes(t *testing.T) {
	_, forms := newTestManager(t)
	card := forms["customer_card"]
	credit, _ := card.fieldByName("credit")
	city, _ := card.fieldByName("city")

	cases := []struct {
		field   *Field
		pattern string
		want    string
		binds   int
	}{
		{credit, ">1000", "(credit > @q_credit)", 1},
		{credit, "100..500", "(credit BETWEEN @q_credit_lo AND @q_credit_hi)", 2},
		{credit, "250", "(credit = @q_credit)", 1},
		{city, "Bo%", "(city LIKE @q_city)", 1},
		{city, "null", "(city IS NULL)", 0},
		{city, "not null", "(city IS NOT NULL)", 0},
	}
	for _, c := range cases {
		binds := map[string]types.Value{}
		got, err := fieldPredicate(c.field, c.pattern, "q_"+c.field.name(), binds)
		if err != nil {
			t.Fatalf("%s %q: %v", c.field.name(), c.pattern, err)
		}
		if got.String() != c.want {
			t.Errorf("%s %q: template = %s, want %s", c.field.name(), c.pattern, got.String(), c.want)
		}
		if len(binds) != c.binds {
			t.Errorf("%s %q: %d bindings, want %d", c.field.name(), c.pattern, len(binds), c.binds)
		}
	}

	// Same shape, different operand: identical template text.
	bindsA, bindsB := map[string]types.Value{}, map[string]types.Value{}
	a, _ := fieldPredicate(credit, ">1000", "q_credit", bindsA)
	b, _ := fieldPredicate(credit, ">2500", "q_credit", bindsB)
	if a.String() != b.String() {
		t.Errorf("same shape should share a template: %s vs %s", a.String(), b.String())
	}
	if bindsA["q_credit"].Float() == bindsB["q_credit"].Float() {
		t.Error("bindings should differ")
	}
}

// TestWindowRefreshReusesPreparedStatement checks the refresh hot path: after
// the first query of a given shape, re-querying with a different operand (or
// moving a master cursor, which rebinds the detail link) prepares nothing new.
func TestWindowRefreshReusesPreparedStatement(t *testing.T) {
	m, forms := newTestManager(t)
	w, err := m.Open(forms["customer_card"], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := m.db

	if err := w.Query(map[string]string{"city": "Boston"}); err != nil {
		t.Fatal(err)
	}
	prepared := db.Stats().StatementsPrepared

	// Same shape, different value: no new statement.
	for _, city := range []string{"Lowell", "Boston", "Lowell"} {
		if err := w.Query(map[string]string{"city": city}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Stats().StatementsPrepared; got != prepared {
		t.Fatalf("statements prepared grew %d -> %d on same-shape refreshes", prepared, got)
	}

	// A different shape (comparison instead of equality) prepares once ...
	if err := w.Query(map[string]string{"credit": ">100"}); err != nil {
		t.Fatal(err)
	}
	afterNewShape := db.Stats().StatementsPrepared
	if afterNewShape == prepared {
		t.Fatal("a new shape should prepare a statement")
	}
	// ... and only once.
	if err := w.Query(map[string]string{"credit": ">900"}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().StatementsPrepared; got != afterNewShape {
		t.Fatalf("statements prepared grew %d -> %d on a repeated shape", afterNewShape, got)
	}
}
