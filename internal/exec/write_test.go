package exec

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

func TestCheckRow(t *testing.T) {
	cat := setup(t)
	if _, err := cat.CreateView("rich_only", "SELECT id, name FROM customers WHERE credit > 1000", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateView("everyone", "SELECT id, name FROM customers", nil); err != nil {
		t.Fatal(err)
	}
	builder := plan.NewBuilder(cat)
	table, u, err := builder.ResolveWriteTarget("rich_only")
	if err != nil {
		t.Fatal(err)
	}
	check, err := compileCheck(u, table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	good := types.Tuple{types.NewInt(1), types.NewString("Ada"), types.NewString("Boston"), types.NewFloat(2000)}
	if err := checkRow(check, u, good); err != nil {
		t.Errorf("good row rejected: %v", err)
	}
	bad := types.Tuple{types.NewInt(2), types.NewString("Bob"), types.NewString("Boston"), types.NewFloat(10)}
	want := `view: row violates the predicate of view "rich_only" and would not be visible through it`
	if err := checkRow(check, u, bad); err == nil || err.Error() != want {
		t.Errorf("row violating the view predicate: %v, want %s", err, want)
	}
	// A view without a predicate compiles no check and accepts everything.
	_, all, err := builder.ResolveWriteTarget("everyone")
	if err != nil {
		t.Fatal(err)
	}
	unchecked, err := compileCheck(all, table.Schema())
	if err != nil || unchecked != nil {
		t.Fatalf("unrestricted view compiled check %v, %v; want none", unchecked, err)
	}
	if err := checkRow(unchecked, all, bad); err != nil {
		t.Errorf("unrestricted view rejected a row: %v", err)
	}
}
