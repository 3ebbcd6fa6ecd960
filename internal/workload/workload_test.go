package workload

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tui"
)

func TestPopulateCreatesConsistentData(t *testing.T) {
	db := engine.OpenMemory()
	sizes := Sizes{Customers: 100, Orders: 300, ItemsPerOrder: 2}
	if err := Populate(core.NewEngineSource(db.Session()), sizes); err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	counts := map[string]int64{
		"customers":   100,
		"orders":      300,
		"order_items": 600,
	}
	for table, want := range counts {
		res, err := s.Query("SELECT COUNT(*) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Errorf("%s count = %d, want %d", table, got, want)
		}
	}
	// Every order references an existing customer.
	res, err := s.Query("SELECT COUNT(*) FROM orders o LEFT JOIN customers c ON c.id = o.customer_id WHERE c.id IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Error("orders reference missing customers")
	}
	// Views exist.
	if _, err := s.Query("SELECT COUNT(*) FROM good_customers"); err != nil {
		t.Errorf("good_customers view: %v", err)
	}
}

func TestPopulateIsDeterministic(t *testing.T) {
	sum := func() float64 {
		db := engine.OpenMemory()
		if err := Populate(core.NewEngineSource(db.Session()), SmallSizes); err != nil {
			t.Fatal(err)
		}
		res, err := db.Session().Query("SELECT SUM(credit) FROM customers")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Float()
	}
	if sum() != sum() {
		t.Error("two runs with the same sizes should produce identical data")
	}
}

func TestStandardFormsCompileAndRun(t *testing.T) {
	db := engine.OpenMemory()
	if err := Populate(core.NewEngineSource(db.Session()), SmallSizes); err != nil {
		t.Fatal(err)
	}
	forms, err := core.NewCompiler(db).CompileSource(StandardForms)
	if err != nil {
		t.Fatal(err)
	}
	if len(forms) != 4 {
		t.Fatalf("forms = %d", len(forms))
	}
	m := core.NewManager(db, 100, 30)
	for _, f := range forms {
		w, err := m.Open(f, 0, 0)
		if err != nil {
			t.Fatalf("open %s: %v", f.Def.Name, err)
		}
		if w.RowCount() == 0 {
			t.Errorf("%s shows no rows", f.Def.Name)
		}
	}
}

func TestScriptsParseAndRun(t *testing.T) {
	scripts := []string{
		CustomerLookupScript("Boston", 2),
		CreditChangeScript("1250"),
		OrderEntryScript(5000, 3, "99.95"),
	}
	for _, s := range scripts {
		if _, err := tui.ParseScript(s); err != nil {
			t.Errorf("script %q: %v", s, err)
		}
	}
	if !strings.Contains(CustomerLookupScript("Erie", 1), "Erie") {
		t.Error("lookup script should include the city")
	}
}
