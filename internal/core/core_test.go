package core

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tui"
	"repro/internal/types"
)

// testSchema is the database every core test runs against.
const testSchema = `
CREATE TABLE customers (
	id INT PRIMARY KEY,
	name TEXT NOT NULL,
	city TEXT DEFAULT 'Unknown',
	credit FLOAT DEFAULT 0
);
CREATE TABLE orders (
	id INT PRIMARY KEY,
	customer_id INT NOT NULL,
	item TEXT,
	total FLOAT
);
CREATE INDEX orders_customer ON orders (customer_id);
CREATE VIEW rich AS SELECT id, name, city, credit FROM customers WHERE credit >= 1000;
CREATE VIEW spending AS SELECT customer_id, COUNT(*) AS orders_placed, SUM(total) AS spent FROM orders GROUP BY customer_id;
INSERT INTO customers (id, name, city, credit) VALUES
	(1, 'Ada', 'Boston', 1500),
	(2, 'Bob', 'Boston', 200),
	(3, 'Cyd', 'Chicago', 3000),
	(4, 'Dee', 'Denver', 50);
INSERT INTO orders VALUES
	(100, 1, 'widget', 250),
	(101, 1, 'gadget', 80),
	(102, 3, 'widget', 900),
	(103, 3, 'sprocket', 100);
`

// testForms defines the master order-entry form with a detail block, plus a
// standalone detail form and a view-bound form.
const testForms = `
form order_lines on orders
  title "Order Lines"
  key id
  field id          width 6 readonly
  field customer_id width 6 readonly
  field item        width 12 required
  field total       width 8 validate total >= 0 message "total cannot be negative"
end

form customer_card on customers
  title "Customer Card"
  size 76 20
  key id
  field id     at 2 14 width 8  label "Number"
  field name   at 3 14 width 24 label "Name"   required
  field city   at 4 14 width 16 label "City"   default 'Boston'
  field credit at 5 14 width 10 label "Credit" validate credit >= 0 message "credit cannot be negative"
  computed tier at 6 14 width 12 label "Tier" value UPPER(city)
  order by name
  detail order_lines link customer_id = id rows 4 at 9 2
  trigger before delete check credit < 100 message "customers with credit cannot be removed"
end

form rich_card on rich
  title "Rich Customers"
  key id
  field id width 8
  field name width 24
  field city width 16
  field credit width 10
  order by credit desc
end

form spending_report on spending
  title "Spending"
  field customer_id width 8
  field orders_placed width 8
  field spent width 10
end
`

// newTestManager opens a database, loads the schema and forms, and returns
// the window manager plus the compiled forms by name.
func newTestManager(t testing.TB) (*Manager, map[string]*Form) {
	t.Helper()
	db := engine.OpenMemory()
	if _, err := db.Session().ExecuteScript(testSchema); err != nil {
		t.Fatal(err)
	}
	forms, err := NewCompiler(db).CompileSource(testForms)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Form{}
	for _, f := range forms {
		byName[f.Def.Name] = f
	}
	return NewManager(db, 100, 40), byName
}

// --- compiler ---------------------------------------------------------------

func TestCompileBindsFormsToCatalog(t *testing.T) {
	_, forms := newTestManager(t)
	card := forms["customer_card"]
	if card == nil {
		t.Fatal("customer_card not compiled")
	}
	if card.BaseTable.Name() != "customers" || card.IsView || card.ReadOnly {
		t.Errorf("card binding = %+v", card)
	}
	if len(card.Key) != 1 || card.Schema.Columns[card.Key[0]].Name != "id" {
		t.Errorf("key = %v", card.Key)
	}
	if len(card.Fields) != 5 {
		t.Errorf("fields = %d", len(card.Fields))
	}
	tier, ok := card.fieldByName("tier")
	if !ok || !tier.computed() || tier.Value == nil {
		t.Errorf("computed field = %+v", tier)
	}
	if len(card.Details) != 1 || card.Details[0].Child.Def.Name != "order_lines" {
		t.Errorf("details = %+v", card.Details)
	}
	if len(card.Triggers) != 1 {
		t.Errorf("triggers = %+v", card.Triggers)
	}
	if !card.dependsOn("customers") || card.dependsOn("orders") {
		t.Error("DependsOn wrong")
	}

	rich := forms["rich_card"]
	if !rich.IsView || rich.ReadOnly || rich.Updatable == nil || rich.BaseTable.Name() != "customers" {
		t.Errorf("rich binding = %+v", rich)
	}
	report := forms["spending_report"]
	if !report.ReadOnly {
		t.Error("a form over an aggregating view must be read-only")
	}
	// Forms are registered in the catalog for later reloads.
	if _, err := rich.BaseTable, error(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompileErrors(t *testing.T) {
	db := engine.OpenMemory()
	if _, err := db.Session().ExecuteScript(testSchema); err != nil {
		t.Fatal(err)
	}
	compiler := NewCompiler(db)
	cases := map[string]string{
		"unknown relation": "form f on nothing\n field x\nend\n",
		"unknown column":   "form f on customers\n field nosuch\nend\n",
		"bad key":          "form f on customers\n key nosuch\n field id\nend\n",
		"bad validate col": "form f on customers\n field id validate nosuch > 0\nend\n",
		"bad computed":     "form f on customers\n computed x value nosuch + 1\nend\n",
		"bad filter":       "form f on customers\n field id\n filter nosuch = 1\nend\n",
		"bad order":        "form f on customers\n field id\n order by nosuch\nend\n",
		"bad trigger":      "form f on customers\n field id\n trigger before insert check nosuch = 1\nend\n",
		"bad detail form":  "form f on customers\n field id\n detail missing link customer_id = id\nend\n",
		"bad detail col":   "form f on customers\n field id\n detail f link nosuch = id\nend\n",
	}
	for name, source := range cases {
		if _, err := compiler.CompileSource(source); err == nil {
			t.Errorf("%s: CompileSource should fail", name)
		}
	}
}

// --- query by form ------------------------------------------------------------

func TestBuildFieldPredicate(t *testing.T) {
	m, forms := newTestManager(t)
	card := forms["customer_card"]
	credit, _ := card.fieldByName("credit")
	name, _ := card.fieldByName("name")
	city, _ := card.fieldByName("city")

	cases := []struct {
		field   *Field
		pattern string
		want    string
		binds   map[string]types.Value
	}{
		{credit, ">1000", "(credit > @q_credit)", map[string]types.Value{"q_credit": types.NewFloat(1000)}},
		{credit, ">= 50", "(credit >= @q_credit)", map[string]types.Value{"q_credit": types.NewFloat(50)}},
		{credit, "<>0", "(credit <> @q_credit)", map[string]types.Value{"q_credit": types.NewFloat(0)}},
		{credit, "100..500", "(credit BETWEEN @q_credit_lo AND @q_credit_hi)",
			map[string]types.Value{"q_credit_lo": types.NewFloat(100), "q_credit_hi": types.NewFloat(500)}},
		{credit, "250", "(credit = @q_credit)", map[string]types.Value{"q_credit": types.NewFloat(250)}},
		{name, "Bo%", "(name LIKE @q_name)", map[string]types.Value{"q_name": types.NewString("Bo%")}},
		{name, "_da", "(name LIKE @q_name)", map[string]types.Value{"q_name": types.NewString("_da")}},
		{name, "Ada", "(name = @q_name)", map[string]types.Value{"q_name": types.NewString("Ada")}},
		{city, "null", "(city IS NULL)", map[string]types.Value{}},
		{city, "not null", "(city IS NOT NULL)", map[string]types.Value{}},
	}
	for _, c := range cases {
		binds := map[string]types.Value{}
		got, err := fieldPredicate(c.field, c.pattern, "q_"+c.field.name(), binds)
		if err != nil {
			t.Errorf("pattern %q: %v", c.pattern, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("pattern %q = %s, want %s", c.pattern, got.String(), c.want)
		}
		if len(binds) != len(c.binds) {
			t.Errorf("pattern %q binds %v, want %v", c.pattern, binds, c.binds)
		}
		for k, want := range c.binds {
			if v, ok := binds[k]; !ok || !v.Equal(want) {
				t.Errorf("pattern %q binds %s = %v, want %v", c.pattern, k, v, want)
			}
		}
	}
	// Blank patterns contribute nothing.
	if got, err := fieldPredicate(credit, "  ", "q_credit", map[string]types.Value{}); err != nil || got != nil {
		t.Errorf("blank pattern = %v, %v", got, err)
	}
	// Bad values are reported.
	if _, err := fieldPredicate(credit, ">abc", "q_credit", map[string]types.Value{}); err == nil {
		t.Error("non-numeric comparison should fail")
	}
	// Computed fields cannot be queried.
	tier, _ := card.fieldByName("tier")
	if _, err := fieldPredicate(tier, "BOSTON", "q_tier", map[string]types.Value{}); err == nil {
		t.Error("querying a computed field should fail")
	}
	// Combined predicate follows field order.
	combined, err := qbfPredicate(card, map[string]string{"city": "Boston", "credit": ">100"}, map[string]types.Value{})
	if err != nil {
		t.Fatal(err)
	}
	if got := combined.String(); !strings.Contains(got, "city = @q_city") || !strings.Contains(got, "credit > @q_credit") {
		t.Errorf("combined = %s", got)
	}
	// A key pattern, in the parameterized form the pager runs, plans as an
	// index lookup rather than a scan.
	keyPred, err := qbfPredicate(card, map[string]string{"id": "2"}, map[string]types.Value{})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := m.db.Session().Prepare("SELECT * FROM customers WHERE " + keyPred.String())
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if exp := stmt.ExplainPlan(); !strings.Contains(exp, "index lookup") {
		t.Errorf("key QBF %s does not plan as an index lookup:\n%s", keyPred, exp)
	}
}

// --- window runtime ------------------------------------------------------------

func TestWindowBrowseAndNavigate(t *testing.T) {
	m, forms := newTestManager(t)
	w, err := m.Open(forms["customer_card"], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != 4 || w.Cursor() != 0 {
		t.Fatalf("rows = %d cursor = %d", w.RowCount(), w.Cursor())
	}
	// Ordered by name: Ada, Bob, Cyd, Dee.
	row, _ := w.CurrentRow()
	if row[1].Str() != "Ada" {
		t.Errorf("first row = %v", row)
	}
	if err := w.nextRow(); err != nil {
		t.Fatal(err)
	}
	row, _ = w.CurrentRow()
	if row[1].Str() != "Bob" {
		t.Errorf("second row = %v", row)
	}
	_ = w.lastRow()
	row, _ = w.CurrentRow()
	if row[1].Str() != "Dee" {
		t.Errorf("last row = %v", row)
	}
	_ = w.firstRow()
	if w.Cursor() != 0 {
		t.Errorf("cursor = %d", w.Cursor())
	}
	if row, ok := w.CurrentRow(); !ok || row[w.form.Key[0]].Int() != 1 {
		t.Errorf("current row = %v", row)
	}
}

func TestWindowQueryByForm(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	if err := w.Query(map[string]string{"city": "Boston"}); err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != 2 {
		t.Errorf("Boston rows = %d", w.RowCount())
	}
	if err := w.Query(map[string]string{"credit": ">1000"}); err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != 2 {
		t.Errorf("credit rows = %d", w.RowCount())
	}
	if err := w.Query(map[string]string{"city": "Boston", "credit": ">1000"}); err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != 1 {
		t.Errorf("combined rows = %d", w.RowCount())
	}
	// Clearing the query shows everything again.
	if err := w.Query(nil); err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != 4 {
		t.Errorf("cleared rows = %d", w.RowCount())
	}
	// Unknown field.
	if err := w.Query(map[string]string{"nosuch": "1"}); err == nil {
		t.Error("unknown query field should fail")
	}
}

func TestWindowComputedFieldAndFieldText(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	tier, _ := w.form.fieldByName("tier")
	if got := w.fieldText(tier); got != "BOSTON" {
		t.Errorf("computed field = %q", got)
	}
	credit, _ := w.form.fieldByName("credit")
	if got := w.fieldText(credit); got != "1500" {
		t.Errorf("credit text = %q", got)
	}
}

func TestWindowInsertSaveAndDefaults(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	if err := w.BeginInsert(); err != nil {
		t.Fatal(err)
	}
	if w.Mode() != ModeInsert {
		t.Errorf("mode = %v", w.Mode())
	}
	if err := w.SetFieldText("id", "10"); err != nil {
		t.Fatal(err)
	}
	if err := w.SetFieldText("name", "Eve"); err != nil {
		t.Fatal(err)
	}
	// city left blank: the field default 'Boston' must apply.
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	if w.Mode() != ModeBrowse {
		t.Errorf("mode after save = %v", w.Mode())
	}
	if w.RowCount() != 5 {
		t.Errorf("rows after insert = %d", w.RowCount())
	}
	res, _ := m.db.Session().Query("SELECT city, credit FROM customers WHERE id = 10")
	if res.Rows[0][0].Str() != "Boston" {
		t.Errorf("default city = %v", res.Rows[0][0])
	}
	if w.Stats().Saves != 1 {
		t.Errorf("stats = %+v", w.Stats())
	}
}

func TestWindowValidationAndRequired(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	// Required field missing.
	_ = w.BeginInsert()
	_ = w.SetFieldText("id", "11")
	if err := w.Save(); err == nil || !strings.Contains(err.Error(), "required") {
		t.Errorf("missing required field: %v", err)
	}
	// Validation rule failure.
	w.cancel()
	_ = w.BeginInsert()
	_ = w.SetFieldText("id", "11")
	_ = w.SetFieldText("name", "Eve")
	_ = w.SetFieldText("credit", "-5")
	if err := w.Save(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("validation message: %v", err)
	}
	// Bad domain text.
	w.cancel()
	_ = w.BeginInsert()
	_ = w.SetFieldText("id", "abc")
	_ = w.SetFieldText("name", "Eve")
	if err := w.Save(); err == nil {
		t.Error("non-numeric id should fail")
	}
	// Nothing was written.
	res, _ := m.db.Session().Query("SELECT COUNT(*) FROM customers")
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("row count = %v", res.Rows[0][0])
	}
}

func TestWindowEditUpdateAndKeyTargeting(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	_ = w.nextRow() // Bob
	if err := w.beginEdit(); err != nil {
		t.Fatal(err)
	}
	if err := w.SetFieldText("credit", "950"); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	res, _ := m.db.Session().Query("SELECT credit FROM customers WHERE id = 2")
	if res.Rows[0][0].Float() != 950 {
		t.Errorf("credit = %v", res.Rows[0][0])
	}
	// Only Bob changed.
	res, _ = m.db.Session().Query("SELECT SUM(credit) FROM customers")
	if res.Rows[0][0].Float() != 1500+950+3000+50 {
		t.Errorf("sum = %v", res.Rows[0][0])
	}
	// Saving with no changes is a no-op.
	_ = w.beginEdit()
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.Status(), "no changes") {
		t.Errorf("status = %q", w.Status())
	}
}

func TestWindowDeleteAndTrigger(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	// Ada has credit 1500: the before-delete trigger (credit < 100) blocks it.
	if err := w.deleteCurrent(); err == nil || !strings.Contains(err.Error(), "cannot be removed") {
		t.Errorf("trigger should block: %v", err)
	}
	// Dee (credit 50) can be deleted.
	_ = w.lastRow()
	if err := w.deleteCurrent(); err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != 3 {
		t.Errorf("rows = %d", w.RowCount())
	}
	res, _ := m.db.Session().Query("SELECT COUNT(*) FROM customers")
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("customers = %v", res.Rows[0][0])
	}
}

func TestWindowOverUpdatableView(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["rich_card"], 0, 0)
	if w.RowCount() != 2 { // Ada and Cyd
		t.Fatalf("rich rows = %d", w.RowCount())
	}
	// Update through the view.
	_ = w.beginEdit()
	_ = w.SetFieldText("city", "Back Bay")
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	res, _ := m.db.Session().Query("SELECT city FROM customers WHERE id = 3")
	if res.Rows[0][0].Str() != "Back Bay" {
		t.Errorf("city through view = %v", res.Rows[0][0])
	}
	// An edit that would push the row out of the view is rejected by the
	// check option and reported on the status line.
	_ = w.beginEdit()
	_ = w.SetFieldText("credit", "5")
	if err := w.Save(); err == nil {
		t.Error("update leaving the view should fail")
	}
	// Insert through the view.
	w.cancel()
	_ = w.BeginInsert()
	_ = w.SetFieldText("id", "20")
	_ = w.SetFieldText("name", "Gil")
	_ = w.SetFieldText("credit", "2500")
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	if w.RowCount() != 3 {
		t.Errorf("rich rows after insert = %d", w.RowCount())
	}
}

func TestReadOnlyFormRejectsWrites(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["spending_report"], 0, 0)
	if w.RowCount() != 2 {
		t.Errorf("report rows = %d", w.RowCount())
	}
	if err := w.BeginInsert(); err == nil {
		t.Error("insert on a read-only form should fail")
	}
	if err := w.beginEdit(); err == nil {
		t.Error("edit on a read-only form should fail")
	}
	if err := w.deleteCurrent(); err == nil {
		t.Error("delete on a read-only form should fail")
	}
}

func TestMasterDetailSynchronisation(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	var detail *Window
	if len(w.details) > 0 {
		detail = w.details[0]
	}
	if detail == nil {
		t.Fatal("detail window missing")
	}
	// Cursor starts on Ada (2 orders).
	if detail.RowCount() != 2 {
		t.Errorf("Ada's orders = %d", detail.RowCount())
	}
	// Moving to Bob (no orders) empties the detail.
	_ = w.nextRow()
	if detail.RowCount() != 0 {
		t.Errorf("Bob's orders = %d", detail.RowCount())
	}
	// Cyd has 2 orders.
	_ = w.nextRow()
	if detail.RowCount() != 2 {
		t.Errorf("Cyd's orders = %d", detail.RowCount())
	}
	// The detail block is rendered inside the master window.
	text := w.Screen().String()
	if !strings.Contains(text, "Order Lines") || !strings.Contains(text, "widget") {
		t.Errorf("master screen missing detail grid:\n%s", text)
	}
}

func TestWindowRenderContents(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	text := w.Screen().String()
	for _, want := range []string{"Customer Card", "BROWSE", "Name", "Ada", "Boston", "row 1 of 4"} {
		if !strings.Contains(text, want) {
			t.Errorf("screen missing %q:\n%s", want, text)
		}
	}
	if w.Stats().Repaints == 0 || w.Stats().CellsPainted == 0 {
		t.Errorf("stats = %+v", w.Stats())
	}
}

// --- keystroke-driven interaction ------------------------------------------------

func TestKeystrokeQueryByForm(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	// F2 enters query mode, type a city pattern into the city field
	// (fields tab order: id, name, city, ...), F4 executes.
	script := "<F2><TAB><TAB>Boston<F4>"
	if err := w.HandleScript(script); err != nil {
		t.Fatal(err)
	}
	if w.Mode() != ModeBrowse || w.RowCount() != 2 {
		t.Errorf("after query: mode=%v rows=%d", w.Mode(), w.RowCount())
	}
	if w.Stats().Keystrokes == 0 {
		t.Error("keystrokes not counted")
	}
}

func TestKeystrokeInsertAndSave(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	// F3 clears the city field's pre-filled default before typing over it.
	script := "<F5>30<TAB>Hal<TAB><F3>Austin<TAB>75<F6>"
	if err := w.HandleScript(script); err != nil {
		t.Fatal(err)
	}
	if w.Mode() != ModeBrowse {
		t.Errorf("mode = %v status=%q", w.Mode(), w.Status())
	}
	res, _ := m.db.Session().Query("SELECT name, city FROM customers WHERE id = 30")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Hal" || res.Rows[0][1].Str() != "Austin" {
		t.Errorf("inserted row = %v", res.Rows)
	}
}

func TestKeystrokeEditNavigationAndCancel(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	// Typing in browse mode starts an edit; ESC cancels it without a write.
	if err := w.HandleScript("X<ESC>"); err != nil {
		t.Fatal(err)
	}
	if w.Mode() != ModeBrowse {
		t.Errorf("mode = %v", w.Mode())
	}
	res, _ := m.db.Session().Query("SELECT COUNT(*) FROM customers WHERE name LIKE '%X%'")
	if res.Rows[0][0].Int() != 0 {
		t.Error("cancelled edit must not write")
	}
	// Arrow keys browse; F7 deletes (blocked by trigger for rich customers).
	if err := w.HandleScript("<DOWN><DOWN><UP>"); err != nil {
		t.Fatal(err)
	}
	if w.Cursor() != 1 {
		t.Errorf("cursor = %d", w.Cursor())
	}
	// Backspace during entry edits the buffer.
	if err := w.HandleScript("<F5>4x<BACKSPACE>1<TAB>Ned<F6>"); err != nil {
		t.Fatal(err)
	}
	res, _ = m.db.Session().Query("SELECT name FROM customers WHERE id = 41")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Ned" {
		t.Errorf("backspaced insert = %v", res.Rows)
	}
}

// --- window manager ---------------------------------------------------------------

func TestManagerPropagationBetweenWindows(t *testing.T) {
	m, forms := newTestManager(t)
	browse, _ := m.Open(forms["customer_card"], 0, 0)
	richWin, _ := m.Open(forms["rich_card"], 0, 40)
	if richWin.RowCount() != 2 {
		t.Fatalf("rich rows = %d", richWin.RowCount())
	}
	// Give Bob a fortune through the first window; the rich window must see
	// him appear without being touched.
	m.Focus(browse)
	_ = browse.nextRow() // Bob
	_ = browse.beginEdit()
	_ = browse.SetFieldText("credit", "8000")
	if err := browse.Save(); err != nil {
		t.Fatal(err)
	}
	if richWin.RowCount() != 3 {
		t.Errorf("rich window did not refresh: rows = %d", richWin.RowCount())
	}
	if m.PropagationCount() == 0 || m.WindowsRefreshed() == 0 {
		t.Errorf("propagation stats = %d/%d", m.PropagationCount(), m.WindowsRefreshed())
	}
	// Refresh work grows with the windows open on the written relation: two
	// more windows over customers cost two more refreshes per commit.
	perCommit := m.WindowsRefreshed() // opening a window counts no refresh
	for i := 0; i < 2; i++ {
		if _, err := m.Open(forms["rich_card"], 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Focus(browse)
	_ = browse.beginEdit()
	_ = browse.SetFieldText("credit", "9000")
	if err := browse.Save(); err != nil {
		t.Fatal(err)
	}
	if got := m.WindowsRefreshed() - perCommit; got != perCommit+2 {
		t.Errorf("commit with 2 more windows open refreshed %d, want %d", got, perCommit+2)
	}
	// A write into an unrelated table does not refresh customer windows.
	ordersForm, err := NewCompiler(m.db).CompileSource("form o on orders\n key id\n field id\n field customer_id\n field item\n field total\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	ow, _ := m.Open(ordersForm[0], 0, 0)
	_ = ow.BeginInsert()
	_ = ow.SetFieldText("id", "500")
	_ = ow.SetFieldText("customer_id", "2")
	_ = ow.SetFieldText("item", "thing")
	_ = ow.SetFieldText("total", "5")
	if err := ow.Save(); err != nil {
		t.Fatal(err)
	}
	// customer_card depends on customers only; but its detail depends on
	// orders, so it does refresh. The rich window (no orders dependency)
	// must not have been refreshed by the orders write.
	if got := richWin.Stats().Refreshes; got != 3 { // initial + two credit changes
		t.Errorf("rich window refreshes = %d, want 3", got)
	}
}

func TestManagerFocusCompositeAndClose(t *testing.T) {
	m, forms := newTestManager(t)
	w1, _ := m.Open(forms["customer_card"], 0, 0)
	w2, _ := m.Open(forms["order_lines"], 2, 4)
	if m.focused() != w2 {
		t.Error("newest window should have focus")
	}
	m.focusNext()
	if m.focused() != w1 {
		t.Error("FocusNext should wrap")
	}
	m.focusPrev()
	if m.focused() != w2 {
		t.Error("FocusPrev should return")
	}
	// F8 cycles focus through the manager's key handling.
	if err := m.handleKey(tui.KeyEvent(tui.KeyF8)); err != nil {
		t.Fatal(err)
	}
	if m.focused() != w1 {
		t.Error("F8 should switch windows")
	}
	screenText := m.Screen().String()
	if !strings.Contains(screenText, "Customer Card") || !strings.Contains(screenText, "windows:") {
		t.Errorf("composite screen:\n%s", screenText)
	}
	// F10 closes the focused window.
	if err := m.handleKey(tui.KeyEvent(tui.KeyF10)); err != nil {
		t.Fatal(err)
	}
	if len(m.windows) != 1 {
		t.Errorf("windows = %d", len(m.windows))
	}
	m.Close(w2)
	if len(m.windows) != 0 {
		t.Errorf("windows = %d", len(m.windows))
	}
	if err := m.handleKey(tui.Event{Key: tui.KeyRune, Rune: 'x'}); err == nil {
		t.Error("keys with no window open should error")
	}
}

func TestManagerScriptDrivesFocusedWindow(t *testing.T) {
	m, forms := newTestManager(t)
	if _, err := m.Open(forms["customer_card"], 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.HandleScript("<F2><TAB><TAB>Chicago<F4>"); err != nil {
		t.Fatal(err)
	}
	if m.focused().RowCount() != 1 {
		t.Errorf("rows = %d", m.focused().RowCount())
	}
}

// --- values / fixture sanity ----------------------------------------------------

func TestFormValueRoundTrip(t *testing.T) {
	m, forms := newTestManager(t)
	w, _ := m.Open(forms["customer_card"], 0, 0)
	row, ok := w.CurrentRow()
	if !ok || row[0].Kind() != types.KindInt {
		t.Errorf("row = %v", row)
	}
}

func TestCompileStandaloneDetailResolution(t *testing.T) {
	db := engine.OpenMemory()
	if _, err := db.Session().ExecuteScript(testSchema); err != nil {
		t.Fatal(err)
	}
	compiler := NewCompiler(db)
	lines, err := compiler.CompileSource("form lines on orders\n key id\n field id\n field customer_id\n field item\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	masters, err := compiler.CompileSource("form master on customers\n key id\n field id\n field name\n detail lines link customer_id = id\nend\n", lines...)
	if err != nil {
		t.Fatal(err)
	}
	compiled := masters[0]
	if len(compiled.Details) != 1 || compiled.Details[0].Child != lines[0] {
		t.Errorf("details = %+v", compiled.Details)
	}
}
