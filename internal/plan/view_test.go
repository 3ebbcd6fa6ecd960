package plan

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

func newViewCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 256))
	if _, err := cat.CreateTable("customers", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "name", Type: types.KindString, NotNull: true},
		types.Column{Name: "city", Type: types.KindString},
		types.Column{Name: "credit", Type: types.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("orders", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "customer_id", Type: types.KindInt},
		types.Column{Name: "total", Type: types.KindFloat},
	)); err != nil {
		t.Fatal(err)
	}
	return cat
}

func analyzeQuery(t *testing.T, cat *catalog.Catalog, name, query string, cols []string) (*Updatable, error) {
	t.Helper()
	def, err := cat.CreateView(name, query, cols)
	if err != nil {
		t.Fatal(err)
	}
	return analyzeView(def, cat, map[string]bool{})
}

func TestAnalyzeSimpleRestriction(t *testing.T) {
	cat := newViewCatalog(t)
	u, err := analyzeQuery(t, cat, "rich", "SELECT id, name, credit FROM customers WHERE credit > 1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.BaseTable != "customers" || len(u.Columns) != 3 {
		t.Fatalf("updatable = %+v", u)
	}
	if u.Where == nil || !strings.Contains(u.Where.String(), "credit") {
		t.Errorf("where = %v", u.Where)
	}
	base, err := u.baseColumn("name")
	if err != nil || base != "name" {
		t.Errorf("BaseColumn = %q, %v", base, err)
	}
	if _, err := u.baseColumn("city"); err == nil {
		t.Error("city is not in the view and must not resolve")
	}
	if len(u.Columns) != 3 || u.Columns[0].ViewColumn != "id" {
		t.Errorf("view columns = %v", u.Columns)
	}
}

func TestAnalyzeStarView(t *testing.T) {
	cat := newViewCatalog(t)
	u, err := analyzeQuery(t, cat, "bostonians", "SELECT * FROM customers WHERE city = 'Boston'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Columns) != 4 {
		t.Errorf("columns = %v", u.Columns)
	}
}

func TestAnalyzeRenamedColumns(t *testing.T) {
	cat := newViewCatalog(t)
	// Column renames both via aliases and the CREATE VIEW column list.
	u, err := analyzeQuery(t, cat, "balances", "SELECT id AS customer, credit FROM customers", []string{"cust", "amount"})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := u.baseColumn("cust"); got != "id" {
		t.Errorf("cust -> %q", got)
	}
	if got, _ := u.baseColumn("amount"); got != "credit" {
		t.Errorf("amount -> %q", got)
	}
}

func TestAnalyzeViewOverView(t *testing.T) {
	cat := newViewCatalog(t)
	if _, err := cat.CreateView("rich", "SELECT id, name, city, credit FROM customers WHERE credit > 1000", nil); err != nil {
		t.Fatal(err)
	}
	u, err := analyzeQuery(t, cat, "rich_boston", "SELECT id, name FROM rich WHERE city = 'Boston'", nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.BaseTable != "customers" {
		t.Errorf("base = %q", u.BaseTable)
	}
	// Both predicates must be retained.
	text := u.Where.String()
	if !strings.Contains(text, "credit") || !strings.Contains(text, "city") {
		t.Errorf("composed predicate = %s", text)
	}
}

func TestAnalyzeNotUpdatable(t *testing.T) {
	cat := newViewCatalog(t)
	cases := []struct {
		name  string
		query string
	}{
		{"v_join", "SELECT c.name, o.total FROM customers c JOIN orders o ON o.customer_id = c.id"},
		{"v_cross", "SELECT c.name FROM customers c, orders o"},
		{"v_agg", "SELECT city, COUNT(*) FROM customers GROUP BY city"},
		{"v_distinct", "SELECT DISTINCT city FROM customers"},
		{"v_computed", "SELECT id, credit * 2 FROM customers"},
		{"v_limit", "SELECT id FROM customers LIMIT 5"},
		{"v_globalagg", "SELECT MAX(credit) FROM customers"},
	}
	for _, c := range cases {
		_, err := analyzeQuery(t, cat, c.name, c.query, nil)
		var notUpdatable *errNotUpdatable
		if !errors.As(err, &notUpdatable) {
			t.Errorf("%s: expected errNotUpdatable, got %v", c.name, err)
		}
	}
}

func TestAnalyzeRecursiveViewRejected(t *testing.T) {
	cat := newViewCatalog(t)
	if _, err := cat.CreateView("a", "SELECT * FROM b", nil); err != nil {
		t.Fatal(err)
	}
	def, err := cat.CreateView("b", "SELECT * FROM a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyzeView(def, cat, map[string]bool{}); err == nil {
		t.Error("mutually recursive views must not be updatable")
	}
}

func TestAnalyzeUnknownRelation(t *testing.T) {
	cat := newViewCatalog(t)
	if _, err := analyzeQuery(t, cat, "ghost", "SELECT * FROM nothing", nil); err == nil {
		t.Error("view over a missing relation should fail analysis")
	}
}

func TestTranslateAssignments(t *testing.T) {
	cat := newViewCatalog(t)
	u, err := analyzeQuery(t, cat, "balances", "SELECT id AS cust, credit AS amount FROM customers", nil)
	if err != nil {
		t.Fatal(err)
	}
	value, _ := sql.ParseExpr("amount + 100")
	got, err := u.translateAssignments([]sql.Assignment{{Column: "amount", Value: value}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Column != "credit" {
		t.Errorf("column = %q", got[0].Column)
	}
	if !strings.Contains(got[0].Value.String(), "credit") {
		t.Errorf("value = %s", got[0].Value.String())
	}
	if _, err := u.translateAssignments([]sql.Assignment{{Column: "city", Value: value}}); err == nil {
		t.Error("assignment to a column outside the view must fail")
	}
}

func TestTranslatePredicate(t *testing.T) {
	cat := newViewCatalog(t)
	u, err := analyzeQuery(t, cat, "rich", "SELECT id, name AS who, city FROM customers WHERE credit > 1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	where, _ := sql.ParseExpr("who LIKE 'A%' AND city = 'Boston'")
	combined, err := u.translatePredicate(where)
	if err != nil {
		t.Fatal(err)
	}
	text := combined.String()
	if !strings.Contains(text, "name LIKE") || !strings.Contains(text, "credit > 1000") {
		t.Errorf("combined = %s", text)
	}
	// A nil outer predicate degenerates to the view predicate.
	only, err := u.translatePredicate(nil)
	if err != nil || only == nil || !strings.Contains(only.String(), "credit") {
		t.Errorf("nil predicate = %v, %v", only, err)
	}
	// Referencing a column outside the view fails.
	bad, _ := sql.ParseExpr("credit > 5")
	if _, err := u.translatePredicate(bad); err == nil {
		t.Error("credit is not a view column; predicate should fail")
	}
}

func TestTranslateInsert(t *testing.T) {
	cat := newViewCatalog(t)
	u, err := analyzeQuery(t, cat, "directory", "SELECT id, name AS who, city FROM customers", nil)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := sql.ParseExpr("1")
	v2, _ := sql.ParseExpr("'Ada'")
	v3, _ := sql.ParseExpr("'Boston'")

	cols, vals, err := u.translateInsert([]string{"id", "who"}, []sql.Expr{v1, v2})
	if err != nil {
		t.Fatal(err)
	}
	if cols[0] != "id" || cols[1] != "name" || len(vals) != 2 {
		t.Errorf("cols = %v", cols)
	}
	// Positional insert (no column list) covers all view columns in order.
	cols, _, err = u.translateInsert(nil, []sql.Expr{v1, v2, v3})
	if err != nil {
		t.Fatal(err)
	}
	if cols[1] != "name" || cols[2] != "city" {
		t.Errorf("positional cols = %v", cols)
	}
	if _, _, err := u.translateInsert(nil, []sql.Expr{v1}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, _, err := u.translateInsert([]string{"credit"}, []sql.Expr{v1}); err == nil {
		t.Error("column outside the view must fail")
	}
}

func TestErrNotUpdatableMessage(t *testing.T) {
	err := &errNotUpdatable{View: "v", Reason: "it contains a join"}
	if !strings.Contains(err.Error(), "v") || !strings.Contains(err.Error(), "join") {
		t.Errorf("Error() = %q", err.Error())
	}
}
