package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

// setup creates customers (6 rows) and orders (8 rows) with indexes, plus a
// "rich" view, and returns the catalog.
func setup(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 512))
	customers, err := cat.CreateTable("customers", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "name", Type: types.KindString, NotNull: true},
		types.Column{Name: "city", Type: types.KindString},
		types.Column{Name: "credit", Type: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	orders, err := cat.CreateTable("orders", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "customer_id", Type: types.KindInt, NotNull: true},
		types.Column{Name: "total", Type: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("customers_city", "customers", []string{"city"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("orders_customer", "orders", []string{"customer_id"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateView("rich", "SELECT id, name, credit FROM customers WHERE credit >= 1000", nil); err != nil {
		t.Fatal(err)
	}

	custRows := []struct {
		id     int64
		name   string
		city   string
		credit float64
	}{
		{1, "Ada", "Boston", 1500},
		{2, "Bob", "Boston", 200},
		{3, "Cyd", "Chicago", 3000},
		{4, "Dee", "Denver", 50},
		{5, "Eli", "Chicago", 1000},
		{6, "Fay", "Boston", 700},
	}
	for _, r := range custRows {
		if _, _, err := customers.InsertVersion(catalog.Tuple{
			types.NewInt(r.id), types.NewString(r.name), types.NewString(r.city), types.NewFloat(r.credit),
		}, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	orderRows := []struct {
		id, cust int64
		total    float64
	}{
		{100, 1, 250}, {101, 1, 80}, {102, 2, 40},
		{103, 3, 900}, {104, 3, 100}, {105, 3, 60},
		{106, 5, 500}, {107, 9, 10}, // order 107 references a missing customer
	}
	for _, r := range orderRows {
		if _, _, err := orders.InsertVersion(catalog.Tuple{
			types.NewInt(r.id), types.NewInt(r.cust), types.NewFloat(r.total),
		}, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func query(t testing.TB, cat *catalog.Catalog, q string) *result {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	node, err := plan.NewBuilder(cat).Build(sel)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	res, err := run(node)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return res
}

func TestSelectAll(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT * FROM customers")
	if len(res.Rows) != 6 || res.Schema.Len() != 4 {
		t.Errorf("rows=%d cols=%d", len(res.Rows), res.Schema.Len())
	}
}

func TestWhereFilterSeqScan(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT name FROM customers WHERE credit > 800")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestIndexEqualityLookup(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT name FROM customers WHERE id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Cyd" {
		t.Errorf("rows = %v", res.Rows)
	}
	res2 := query(t, cat, "SELECT name FROM customers WHERE city = 'Boston'")
	if len(res2.Rows) != 3 {
		t.Errorf("Boston rows = %v", res2.Rows)
	}
}

func TestIndexRangeScan(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT id FROM customers WHERE id > 2 AND id <= 5")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Results from an index range scan come back in key order.
	for i, want := range []int64{3, 4, 5} {
		if res.Rows[i][0].Int() != want {
			t.Errorf("row %d = %v", i, res.Rows[i])
		}
	}
	res2 := query(t, cat, "SELECT id FROM customers WHERE id BETWEEN 2 AND 4")
	if len(res2.Rows) != 3 {
		t.Errorf("BETWEEN rows = %v", res2.Rows)
	}
}

func TestProjectionExpressions(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT name, credit * 2 AS doubled, UPPER(city) FROM customers WHERE id = 1")
	row := res.Rows[0]
	if row[0].Str() != "Ada" || row[1].Float() != 3000 || row[2].Str() != "BOSTON" {
		t.Errorf("row = %v", row)
	}
	if res.Schema.Columns[1].Name != "doubled" {
		t.Errorf("schema = %v", res.Schema)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT name FROM customers ORDER BY credit DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "Cyd" || res.Rows[1][0].Str() != "Ada" {
		t.Errorf("rows = %v", res.Rows)
	}
	res2 := query(t, cat, "SELECT name FROM customers ORDER BY credit DESC LIMIT 2 OFFSET 2")
	if len(res2.Rows) != 2 || res2.Rows[0][0].Str() != "Eli" {
		t.Errorf("offset rows = %v", res2.Rows)
	}
	res3 := query(t, cat, "SELECT name FROM customers ORDER BY city ASC, credit DESC")
	if res3.Rows[0][0].Str() != "Ada" || res3.Rows[1][0].Str() != "Fay" {
		t.Errorf("multi-key sort = %v", res3.Rows)
	}
}

func TestDistinct(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT DISTINCT city FROM customers")
	if len(res.Rows) != 3 {
		t.Errorf("distinct cities = %v", res.Rows)
	}
}

func TestInnerJoinHash(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, `SELECT c.name, o.total FROM customers c JOIN orders o ON o.customer_id = c.id ORDER BY o.total DESC`)
	if len(res.Rows) != 7 { // order 107 has no matching customer
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "Cyd" || res.Rows[0][1].Float() != 900 {
		t.Errorf("first row = %v", res.Rows[0])
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, `SELECT c.name, o.id FROM customers c LEFT JOIN orders o ON o.customer_id = c.id ORDER BY c.id`)
	// 7 matched rows + 2 customers with no orders (Dee, Fay) = 9.
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	nullCount := 0
	for _, row := range res.Rows {
		if row[1].IsNull() {
			nullCount++
		}
	}
	if nullCount != 2 {
		t.Errorf("unmatched rows = %d, want 2", nullCount)
	}
}

func TestCrossJoinWithWhere(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT c.name, o.id FROM customers c, orders o WHERE c.id = o.customer_id AND o.total > 400")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestNonEquiJoin(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT c.name, o.id FROM customers c JOIN orders o ON o.total > c.credit")
	// Each pair where order total exceeds customer credit.
	if len(res.Rows) == 0 {
		t.Fatal("expected some rows")
	}
	for _, row := range res.Rows {
		if row[0].IsNull() {
			t.Errorf("unexpected null row %v", row)
		}
	}
}

func TestGroupByAggregates(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT city, COUNT(*), SUM(credit), AVG(credit), MIN(credit), MAX(credit) FROM customers GROUP BY city ORDER BY city")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %v", res.Rows)
	}
	boston := res.Rows[0]
	if boston[0].Str() != "Boston" || boston[1].Int() != 3 || boston[2].Float() != 2400 || boston[3].Float() != 800 {
		t.Errorf("Boston group = %v", boston)
	}
	if boston[4].Float() != 200 || boston[5].Float() != 1500 {
		t.Errorf("Boston min/max = %v", boston)
	}
}

func TestHavingFilter(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT city, COUNT(*) FROM customers GROUP BY city HAVING COUNT(*) >= 2 ORDER BY city")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "Boston" || res.Rows[1][0].Str() != "Chicago" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT COUNT(*), SUM(credit) FROM customers WHERE id > 1000")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", res.Rows[0])
	}
}

func TestCountDistinctionBetweenStarAndColumn(t *testing.T) {
	cat := setup(t)
	customers, _ := cat.GetTable("customers")
	if _, _, err := customers.InsertVersion(catalog.Tuple{types.NewInt(7), types.NewString("Gus"), types.Null(), types.Null()}, 0, nil); err != nil {
		t.Fatal(err)
	}
	res := query(t, cat, "SELECT COUNT(*), COUNT(city) FROM customers")
	if res.Rows[0][0].Int() != 7 || res.Rows[0][1].Int() != 6 {
		t.Errorf("COUNT(*) vs COUNT(city) = %v", res.Rows[0])
	}
}

func TestAggregateOverJoin(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, `SELECT c.name, COUNT(*), SUM(o.total)
		FROM customers c JOIN orders o ON o.customer_id = c.id
		GROUP BY c.name ORDER BY SUM(o.total) DESC`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "Cyd" || res.Rows[0][2].Float() != 1060 {
		t.Errorf("top spender = %v", res.Rows[0])
	}
}

func TestViewQuery(t *testing.T) {
	cat := setup(t)
	res := query(t, cat, "SELECT name FROM rich ORDER BY credit DESC")
	if len(res.Rows) != 3 {
		t.Fatalf("rich rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "Cyd" {
		t.Errorf("rows = %v", res.Rows)
	}
	// Querying a view with an extra predicate composes both filters.
	res2 := query(t, cat, "SELECT name FROM rich WHERE credit < 2000")
	if len(res2.Rows) != 2 {
		t.Errorf("filtered view rows = %v", res2.Rows)
	}
}

func TestDeletedRowSkippedInIndexScan(t *testing.T) {
	cat := setup(t)
	customers, _ := cat.GetTable("customers")
	// Find and delete Bob through the table API after planning would already
	// have chosen an index path; the executor must tolerate missing rids.
	var bobRID storage.RecordID
	for it := customers.VersionIterator(); ; {
		rid, _, payload, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tuple, err := types.DecodeTuple(payload); err != nil {
			t.Fatal(err)
		} else if tuple[1].Str() == "Bob" {
			bobRID = rid
		}
	}
	if err := customers.RemoveVersion(bobRID); err != nil {
		t.Fatal(err)
	}
	res := query(t, cat, "SELECT name FROM customers WHERE city = 'Boston'")
	if len(res.Rows) != 2 {
		t.Errorf("rows after delete = %v", res.Rows)
	}
}

func TestIsNullAndInPredicates(t *testing.T) {
	cat := setup(t)
	customers, _ := cat.GetTable("customers")
	if _, _, err := customers.InsertVersion(catalog.Tuple{types.NewInt(7), types.NewString("Gus"), types.Null(), types.Null()}, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := query(t, cat, "SELECT name FROM customers WHERE city IS NULL"); len(got.Rows) != 1 || got.Rows[0][0].Str() != "Gus" {
		t.Errorf("IS NULL rows = %v", got.Rows)
	}
	if got := query(t, cat, "SELECT name FROM customers WHERE city IN ('Denver', 'Chicago') ORDER BY name"); len(got.Rows) != 3 {
		t.Errorf("IN rows = %v", got.Rows)
	}
	if got := query(t, cat, "SELECT name FROM customers WHERE name LIKE '%a%'"); len(got.Rows) != 2 {
		t.Errorf("LIKE rows = %v", got.Rows)
	}
}

func TestOperatorReopen(t *testing.T) {
	cat := setup(t)
	sel, _ := sql.ParseSelect("SELECT name FROM customers WHERE credit > 500 ORDER BY name")
	node, err := plan.NewBuilder(cat).Build(sel)
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildWithRuntime(node, nil, NewRuntime())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 4 {
			t.Errorf("round %d saw %d rows", round, n)
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunErrorsOnBadExpression(t *testing.T) {
	cat := setup(t)
	sel, _ := sql.ParseSelect("SELECT name FROM customers WHERE credit + name > 2")
	node, err := plan.NewBuilder(cat).Build(sel)
	if err != nil {
		return // the planner may reject it, which is fine
	}
	if _, err := run(node); err == nil {
		t.Error("adding a string to a float should fail at runtime")
	}
}

func BenchmarkSeqScanFilter10k(b *testing.B) {
	cat := benchCatalog(b, 10000)
	sel, _ := sql.ParseSelect("SELECT name FROM customers WHERE credit > 9900")
	node, err := plan.NewBuilder(cat).Build(sel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(node); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexLookup10k(b *testing.B) {
	cat := benchCatalog(b, 10000)
	sel, _ := sql.ParseSelect("SELECT name FROM customers WHERE id = 5000")
	node, err := plan.NewBuilder(cat).Build(sel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(node); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	cat := benchCatalog(b, 2000)
	sel, _ := sql.ParseSelect("SELECT c.name, o.total FROM customers c JOIN orders o ON o.customer_id = c.id")
	node, err := plan.NewBuilder(cat).Build(sel)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(node); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCatalog(b *testing.B, n int) *catalog.Catalog {
	b.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 4096))
	customers, _ := cat.CreateTable("customers", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "credit", Type: types.KindFloat},
	))
	orders, _ := cat.CreateTable("orders", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "customer_id", Type: types.KindInt},
		types.Column{Name: "total", Type: types.KindFloat},
	))
	for i := 0; i < n; i++ {
		if _, _, err := customers.InsertVersion(catalog.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("cust-%d", i)), types.NewFloat(float64(i))}, 0, nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := orders.InsertVersion(catalog.Tuple{types.NewInt(int64(i)), types.NewInt(int64(i % (n / 2))), types.NewFloat(float64(i) / 3)}, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	return cat
}

// result is a fully materialised query result.
type result struct {
	Schema *types.Schema
	Rows   []types.Tuple
}

// run builds, opens, drains and closes the plan, reading the latest live
// versions (no snapshot).
func run(node plan.Node) (res *result, err error) {
	op, err := BuildWithRuntime(node, nil, NewRuntime())
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := op.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()
	res = &result{Schema: op.Schema()}
	for {
		tuple, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		res.Rows = append(res.Rows, tuple)
	}
}
