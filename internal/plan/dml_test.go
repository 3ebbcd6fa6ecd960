package plan

import (
	"strings"
	"testing"

	"repro/internal/sql"
)

func buildDML(t *testing.T, query string) Node {
	t.Helper()
	cat := newTestCatalog(t)
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	node, err := NewBuilder(cat).BuildStatement(stmt)
	if err != nil {
		t.Fatalf("build %q: %v", query, err)
	}
	return node
}

func TestBuildUpdateEqualityUsesIndex(t *testing.T) {
	node := buildDML(t, "UPDATE customers SET credit = 0 WHERE city = 'Boston'")
	upd, ok := node.(*UpdateNode)
	if !ok {
		t.Fatalf("node = %T, want *UpdateNode", node)
	}
	scan, ok := upd.Input.(*ScanNode)
	if !ok {
		t.Fatalf("child = %T, want *ScanNode", upd.Input)
	}
	if scan.Access != AccessIndexEq {
		t.Errorf("access = %v, want index lookup", scan.Access)
	}
	if len(upd.Sets) != 1 || upd.Sets[0].Column != "credit" {
		t.Errorf("sets = %+v", upd.Sets)
	}
}

func TestBuildUpdateParamRangeUsesIndexRange(t *testing.T) {
	node := buildDML(t, "UPDATE orders SET total = ? WHERE customer_id > ? AND customer_id < ?")
	upd := node.(*UpdateNode)
	scan := upd.Input.(*ScanNode)
	if scan.Access != AccessIndexRange {
		t.Fatalf("access = %v, want index range scan", scan.Access)
	}
	if len(scan.Low) != 1 || scan.Low[0].Param != 1 || scan.Low[0].Inclusive {
		t.Errorf("low bounds = %+v, want one exclusive param 1", scan.Low)
	}
	if len(scan.High) != 1 || scan.High[0].Param != 2 || scan.High[0].Inclusive {
		t.Errorf("high bounds = %+v, want one exclusive param 2", scan.High)
	}
	if scan.Filter != nil {
		t.Errorf("residual filter = %v, want both conjuncts consumed", scan.Filter)
	}
}

func TestBuildDeleteSeqScanWithoutIndex(t *testing.T) {
	node := buildDML(t, "DELETE FROM customers WHERE credit < 10")
	del := node.(*DeleteNode)
	scan := del.Input.(*ScanNode)
	if scan.Access != AccessSeqScan {
		t.Errorf("access = %v, want seq scan (credit has no index)", scan.Access)
	}
	if scan.Filter == nil {
		t.Error("predicate should remain as the scan filter")
	}
}

func TestBuildInsertResolvesColumns(t *testing.T) {
	node := buildDML(t, "INSERT INTO customers (id, name) VALUES (1, 'Ada'), (2, 'Bob')")
	ins := node.(*InsertNode)
	if len(ins.Rows) != 2 {
		t.Fatalf("rows = %d", len(ins.Rows))
	}
	if len(ins.ColumnPos) != 2 || ins.ColumnPos[0] != 0 || ins.ColumnPos[1] != 1 {
		t.Errorf("column positions = %v", ins.ColumnPos)
	}
	if _, err := sql.Parse("x"); err == nil {
		t.Error("sanity: bogus input should not parse")
	}
}

func TestBuildInsertRejectsWidthMismatch(t *testing.T) {
	cat := newTestCatalog(t)
	stmt, err := sql.Parse("INSERT INTO customers VALUES (1, 'Ada')")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBuilder(cat).BuildStatement(stmt); err == nil {
		t.Error("row narrower than the table should fail at plan time")
	}
}

func TestBuildUpdateThroughViewTranslates(t *testing.T) {
	node := buildDML(t, "UPDATE rich SET credit = 2000 WHERE id = 7")
	upd := node.(*UpdateNode)
	if upd.Table.Name() != "customers" {
		t.Errorf("target = %s, want customers", upd.Table.Name())
	}
	if upd.Check == nil {
		t.Fatal("view update should carry its check")
	}
	scan := upd.Input.(*ScanNode)
	// The view predicate (credit > 1000) is ANDed into the scan; the id
	// equality becomes the access path.
	if scan.Access != AccessIndexEq {
		t.Errorf("access = %v, want index lookup on the key", scan.Access)
	}
	if scan.Filter == nil || !strings.Contains(scan.Filter.String(), "credit > 1000") {
		t.Errorf("filter = %v, want the view predicate", scan.Filter)
	}
	if !strings.Contains(Explain(node), "via view rich") {
		t.Errorf("explain misses the view:\n%s", Explain(node))
	}
}

func TestBuildDMLExplainShapes(t *testing.T) {
	for query, want := range map[string]string{
		"INSERT INTO customers (id, name) VALUES (1, 'A')":    "Insert into customers (id, name) (1 row(s))",
		"UPDATE customers SET credit = 1 WHERE city = 'Erie'": "Update customers set credit",
		"DELETE FROM orders WHERE customer_id = 9":            "Delete from orders",
	} {
		explain := Explain(buildDML(t, query))
		if !strings.Contains(explain, want) {
			t.Errorf("%s:\nexplain = %s\nwant substring %q", query, explain, want)
		}
	}
}
