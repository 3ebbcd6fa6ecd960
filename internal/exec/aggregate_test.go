package exec

import (
	"bytes"
	"testing"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// rowsOperator yields fixed rows without allocating, so a test can count
// what the operator above it allocates.
type rowsOperator struct {
	schema *types.Schema
	rows   []types.Tuple
	pos    int
}

func (o *rowsOperator) Schema() *types.Schema { return o.schema }
func (o *rowsOperator) Open() error           { o.pos = 0; return nil }
func (o *rowsOperator) Close() error          { return nil }
func (o *rowsOperator) Next() (types.Tuple, bool, error) {
	if o.pos >= len(o.rows) {
		return nil, false, nil
	}
	o.pos++
	return o.rows[o.pos-1], true, nil
}

// aggregateOver builds q, which must aggregate the customers table, with its
// aggregate reading rows instead of the table.
func aggregateOver(t *testing.T, q string, rows []types.Tuple) Operator {
	t.Helper()
	cat := setup(t)
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.NewBuilder(cat).Build(sel)
	if err != nil {
		t.Fatal(err)
	}
	op, err := BuildWithRuntime(node, nil, NewRuntime())
	if err != nil {
		t.Fatal(err)
	}
	for cur := op; ; {
		switch o := cur.(type) {
		case *projectOperator:
			cur = o.input
			continue
		case *aggregateOperator:
			o.input = &rowsOperator{schema: o.input.Schema(), rows: rows}
			return op
		default:
			t.Fatalf("no aggregate under %T in %q", cur, q)
		}
	}
}

// drain opens op and returns every row it yields.
func drain(t testing.TB, op Operator) []types.Tuple {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var out []types.Tuple
	for {
		row, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

// TestGroupByTextKeysSharingPrefixes: text keys that are prefixes of one
// another or hold 0x00 each form their own group, NULL forms one, and groups
// come out in the order of their encoded keys.
func TestGroupByTextKeysSharingPrefixes(t *testing.T) {
	cities := []types.Value{
		types.NewString("a"), types.NewString("a\x00"), types.NewString("a\x00b"),
		types.NewString("ab"), types.NewString(""), types.NewString("\x00"),
		types.NewString("a\x00\x00"), types.Null(),
	}
	var rows []types.Tuple
	type group struct {
		count  int64
		credit float64
	}
	want := map[types.Value]group{}
	for i := 0; i < 200; i++ {
		city := cities[(i*7)%len(cities)]
		rows = append(rows, types.Tuple{types.NewInt(int64(i)), types.NewString("n"), city, types.NewFloat(float64(i))})
		g := want[city]
		g.count++
		g.credit += float64(i)
		want[city] = g
	}
	got := drain(t, aggregateOver(t, "SELECT city, COUNT(*), SUM(credit) FROM customers GROUP BY city", rows))
	if len(got) != len(cities) {
		t.Fatalf("%d groups, want %d: %v", len(got), len(cities), got)
	}
	for i, row := range got {
		g, ok := want[row[0]]
		if !ok || row[1].Int() != g.count || row[2].Float() != g.credit {
			t.Errorf("group %v = %v, want %+v", row[0], row[1:], g)
		}
		delete(want, row[0])
		if i > 0 {
			prev := types.EncodeTuple(nil, got[i-1][:1])
			if bytes.Compare(prev, types.EncodeTuple(nil, row[:1])) >= 0 {
				t.Errorf("group %v comes after %v", row[0], got[i-1][0])
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("groups missing: %v", want)
	}
}

// TestGlobalAggregateAllocatesNoKeyPerRow: an aggregate without GROUP BY
// looks its one group up with a reused key buffer, so 10 000 input rows cost
// no allocation each.
func TestGlobalAggregateAllocatesNoKeyPerRow(t *testing.T) {
	const n = 10000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.NewInt(int64(i)), types.NewString("n"), types.Null(), types.NewFloat(1)}
	}
	op := aggregateOver(t, "SELECT COUNT(*), SUM(credit) FROM customers", rows)
	var got []types.Tuple
	allocs := testing.AllocsPerRun(5, func() { got = drain(t, op) })
	if len(got) != 1 || got[0][0].Int() != n || got[0][1].Float() != n {
		t.Fatalf("aggregate = %v, want (%d, %d)", got, n, n)
	}
	t.Logf("aggregating %d rows: %.0f allocations", n, allocs)
	if allocs > 100 {
		t.Errorf("aggregating %d rows allocated %.0f objects, want at most 100", n, allocs)
	}
}
