package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/types"
)

// oracleView is one updatable view of the view-write oracle: its output
// columns, the base column each one stores into, and its definition's
// predicate written over base columns (the views it reads through included).
type oracleView struct {
	name string
	cols []string // view column names
	base []string // base column names, parallel to cols
	pred string   // the rows of c the view admits
}

var oracleViews = []oracleView{
	// A restriction over the whole row.
	{"rich", []string{"id", "name", "credit", "city"}, []string{"id", "name", "credit", "city"}, "credit > 500"},
	// A projection that renames its columns.
	{"r2", []string{"k", "n", "cr"}, []string{"id", "name", "credit"}, "credit < 2000"},
	// A view over a view.
	{"rb", []string{"id", "name", "credit", "city"}, []string{"id", "name", "credit", "city"}, "credit > 500 AND city = 'Boston'"},
	// A renaming view over the renaming view.
	{"r2b", []string{"key2", "amount"}, []string{"id", "credit"}, "credit < 2000 AND id < 60"},
}

const oracleSchema = `
CREATE TABLE c (id INT PRIMARY KEY, name TEXT NOT NULL DEFAULT 'anon', city TEXT, credit INT);
CREATE INDEX c_credit ON c (credit);
CREATE VIEW rich AS SELECT id, name, credit, city FROM c WHERE credit > 500;
CREATE VIEW r2 (k, n, cr) AS SELECT id, name, credit FROM c WHERE credit < 2000;
CREATE VIEW rb AS SELECT id, name, credit, city FROM rich WHERE city = 'Boston';
CREATE VIEW r2b (key2, amount) AS SELECT k, cr FROM r2 WHERE k < 60;
`

// oracleGen draws statements over one view. A statement is generated once as
// a template whose column slots "{i}" name the view's i-th column, and
// rendered twice: with view names for the write through the view, with base
// names for the twin's write on c.
type oracleGen struct {
	rng  *rand.Rand
	args []types.Value
}

func (g *oracleGen) kindOf(base string) types.Kind {
	if base == "id" || base == "credit" {
		return types.KindInt
	}
	return types.KindString
}

// value renders a value of the column's kind: a literal, NULL, or a "?"
// whose argument is appended to g.args.
func (g *oracleGen) value(base string) string {
	var v types.Value
	switch {
	case base == "id":
		v = types.NewInt(int64(1 + g.rng.Intn(90)))
	case base == "credit":
		v = types.NewInt([]int64{0, 100, 400, 500, 501, 900, 1500, 1999, 2000, 2500}[g.rng.Intn(10)])
	case base == "city":
		v = types.NewString([]string{"Boston", "Denver", "Austin"}[g.rng.Intn(3)])
	default:
		v = types.NewString([]string{"Ada", "Bob", "Cyd", "Dee"}[g.rng.Intn(4)])
	}
	if base != "id" && g.rng.Intn(8) == 0 {
		v = types.Null()
	}
	if g.rng.Intn(3) == 0 {
		g.args = append(g.args, v)
		return "?"
	}
	return v.SQL()
}

// atom draws one comparison over the view's i-th column.
func (g *oracleGen) atom(v oracleView) string {
	i := g.rng.Intn(len(v.cols))
	slot := fmt.Sprintf("{%d}", i)
	base := v.base[i]
	switch g.rng.Intn(7) {
	case 0:
		return slot + " IS NULL"
	case 1:
		return slot + " IS NOT NULL"
	case 2:
		return fmt.Sprintf("%s IN (%s, %s)", slot, g.value(base), g.value(base))
	case 3:
		if g.kindOf(base) == types.KindInt {
			return fmt.Sprintf("%s BETWEEN %s AND %s", slot, g.value(base), g.value(base))
		}
	case 4:
		return slot + " <> " + g.value(base)
	case 5:
		if g.kindOf(base) == types.KindInt {
			return slot + []string{" < ", " <= ", " > ", " >= "}[g.rng.Intn(4)] + g.value(base)
		}
	}
	return slot + " = " + g.value(base)
}

// where draws a predicate over the view's columns ("" for none).
func (g *oracleGen) where(v oracleView) string {
	switch g.rng.Intn(6) {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf("(%s) AND (%s)", g.atom(v), g.atom(v))
	case 2:
		return fmt.Sprintf("(%s) OR (%s)", g.atom(v), g.atom(v))
	case 3:
		return fmt.Sprintf("NOT (%s)", g.atom(v))
	default:
		return g.atom(v)
	}
}

// render fills a template's column slots with names.
func render(tmpl string, names []string) string {
	for i, n := range names {
		tmpl = strings.ReplaceAll(tmpl, fmt.Sprintf("{%d}", i), n)
	}
	return tmpl
}

// oracleStmt is one generated write: the text through the view, the twin's
// text on c, their shared arguments, and how many rows of c the view admits
// after the twin's write if the check option lets it stand (relative to
// before: +rows for an INSERT, unchanged for an UPDATE, -1 marks a DELETE,
// which the check option never refuses).
type oracleStmt struct {
	viewText, baseText string
	args               []types.Value
	admitDelta         int
}

func (g *oracleGen) statement(v oracleView) oracleStmt {
	g.args = nil
	switch g.rng.Intn(3) {
	case 0: // INSERT
		idx := make([]int, len(v.cols))
		for i := range idx {
			idx[i] = i
		}
		listed := g.rng.Intn(2) == 0
		if listed {
			g.rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
			// Keep the key (slot 0 of every view) and a random prefix of the rest.
			n := 1 + g.rng.Intn(len(idx))
			keep := []int{0}
			for _, i := range idx[:n] {
				if i != 0 {
					keep = append(keep, i)
				}
			}
			idx = keep
		}
		nrows := 1 + g.rng.Intn(2)
		var rows []string
		for r := 0; r < nrows; r++ {
			var vals []string
			for _, i := range idx {
				vals = append(vals, g.value(v.base[i]))
			}
			rows = append(rows, "("+strings.Join(vals, ", ")+")")
		}
		viewCols, baseCols := make([]string, len(idx)), make([]string, len(idx))
		for j, i := range idx {
			viewCols[j], baseCols[j] = v.cols[i], v.base[i]
		}
		values := " VALUES " + strings.Join(rows, ", ")
		viewText := "INSERT INTO " + v.name + values
		if listed {
			viewText = "INSERT INTO " + v.name + " (" + strings.Join(viewCols, ", ") + ")" + values
		}
		return oracleStmt{
			viewText:   viewText,
			baseText:   "INSERT INTO c (" + strings.Join(baseCols, ", ") + ")" + values,
			args:       g.args,
			admitDelta: nrows,
		}
	case 1: // UPDATE
		var sets []string
		for _, i := range g.rng.Perm(len(v.cols))[:1+g.rng.Intn(2)] {
			var value string
			switch {
			case v.base[i] == "credit" && g.rng.Intn(3) == 0:
				value = fmt.Sprintf("{%d} + %d", i, 100*(g.rng.Intn(11)-5))
			case v.base[i] == "id" && g.rng.Intn(2) == 0:
				value = fmt.Sprintf("{%d} + %d", i, 1+g.rng.Intn(3))
			default:
				value = g.value(v.base[i])
			}
			sets = append(sets, fmt.Sprintf("{%d} = %s", i, value))
		}
		set := strings.Join(sets, ", ")
		where := g.where(v)
		viewText := "UPDATE " + v.name + " SET " + render(set, v.cols)
		baseText := "UPDATE c SET " + render(set, v.base) + " WHERE (" + v.pred + ")"
		if where != "" {
			viewText += " WHERE " + render(where, v.cols)
			baseText += " AND (" + render(where, v.base) + ")"
		}
		return oracleStmt{viewText: viewText, baseText: baseText, args: g.args}
	default: // DELETE
		where := g.where(v)
		viewText := "DELETE FROM " + v.name
		baseText := "DELETE FROM c WHERE (" + v.pred + ")"
		if where != "" {
			viewText += " WHERE " + render(where, v.cols)
			baseText += " AND (" + render(where, v.base) + ")"
		}
		return oracleStmt{viewText: viewText, baseText: baseText, args: g.args, admitDelta: -1}
	}
}

// oracleOutcome is what one statement did: an error text, or the rows it
// affected.
type oracleOutcome struct {
	err      string
	affected int
}

func runOn(s *Session, text string, args []types.Value) oracleOutcome {
	st, err := s.Prepare(text)
	if err != nil {
		return oracleOutcome{err: err.Error()}
	}
	defer st.Close()
	res, err := st.Exec(args...)
	if err != nil {
		return oracleOutcome{err: err.Error()}
	}
	return oracleOutcome{affected: res.RowsAffected}
}

func admitted(t *testing.T, s *Session, pred string) int64 {
	t.Helper()
	res, err := s.Query("SELECT COUNT(*) FROM c WHERE " + pred)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

// runTwin runs the translated statement on c inside a transaction, and keeps
// it only if every row it wrote is still admitted by the view's predicate:
// the twin's model of the check option.
func runTwin(t *testing.T, s *Session, v oracleView, st oracleStmt) (out oracleOutcome, refused bool) {
	t.Helper()
	if _, err := s.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	before := admitted(t, s, v.pred)
	out = runOn(s, st.baseText, st.args)
	if out.err == "" && st.admitDelta >= 0 && admitted(t, s, v.pred)-before != int64(st.admitDelta) {
		refused = true
	}
	end := "COMMIT"
	if out.err != "" || refused {
		end = "ROLLBACK"
	}
	if _, err := s.Execute(end); err != nil {
		t.Fatal(err)
	}
	return out, refused
}

func dump(t *testing.T, s *Session, text string) string {
	t.Helper()
	res, err := s.Query(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(v.SQL())
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestViewWriteOracleGeneratedStatements is a generated differential test of
// writes through updatable views: a restriction view, a view that renames its
// columns, and a view over each. Every seed fills c in two databases, then
// runs random INSERTs (with and without a column list, one or two rows),
// UPDATEs (literals, parameters and expressions over view columns, the key
// included) and DELETEs. One database writes through the view; its twin runs
// the base-table statement the view stands for, with the view's predicate
// ANDed into the WHERE clause, and models the check option by refusing a
// write that leaves a written row outside the view. After every statement
// both must have done the same thing (the same affected count, the same error
// or the check-option refusal naming the view), c must be equal in both, and
// every view must show exactly the rows of c its definition admits. The seed
// and statement are logged in every failure.
func TestViewWriteOracleGeneratedStatements(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		viewDB, twinDB := OpenMemory(), OpenMemory()
		vs, ts := viewDB.Session(), twinDB.Session()
		var fill strings.Builder
		fill.WriteString(oracleSchema)
		g := &oracleGen{rng: rng}
		for id := 1; id <= 60; id += 1 + rng.Intn(2) {
			g.args = nil
			name, city, credit := g.value("name"), g.value("city"), g.value("credit")
			for strings.Contains(name+city+credit, "?") || name == "NULL" {
				g.args = nil
				name, city, credit = g.value("name"), g.value("city"), g.value("credit")
			}
			fmt.Fprintf(&fill, "INSERT INTO c VALUES (%d, %s, %s, %s);\n", id, name, city, credit)
		}
		for _, s := range []*Session{vs, ts} {
			if _, err := s.ExecuteScript(fill.String()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		refusals, writes := 0, 0
		for i := 0; i < 60; i++ {
			v := oracleViews[rng.Intn(len(oracleViews))]
			st := g.statement(v)
			where := fmt.Sprintf("seed %d, statement %d: %s %v (twin: %s)", seed, i, st.viewText, st.args, st.baseText)
			got := runOn(vs, st.viewText, st.args)
			want, refused := runTwin(t, ts, v, st)
			checkText := fmt.Sprintf("view: row violates the predicate of view %q and would not be visible through it", v.name)
			switch {
			case refused:
				refusals++
				if got.err != checkText {
					t.Fatalf("%s: the twin's write leaves the view, so the check option must refuse it; got %+v", where, got)
				}
			case want.err != "":
				if got.err != want.err && got.err != checkText {
					t.Fatalf("%s: the twin fails with %q, the view write with %+v", where, want.err, got)
				}
			default:
				writes++
				if got != want {
					t.Fatalf("%s: through the view %+v, on the base table %+v", where, got, want)
				}
			}
			if a, b := dump(t, vs, "SELECT * FROM c ORDER BY id"), dump(t, ts, "SELECT * FROM c ORDER BY id"); a != b {
				t.Fatalf("%s: c differs after the write\nthrough the view:\n%s\ntwin:\n%s", where, a, b)
			}
			for _, w := range oracleViews {
				shown := dump(t, vs, fmt.Sprintf("SELECT %s FROM %s ORDER BY %s", strings.Join(w.cols, ", "), w.name, w.cols[0]))
				admits := dump(t, vs, fmt.Sprintf("SELECT %s FROM c WHERE %s ORDER BY id", strings.Join(w.base, ", "), w.pred))
				if shown != admits {
					t.Fatalf("%s: view %s shows\n%s\nits definition admits\n%s", where, w.name, shown, admits)
				}
			}
		}
		t.Logf("seed %d: %d successful writes, %d check-option refusals", seed, writes, refusals)
		if refusals == 0 || writes == 0 {
			t.Errorf("seed %d: %d refusals and %d successful writes; the generator should produce both", seed, refusals, writes)
		}
		vs.Close()
		ts.Close()
	}
}
