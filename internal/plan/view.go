// Updatable views: the analysis that decides whether rows may be inserted,
// updated or deleted *through* a view, and the translation of such writes
// onto the view's base table. Reads expand a view in buildTableRef; writes
// resolve it here, through ResolveWriteTarget.
//
// This is what lets a window be opened over a view and still accept edits —
// the defining behaviour of a forms-over-views system. A view is updatable
// when it is a simple restriction/projection of one base table:
//
//   - exactly one table (or another updatable view) in FROM,
//   - no joins, aggregates, GROUP BY, HAVING, DISTINCT or LIMIT,
//   - every output column is a plain column of the base table.
//
// Writes through the view are checked against the view's predicate (the
// equivalent of WITH CHECK OPTION), so a row edited in a window cannot
// silently leave that window's world.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
)

// errNotUpdatable is returned by analyzeView when a view cannot accept
// writes.
type errNotUpdatable struct {
	View   string
	Reason string
}

func (e *errNotUpdatable) Error() string {
	return fmt.Sprintf("view: %q is not updatable: %s", e.View, e.Reason)
}

// ColumnPair maps one view output column to its base-table column.
type ColumnPair struct {
	ViewColumn string
	BaseColumn string
}

// Updatable describes how writes through a view translate onto its base table.
type Updatable struct {
	ViewName  string
	BaseTable string
	// Columns lists the view's output columns in order with their base names.
	Columns []ColumnPair
	// Where is the view's predicate expressed over base-table columns
	// (nil when the view has no predicate). Rows written through the view
	// must still satisfy it, as the forms runtime needs: a row edited in a
	// window must stay visible in it.
	Where sql.Expr
}

// analyzeView determines whether the view is updatable and, if so, how
// writes translate to its base table. Views defined over other updatable
// views compose (the predicates are ANDed and column maps chained).
func analyzeView(def *catalog.ViewDef, cat *catalog.Catalog, visiting map[string]bool) (*Updatable, error) {
	if visiting[def.Name] {
		return nil, &errNotUpdatable{View: def.Name, Reason: "the view is defined in terms of itself"}
	}
	visiting[def.Name] = true
	defer delete(visiting, def.Name)

	query, err := sql.ParseSelect(def.Query)
	if err != nil {
		return nil, fmt.Errorf("view: %q has an invalid definition: %w", def.Name, err)
	}
	if len(query.From) != 1 {
		return nil, &errNotUpdatable{View: def.Name, Reason: "it reads more than one table"}
	}
	if query.From[0].Join != sql.JoinNone {
		return nil, &errNotUpdatable{View: def.Name, Reason: "it contains a join"}
	}
	if query.Distinct {
		return nil, &errNotUpdatable{View: def.Name, Reason: "it uses DISTINCT"}
	}
	if len(query.GroupBy) > 0 || query.Having != nil {
		return nil, &errNotUpdatable{View: def.Name, Reason: "it aggregates rows"}
	}
	if query.Limit != nil || query.Offset != nil {
		return nil, &errNotUpdatable{View: def.Name, Reason: "it uses LIMIT or OFFSET"}
	}
	for _, item := range query.Items {
		if !item.Star && sql.HasAggregate(item.Expr) {
			return nil, &errNotUpdatable{View: def.Name, Reason: "its select list aggregates rows"}
		}
	}

	from := query.From[0]
	fromAlias := strings.ToLower(from.EffectiveName())

	// Resolve the underlying relation: a base table, or another view which
	// must itself be updatable.
	var base *Updatable
	switch {
	case cat.HasTable(from.Name):
		table, err := cat.GetTable(from.Name)
		if err != nil {
			return nil, err
		}
		base = &Updatable{BaseTable: table.Name()}
		for _, col := range table.Schema().Columns {
			base.Columns = append(base.Columns, ColumnPair{ViewColumn: strings.ToLower(col.Name), BaseColumn: strings.ToLower(col.Name)})
		}
	case cat.HasView(from.Name):
		inner, err := cat.GetView(from.Name)
		if err != nil {
			return nil, err
		}
		base, err = analyzeView(inner, cat, visiting)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("view: %q references unknown relation %q", def.Name, from.Name)
	}

	baseMap := base.columnMap()
	out := &Updatable{
		ViewName:  def.Name,
		BaseTable: base.BaseTable,
		Where:     base.Where,
	}

	// Map the select list.
	for _, item := range query.Items {
		switch {
		case item.Star && item.StarTable == "":
			out.Columns = append(out.Columns, base.Columns...)
		case item.Star:
			if !strings.EqualFold(item.StarTable, fromAlias) && !strings.EqualFold(item.StarTable, from.Name) {
				return nil, &errNotUpdatable{View: def.Name, Reason: fmt.Sprintf("%s.* does not match the FROM table", item.StarTable)}
			}
			out.Columns = append(out.Columns, base.Columns...)
		default:
			ref, ok := item.Expr.(*sql.ColumnRef)
			if !ok {
				return nil, &errNotUpdatable{View: def.Name, Reason: fmt.Sprintf("output column %s is computed, not stored", item.Expr.String())}
			}
			if ref.Table != "" && !strings.EqualFold(ref.Table, fromAlias) && !strings.EqualFold(ref.Table, from.Name) {
				return nil, &errNotUpdatable{View: def.Name, Reason: fmt.Sprintf("column %s does not belong to the FROM table", ref.String())}
			}
			name := item.Alias
			if name == "" {
				name = ref.Name
			}
			baseCol, ok := baseMap[strings.ToLower(ref.Name)]
			if !ok {
				return nil, &errNotUpdatable{View: def.Name, Reason: fmt.Sprintf("column %q is not a column of %s", ref.Name, base.BaseTable)}
			}
			out.Columns = append(out.Columns, ColumnPair{ViewColumn: strings.ToLower(name), BaseColumn: baseCol})
		}
	}
	// CREATE VIEW v (a, b) AS ... renames output columns positionally.
	if len(def.Columns) > 0 {
		if len(def.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("view: %q names %d columns but its query produces %d", def.Name, len(def.Columns), len(out.Columns))
		}
		for i := range out.Columns {
			out.Columns[i].ViewColumn = strings.ToLower(def.Columns[i])
		}
	}

	// The view's own predicate, rewritten in terms of base columns, ANDed
	// with whatever the inner view already required.
	if query.Where != nil {
		rewritten, err := rewriteToBase(query.Where, fromAlias, from.Name, baseMap)
		if err != nil {
			return nil, &errNotUpdatable{View: def.Name, Reason: err.Error()}
		}
		out.Where = andExprs(out.Where, rewritten)
	}
	return out, nil
}

// rewriteToBase renames every column reference in e from view naming to base
// table naming and strips qualifiers. Bind parameters pass through untouched:
// they reference the statement's bind frame, not a column of either naming.
func rewriteToBase(e sql.Expr, alias, fromName string, baseMap map[string]string) (sql.Expr, error) {
	var err error
	out := rewrite(e, func(e sql.Expr) sql.Expr {
		ref, ok := e.(*sql.ColumnRef)
		if !ok || err != nil {
			return nil
		}
		baseCol, known := baseMap[strings.ToLower(ref.Name)]
		switch {
		case ref.Table != "" && !strings.EqualFold(ref.Table, alias) && !strings.EqualFold(ref.Table, fromName):
			err = fmt.Errorf("column %s does not belong to the FROM table", ref.String())
		case !known:
			err = fmt.Errorf("column %q is not a column of the base table", ref.Name)
		default:
			return &sql.ColumnRef{Name: baseCol}
		}
		return ref
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// columnMap maps each view column name to the base column it stores into.
func (u *Updatable) columnMap() map[string]string {
	m := make(map[string]string, len(u.Columns))
	for _, c := range u.Columns {
		m[c.ViewColumn] = c.BaseColumn
	}
	return m
}

// baseColumn maps a view output column name to the base-table column it
// stores into.
func (u *Updatable) baseColumn(viewCol string) (string, error) {
	lower := strings.ToLower(viewCol)
	for _, c := range u.Columns {
		if c.ViewColumn == lower {
			return c.BaseColumn, nil
		}
	}
	return "", fmt.Errorf("view: %q has no column named %q", u.ViewName, viewCol)
}

// translateAssignments rewrites UPDATE assignments from view column names to
// base column names; assignment value expressions are rewritten too.
func (u *Updatable) translateAssignments(assignments []sql.Assignment) ([]sql.Assignment, error) {
	colMap := u.columnMap()
	out := make([]sql.Assignment, len(assignments))
	for i, a := range assignments {
		baseCol, err := u.baseColumn(a.Column)
		if err != nil {
			return nil, err
		}
		value, err := rewriteToBase(a.Value, u.ViewName, u.ViewName, colMap)
		if err != nil {
			return nil, fmt.Errorf("view: assignment to %s: %w", a.Column, err)
		}
		out[i] = sql.Assignment{Column: baseCol, Value: value}
	}
	return out, nil
}

// translatePredicate rewrites a predicate over view columns into one over the
// base table and ANDs the view's own predicate, so a statement like
// "DELETE FROM rich_customers WHERE city = 'Boston'" deletes exactly the base
// rows that are both rich and in Boston.
func (u *Updatable) translatePredicate(where sql.Expr) (sql.Expr, error) {
	rewritten, err := rewriteToBase(where, u.ViewName, u.ViewName, u.columnMap())
	if err != nil {
		return nil, err
	}
	return andExprs(u.Where, rewritten), nil
}

// translateInsert maps an insert through the view — given the view column
// names being supplied and their value expressions — onto base-table column
// names. The returned slices are parallel.
func (u *Updatable) translateInsert(viewColumns []string, values []sql.Expr) ([]string, []sql.Expr, error) {
	if len(viewColumns) == 0 {
		// No explicit column list: the values correspond to the view's
		// columns in order.
		if len(values) != len(u.Columns) {
			return nil, nil, fmt.Errorf("view: %q has %d columns but %d values were supplied", u.ViewName, len(u.Columns), len(values))
		}
		cols := make([]string, len(u.Columns))
		for i, c := range u.Columns {
			cols[i] = c.BaseColumn
		}
		return cols, values, nil
	}
	if len(viewColumns) != len(values) {
		return nil, nil, fmt.Errorf("view: %d columns but %d values", len(viewColumns), len(values))
	}
	cols := make([]string, len(viewColumns))
	for i, vc := range viewColumns {
		baseCol, err := u.baseColumn(vc)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = baseCol
	}
	return cols, values, nil
}
