// Package view implements updatable views: the analysis that decides whether
// rows may be inserted, updated or deleted *through* a view, and the
// translation of such operations onto the view's base table.
//
// This is the substrate that lets a window be opened over a view and still
// accept edits — the defining behaviour of a forms-over-views system. A view
// is updatable when it is a simple restriction/projection of one base table:
//
//   - exactly one table (or another updatable view) in FROM,
//   - no joins, aggregates, GROUP BY, HAVING, DISTINCT or LIMIT,
//   - every output column is a plain column of the base table.
//
// Updates through the view are checked against the view's predicate (the
// equivalent of WITH CHECK OPTION), so a row edited in a window cannot
// silently leave that window's world.
package view

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sql"
	"repro/internal/types"
)

// ErrNotUpdatable is wrapped by Analyze when a view cannot accept writes.
type ErrNotUpdatable struct {
	View   string
	Reason string
}

func (e *ErrNotUpdatable) Error() string {
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

// Analyze determines whether the view is updatable and, if so, how writes
// translate to its base table. Views defined over other updatable views
// compose (the predicates are ANDed and column maps chained).
func Analyze(def *catalog.ViewDef, cat *catalog.Catalog) (*Updatable, error) {
	return analyze(def, cat, map[string]bool{})
}

func analyze(def *catalog.ViewDef, cat *catalog.Catalog, visiting map[string]bool) (*Updatable, error) {
	if visiting[def.Name] {
		return nil, &ErrNotUpdatable{View: def.Name, Reason: "the view is defined in terms of itself"}
	}
	visiting[def.Name] = true
	defer delete(visiting, def.Name)

	query, err := sql.ParseSelect(def.Query)
	if err != nil {
		return nil, fmt.Errorf("view: %q has an invalid definition: %w", def.Name, err)
	}
	if len(query.From) != 1 {
		return nil, &ErrNotUpdatable{View: def.Name, Reason: "it reads more than one table"}
	}
	if query.From[0].Join != sql.JoinNone {
		return nil, &ErrNotUpdatable{View: def.Name, Reason: "it contains a join"}
	}
	if query.Distinct {
		return nil, &ErrNotUpdatable{View: def.Name, Reason: "it uses DISTINCT"}
	}
	if len(query.GroupBy) > 0 || query.Having != nil {
		return nil, &ErrNotUpdatable{View: def.Name, Reason: "it aggregates rows"}
	}
	if query.Limit != nil || query.Offset != nil {
		return nil, &ErrNotUpdatable{View: def.Name, Reason: "it uses LIMIT or OFFSET"}
	}
	for _, item := range query.Items {
		if !item.Star && sql.HasAggregate(item.Expr) {
			return nil, &ErrNotUpdatable{View: def.Name, Reason: "its select list aggregates rows"}
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
		base, err = analyze(inner, cat, visiting)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("view: %q references unknown relation %q", def.Name, from.Name)
	}

	baseMap := map[string]string{}
	for _, c := range base.Columns {
		baseMap[c.ViewColumn] = c.BaseColumn
	}

	out := &Updatable{
		ViewName:  def.Name,
		BaseTable: base.BaseTable,
		Where:     base.Where,
	}

	// Map the select list.
	appendColumn := func(viewCol, innerCol string) error {
		baseCol, ok := baseMap[strings.ToLower(innerCol)]
		if !ok {
			return &ErrNotUpdatable{View: def.Name, Reason: fmt.Sprintf("column %q is not a column of %s", innerCol, base.BaseTable)}
		}
		out.Columns = append(out.Columns, ColumnPair{ViewColumn: strings.ToLower(viewCol), BaseColumn: baseCol})
		return nil
	}
	for _, item := range query.Items {
		switch {
		case item.Star && item.StarTable == "":
			for _, c := range base.Columns {
				out.Columns = append(out.Columns, ColumnPair{ViewColumn: c.ViewColumn, BaseColumn: c.BaseColumn})
			}
		case item.Star:
			if !strings.EqualFold(item.StarTable, fromAlias) && !strings.EqualFold(item.StarTable, from.Name) {
				return nil, &ErrNotUpdatable{View: def.Name, Reason: fmt.Sprintf("%s.* does not match the FROM table", item.StarTable)}
			}
			for _, c := range base.Columns {
				out.Columns = append(out.Columns, ColumnPair{ViewColumn: c.ViewColumn, BaseColumn: c.BaseColumn})
			}
		default:
			ref, ok := item.Expr.(*sql.ColumnRef)
			if !ok {
				return nil, &ErrNotUpdatable{View: def.Name, Reason: fmt.Sprintf("output column %s is computed, not stored", item.Expr.String())}
			}
			if ref.Table != "" && !strings.EqualFold(ref.Table, fromAlias) && !strings.EqualFold(ref.Table, from.Name) {
				return nil, &ErrNotUpdatable{View: def.Name, Reason: fmt.Sprintf("column %s does not belong to the FROM table", ref.String())}
			}
			name := item.Alias
			if name == "" {
				name = ref.Name
			}
			if err := appendColumn(name, ref.Name); err != nil {
				return nil, err
			}
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
			return nil, &ErrNotUpdatable{View: def.Name, Reason: err.Error()}
		}
		if out.Where == nil {
			out.Where = rewritten
		} else {
			out.Where = &sql.BinaryExpr{Op: sql.OpAnd, Left: out.Where, Right: rewritten}
		}
	}
	return out, nil
}

// rewriteToBase renames every column reference in e from view naming to base
// table naming and strips qualifiers.
func rewriteToBase(e sql.Expr, alias, fromName string, baseMap map[string]string) (sql.Expr, error) {
	switch e := e.(type) {
	case nil:
		return nil, nil
	case *sql.ColumnRef:
		if e.Table != "" && !strings.EqualFold(e.Table, alias) && !strings.EqualFold(e.Table, fromName) {
			return nil, fmt.Errorf("column %s does not belong to the FROM table", e.String())
		}
		baseCol, ok := baseMap[strings.ToLower(e.Name)]
		if !ok {
			return nil, fmt.Errorf("column %q is not a column of the base table", e.Name)
		}
		return &sql.ColumnRef{Name: baseCol}, nil
	case *sql.Literal:
		return e, nil
	case *sql.Param:
		// Bind parameters pass through untouched: they reference the
		// statement's bind frame, not a column of either naming.
		return e, nil
	case *sql.BinaryExpr:
		left, err := rewriteToBase(e.Left, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		right, err := rewriteToBase(e.Right, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		return &sql.BinaryExpr{Op: e.Op, Left: left, Right: right}, nil
	case *sql.UnaryExpr:
		operand, err := rewriteToBase(e.Operand, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: e.Op, Operand: operand}, nil
	case *sql.IsNullExpr:
		operand, err := rewriteToBase(e.Operand, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		return &sql.IsNullExpr{Operand: operand, Negate: e.Negate}, nil
	case *sql.BetweenExpr:
		operand, err := rewriteToBase(e.Operand, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		low, err := rewriteToBase(e.Low, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		high, err := rewriteToBase(e.High, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		return &sql.BetweenExpr{Operand: operand, Low: low, High: high, Negate: e.Negate}, nil
	case *sql.InExpr:
		operand, err := rewriteToBase(e.Operand, alias, fromName, baseMap)
		if err != nil {
			return nil, err
		}
		list := make([]sql.Expr, len(e.List))
		for i, item := range e.List {
			rewritten, err := rewriteToBase(item, alias, fromName, baseMap)
			if err != nil {
				return nil, err
			}
			list[i] = rewritten
		}
		return &sql.InExpr{Operand: operand, List: list, Negate: e.Negate}, nil
	case *sql.FuncCall:
		args := make([]sql.Expr, len(e.Args))
		for i, a := range e.Args {
			rewritten, err := rewriteToBase(a, alias, fromName, baseMap)
			if err != nil {
				return nil, err
			}
			args[i] = rewritten
		}
		return &sql.FuncCall{Name: e.Name, Args: args, Star: e.Star}, nil
	default:
		return nil, fmt.Errorf("unsupported expression %T in view predicate", e)
	}
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

// TranslateAssignments rewrites UPDATE assignments from view column names to
// base column names; assignment value expressions are rewritten too.
func (u *Updatable) TranslateAssignments(assignments []sql.Assignment) ([]sql.Assignment, error) {
	colMap := map[string]string{}
	for _, c := range u.Columns {
		colMap[c.ViewColumn] = c.BaseColumn
	}
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

// TranslatePredicate rewrites a predicate over view columns into one over the
// base table and ANDs the view's own predicate, so a statement like
// "DELETE FROM rich_customers WHERE city = 'Boston'" deletes exactly the base
// rows that are both rich and in Boston.
func (u *Updatable) TranslatePredicate(where sql.Expr) (sql.Expr, error) {
	colMap := map[string]string{}
	for _, c := range u.Columns {
		colMap[c.ViewColumn] = c.BaseColumn
	}
	var rewritten sql.Expr
	if where != nil {
		var err error
		rewritten, err = rewriteToBase(where, u.ViewName, u.ViewName, colMap)
		if err != nil {
			return nil, err
		}
	}
	switch {
	case rewritten == nil:
		return u.Where, nil
	case u.Where == nil:
		return rewritten, nil
	default:
		return &sql.BinaryExpr{Op: sql.OpAnd, Left: u.Where, Right: rewritten}, nil
	}
}

// TranslateInsert maps an insert through the view — given the view column
// names being supplied and their value expressions — onto base-table column
// names. The returned slices are parallel.
func (u *Updatable) TranslateInsert(viewColumns []string, values []sql.Expr) ([]string, []sql.Expr, error) {
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

// RowCheck is a view's CHECK OPTION predicate compiled against the base
// table's schema, reusable across rows. A nil RowCheck accepts every row
// (the view has no predicate or check option is off).
type RowCheck struct {
	viewName string
	compiled *expr.Compiled
}

// CompileCheck compiles the view's CHECK OPTION predicate once for repeated
// evaluation — the planned write operators compile at build time and check
// per row. It returns nil (no check needed) when the view has no predicate.
func (u *Updatable) CompileCheck(baseSchema *types.Schema) (*RowCheck, error) {
	if u.Where == nil {
		return nil, nil
	}
	compiled, err := expr.Compile(u.Where, baseSchema)
	if err != nil {
		return nil, fmt.Errorf("view: check option for %q: %w", u.ViewName, err)
	}
	return &RowCheck{viewName: u.ViewName, compiled: compiled}, nil
}

// Check verifies one base-table row against the compiled predicate.
func (c *RowCheck) Check(row types.Tuple) error {
	if c == nil {
		return nil
	}
	ok, err := c.compiled.EvalBool(row)
	if err != nil {
		return fmt.Errorf("view: check option for %q: %w", c.viewName, err)
	}
	if !ok {
		return fmt.Errorf("view: row violates the predicate of view %q and would not be visible through it", c.viewName)
	}
	return nil
}
