// DML plan nodes. INSERT, UPDATE and DELETE go through the same builder as
// SELECT: the target (table or updatable view) is resolved and translated at
// plan time, UPDATE/DELETE predicates become the filter of an ordinary child
// ScanNode — so they get the planner's index equality and range access paths,
// parameter operands and NULL-key semantics — and the exec package's write
// operators apply the changes.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/view"
)

// emptySchema is what write nodes without a RETURNING clause report: they
// produce no tuples.
var emptySchema = &types.Schema{}

// Returning is the planned form of a DML statement's RETURNING tail: the
// star-expanded projection expressions, their output names, and the schema of
// the rows the write streams back. Expressions are resolved against the
// target table's schema and evaluated by the write operators against each
// affected row — the post-image for INSERT and UPDATE, the pre-image for
// DELETE.
type Returning struct {
	// Exprs are the projection expressions, one per output column, with stars
	// already expanded to column references.
	Exprs []sql.Expr
	// Names are the output column names, parallel to Exprs.
	Names []string
	// Schema describes the returned rows (declared column kinds where an
	// expression is a plain column reference, KindNull — "any" — otherwise).
	Schema *types.Schema
}

// schemaOf reports the output schema of a write node: the RETURNING schema
// when the clause is present, the empty schema otherwise.
func (r *Returning) schemaOf() *types.Schema {
	if r == nil {
		return emptySchema
	}
	return r.Schema
}

// explainSuffix renders the clause for EXPLAIN output ("" when absent).
func (r *Returning) explainSuffix() string {
	if r == nil {
		return ""
	}
	return " returning " + strings.Join(r.Names, ", ")
}

// InsertNode plans an INSERT: each row of value expressions is evaluated
// (against the bind frame, for prepared inserts) into a full-width tuple and
// inserted into Table. For INSERT ... SELECT the Select child produces the
// rows instead of the VALUES expressions.
type InsertNode struct {
	Table *catalog.Table
	// Columns are the base-table columns being supplied, already translated
	// through the view when the statement targets one. Empty means the values
	// cover the whole schema positionally.
	Columns []string
	// ColumnPos are the schema positions of Columns (nil when Columns is
	// empty), resolved at plan time.
	ColumnPos []int
	// Rows holds the VALUES expressions, view-translated where applicable.
	Rows [][]sql.Expr
	// Select is the planned query feeding the insert (nil for the VALUES
	// form); its output maps onto Columns positionally.
	Select Node
	// Check enforces the updatable view's CHECK OPTION (nil for base tables).
	Check *view.Updatable
	// Returning projects the inserted rows back to the caller (nil when the
	// statement has no RETURNING clause).
	Returning *Returning
}

// Schema implements Node.
func (n *InsertNode) Schema() *types.Schema { return n.Returning.schemaOf() }

// Children implements Node.
func (n *InsertNode) Children() []Node {
	if n.Select != nil {
		return []Node{n.Select}
	}
	return nil
}

// Explain implements Node.
func (n *InsertNode) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Insert into %s", n.Table.Name())
	if len(n.Columns) > 0 {
		fmt.Fprintf(&b, " (%s)", strings.Join(n.Columns, ", "))
	}
	if n.Select != nil {
		b.WriteString(" from select")
	} else {
		fmt.Fprintf(&b, " (%d row(s))", len(n.Rows))
	}
	if n.Check != nil {
		fmt.Fprintf(&b, " via view %s", strings.ToLower(n.Check.ViewName))
	}
	b.WriteString(n.Returning.explainSuffix())
	return b.String()
}

// SetClause is one "column = expr" of a planned UPDATE, with the column
// resolved to its schema position.
type SetClause struct {
	Column string
	Pos    int
	Expr   sql.Expr
}

// UpdateNode plans an UPDATE: the child scan yields the target rows (with
// whatever access path the planner chose for the predicate), and each is
// rewritten by the set clauses.
type UpdateNode struct {
	Input Node
	Table *catalog.Table
	Sets  []SetClause
	// Check enforces the updatable view's CHECK OPTION (nil for base tables).
	Check *view.Updatable
	// Returning projects the post-update rows back to the caller.
	Returning *Returning
}

// Schema implements Node.
func (n *UpdateNode) Schema() *types.Schema { return n.Returning.schemaOf() }

// Children implements Node.
func (n *UpdateNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *UpdateNode) Explain() string {
	cols := make([]string, len(n.Sets))
	for i, s := range n.Sets {
		cols[i] = s.Column
	}
	out := fmt.Sprintf("Update %s set %s", n.Table.Name(), strings.Join(cols, ", "))
	if n.Check != nil {
		out += fmt.Sprintf(" via view %s", strings.ToLower(n.Check.ViewName))
	}
	return out + n.Returning.explainSuffix()
}

// DeleteNode plans a DELETE: the child scan yields the rows to remove.
type DeleteNode struct {
	Input Node
	Table *catalog.Table
	// Check names the view the delete goes through (its predicate is already
	// ANDed into the child scan; deletes need no row check, but the view is
	// kept for EXPLAIN).
	Check *view.Updatable
	// Returning projects the deleted rows (their last visible version) back
	// to the caller.
	Returning *Returning
}

// Schema implements Node.
func (n *DeleteNode) Schema() *types.Schema { return n.Returning.schemaOf() }

// Children implements Node.
func (n *DeleteNode) Children() []Node { return []Node{n.Input} }

// Explain implements Node.
func (n *DeleteNode) Explain() string {
	out := fmt.Sprintf("Delete from %s", n.Table.Name())
	if n.Check != nil {
		out += fmt.Sprintf(" via view %s", strings.ToLower(n.Check.ViewName))
	}
	return out + n.Returning.explainSuffix()
}

// BuildStatement plans any plannable statement: SELECT through Build, DML
// through the Build{Insert,Update,Delete} paths.
func (b *Builder) BuildStatement(stmt sql.Statement) (Node, error) {
	switch stmt := stmt.(type) {
	case *sql.SelectStmt:
		return b.Build(stmt)
	case *sql.InsertStmt:
		return b.buildInsert(stmt)
	case *sql.UpdateStmt:
		return b.buildUpdate(stmt)
	case *sql.DeleteStmt:
		return b.buildDelete(stmt)
	default:
		return nil, fmt.Errorf("plan: statement %T has no plan", stmt)
	}
}

// resolveWriteTarget resolves the target of a DML statement: a base table
// directly, or an updatable view with its translation.
func (b *Builder) resolveWriteTarget(name string) (*catalog.Table, *view.Updatable, error) {
	if b.cat.HasTable(name) {
		table, err := b.cat.GetTable(name)
		return table, nil, err
	}
	if b.cat.HasView(name) {
		def, err := b.cat.GetView(name)
		if err != nil {
			return nil, nil, err
		}
		updatable, err := view.Analyze(def, b.cat)
		if err != nil {
			return nil, nil, err
		}
		table, err := b.cat.GetTable(updatable.BaseTable)
		if err != nil {
			return nil, nil, err
		}
		return table, updatable, nil
	}
	return nil, nil, fmt.Errorf("plan: no table or view named %q", name)
}

// buildReturning resolves a RETURNING tail against the write's target table:
// stars expand to the table's columns, expressions must resolve against the
// table schema (qualified by the table name, like a write's WHERE clause),
// and aggregates are rejected. View targets reject RETURNING — the clause
// would have to be translated back through the view's projection, which the
// planner does not do.
func (b *Builder) buildReturning(table *catalog.Table, updatable *view.Updatable, items []sql.SelectItem) (*Returning, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if updatable != nil {
		return nil, fmt.Errorf("plan: RETURNING is not supported on view %s; target the base table %s", strings.ToLower(updatable.ViewName), table.Name())
	}
	alias := strings.ToLower(table.Name())
	schema := table.Schema().WithTable(alias)
	ret := &Returning{Schema: types.NewSchema()}
	add := func(e sql.Expr, name string, kind types.Kind) {
		ret.Exprs = append(ret.Exprs, e)
		ret.Names = append(ret.Names, name)
		ret.Schema.Columns = append(ret.Schema.Columns, types.Column{Name: name, Type: kind})
	}
	for _, it := range items {
		if it.Star {
			if it.StarTable != "" && !strings.EqualFold(it.StarTable, alias) {
				return nil, fmt.Errorf("plan: RETURNING %s.*: the write targets %s", it.StarTable, alias)
			}
			for _, col := range table.Schema().Columns {
				add(&sql.ColumnRef{Name: col.Name}, col.Name, col.Type)
			}
			continue
		}
		if err := checkResolves(it.Expr, schema); err != nil {
			return nil, fmt.Errorf("plan: RETURNING: %w", err)
		}
		if sql.HasAggregate(it.Expr) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in RETURNING")
		}
		name := it.Alias
		kind := types.KindNull
		if ref, ok := it.Expr.(*sql.ColumnRef); ok {
			if idx, err := schema.ColumnIndex(ref.RefName()); err == nil {
				kind = schema.Columns[idx].Type
				if name == "" {
					name = schema.Columns[idx].Name
				}
			}
		}
		if name == "" {
			name = it.Expr.String()
		}
		add(it.Expr, name, kind)
	}
	return ret, nil
}

// buildInsert plans an INSERT statement. View targets are translated to their
// base table and row widths and column names are validated, so execution only
// evaluates expressions and inserts.
func (b *Builder) buildInsert(stmt *sql.InsertStmt) (Node, error) {
	table, updatable, err := b.resolveWriteTarget(stmt.Table)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()
	node := &InsertNode{Table: table, Check: updatable}
	if node.Returning, err = b.buildReturning(table, updatable, stmt.Returning); err != nil {
		return nil, err
	}
	if stmt.Select != nil {
		return b.buildInsertSelect(stmt, node, table, updatable)
	}
	columns := stmt.Columns
	for _, row := range stmt.Rows {
		values := row
		if updatable != nil {
			translated, translatedValues, err := updatable.TranslateInsert(stmt.Columns, row)
			if err != nil {
				return nil, err
			}
			columns, values = translated, translatedValues
		}
		if len(columns) == 0 && len(values) != schema.Len() {
			return nil, fmt.Errorf("plan: table %s has %d columns but %d values were supplied", table.Name(), schema.Len(), len(values))
		}
		if len(columns) > 0 && len(columns) != len(values) {
			return nil, fmt.Errorf("plan: %d columns but %d values", len(columns), len(values))
		}
		node.Rows = append(node.Rows, values)
	}
	node.Columns = columns
	if err := resolveInsertColumns(node, schema); err != nil {
		return nil, err
	}
	return node, nil
}

// resolveInsertColumns resolves the node's column names to schema positions.
func resolveInsertColumns(node *InsertNode, schema *types.Schema) error {
	if len(node.Columns) == 0 {
		return nil
	}
	node.ColumnPos = make([]int, len(node.Columns))
	for i, name := range node.Columns {
		pos, err := schema.ColumnIndex(name)
		if err != nil {
			return err
		}
		node.ColumnPos[i] = pos
	}
	return nil
}

// buildInsertSelect plans the INSERT ... SELECT form: the query is planned
// like any SELECT (index access paths, sorts, aggregates all apply) and its
// output feeds the insert positionally — onto the named column list when one
// is given, onto the whole schema otherwise.
func (b *Builder) buildInsertSelect(stmt *sql.InsertStmt, node *InsertNode, table *catalog.Table, updatable *view.Updatable) (Node, error) {
	if updatable != nil {
		return nil, fmt.Errorf("plan: INSERT ... SELECT into view %s is not supported; target the base table %s", strings.ToLower(updatable.ViewName), table.Name())
	}
	sel, err := b.Build(stmt.Select)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()
	width := schema.Len()
	if len(stmt.Columns) > 0 {
		width = len(stmt.Columns)
	}
	if got := sel.Schema().Len(); got != width {
		return nil, fmt.Errorf("plan: INSERT ... SELECT supplies %d column(s) but %d are expected", got, width)
	}
	node.Select = sel
	node.Columns = stmt.Columns
	if err := resolveInsertColumns(node, schema); err != nil {
		return nil, err
	}
	return node, nil
}

// buildUpdate plans an UPDATE statement: the (view-translated) predicate
// becomes the filter of a child scan, which then gets the same access-path
// selection as a SELECT over the table.
func (b *Builder) buildUpdate(stmt *sql.UpdateStmt) (Node, error) {
	table, updatable, err := b.resolveWriteTarget(stmt.Table)
	if err != nil {
		return nil, err
	}
	assignments := stmt.Assignments
	where := stmt.Where
	if updatable != nil {
		if assignments, err = updatable.TranslateAssignments(stmt.Assignments); err != nil {
			return nil, err
		}
		if where, err = updatable.TranslatePredicate(stmt.Where); err != nil {
			return nil, err
		}
	}
	scan, err := b.buildWriteScan(table, where)
	if err != nil {
		return nil, err
	}
	node := &UpdateNode{Input: scan, Table: table, Check: updatable}
	if node.Returning, err = b.buildReturning(table, updatable, stmt.Returning); err != nil {
		return nil, err
	}
	schema := table.Schema()
	for _, a := range assignments {
		pos, err := schema.ColumnIndex(a.Column)
		if err != nil {
			return nil, err
		}
		if err := checkResolves(a.Value, scan.Schema()); err != nil {
			return nil, fmt.Errorf("plan: SET %s: %w", a.Column, err)
		}
		node.Sets = append(node.Sets, SetClause{Column: a.Column, Pos: pos, Expr: a.Value})
	}
	return node, nil
}

// buildDelete plans a DELETE statement the same way as an UPDATE, minus the
// set clauses.
func (b *Builder) buildDelete(stmt *sql.DeleteStmt) (Node, error) {
	table, updatable, err := b.resolveWriteTarget(stmt.Table)
	if err != nil {
		return nil, err
	}
	where := stmt.Where
	if updatable != nil {
		if where, err = updatable.TranslatePredicate(stmt.Where); err != nil {
			return nil, err
		}
	}
	scan, err := b.buildWriteScan(table, where)
	if err != nil {
		return nil, err
	}
	node := &DeleteNode{Input: scan, Table: table, Check: updatable}
	if node.Returning, err = b.buildReturning(table, updatable, stmt.Returning); err != nil {
		return nil, err
	}
	return node, nil
}

// buildWriteScan builds the child scan of an UPDATE or DELETE: a scan of the
// base table filtered by the statement's predicate, run through the same
// access-path selection reads get.
func (b *Builder) buildWriteScan(table *catalog.Table, where sql.Expr) (*ScanNode, error) {
	alias := strings.ToLower(table.Name())
	scan := &ScanNode{
		Table:   table,
		Alias:   alias,
		Access:  AccessSeqScan,
		EqParam: -1,
		Filter:  where,
		schema:  table.Schema().WithTable(alias),
	}
	if where != nil {
		if err := checkResolves(where, scan.schema); err != nil {
			return nil, fmt.Errorf("plan: WHERE: %w", err)
		}
		if sql.HasAggregate(where) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in a write's WHERE clause")
		}
	}
	chooseAccessPaths(scan)
	return scan, nil
}
