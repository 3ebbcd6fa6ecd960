package sql

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	// String renders the statement back to SQL (used for view definitions,
	// logging, and the SQL shell's echo mode).
	String() string
}

// ColumnDef is one column declaration in CREATE TABLE.
type ColumnDef struct {
	Name       string
	TypeName   string
	PrimaryKey bool
	NotNull    bool
	Unique     bool
	Default    Expr
}

// CreateTableStmt is CREATE TABLE name (columns...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX name ON table (columns...).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

// CreateViewStmt is CREATE VIEW name [(columns)] AS select.
type CreateViewStmt struct {
	Name    string
	Columns []string
	Query   *SelectStmt
}

// DropStmt is DROP TABLE/VIEW/INDEX name.
type DropStmt struct {
	Object string // "TABLE", "VIEW" or "INDEX"
	Name   string
}

// InsertStmt is INSERT INTO table [(columns)] VALUES (...), (...) or
// INSERT INTO table [(columns)] SELECT ..., with an optional RETURNING tail.
// Exactly one of Rows and Select is set.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	// Select is the query feeding the insert (INSERT ... SELECT); nil for the
	// VALUES form.
	Select *SelectStmt
	// Returning projects the inserted rows back to the caller (nil when the
	// statement has no RETURNING clause).
	Returning []SelectItem
}

// Assignment is one "column = expr" in UPDATE ... SET.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE table SET assignments [WHERE cond] [RETURNING ...].
type UpdateStmt struct {
	Table       string
	Assignments []Assignment
	Where       Expr
	// Returning projects the post-update rows back to the caller.
	Returning []SelectItem
}

// DeleteStmt is DELETE FROM table [WHERE cond] [RETURNING ...].
type DeleteStmt struct {
	Table string
	Where Expr
	// Returning projects the deleted rows (their last visible version) back
	// to the caller.
	Returning []SelectItem
}

// SelectItem is one projection in the SELECT list: either a star ("*" or
// "t.*") or an expression with an optional alias.
type SelectItem struct {
	Star      bool
	StarTable string
	Expr      Expr
	Alias     string
}

// JoinType distinguishes how a table reference combines with the ones before it.
type JoinType int

// Join types.
const (
	JoinNone  JoinType = iota // first table in FROM
	JoinCross                 // comma-separated table (condition in WHERE)
	JoinInner                 // JOIN ... ON
	JoinLeft                  // LEFT [OUTER] JOIN ... ON
)

func (j JoinType) String() string {
	switch j {
	case JoinNone:
		return ""
	case JoinCross:
		return "CROSS JOIN"
	case JoinInner:
		return "JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	default:
		return fmt.Sprintf("JoinType(%d)", int(j))
	}
}

// TableRef is one entry in the FROM clause.
type TableRef struct {
	Name  string
	Alias string
	Join  JoinType
	On    Expr // join condition for JoinInner/JoinLeft
}

// EffectiveName returns the alias if present, otherwise the table name.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
	Offset   *int64
}

// ExplainStmt is EXPLAIN <statement>: it renders the plan the engine would
// run for the wrapped statement (SELECT or DML) instead of executing it.
type ExplainStmt struct {
	Stmt Statement
}

// BeginStmt is BEGIN [TRANSACTION].
type BeginStmt struct{}

// CommitStmt is COMMIT.
type CommitStmt struct{}

// RollbackStmt is ROLLBACK.
type RollbackStmt struct{}

func (*CreateTableStmt) stmtNode() {}
func (*CreateIndexStmt) stmtNode() {}
func (*CreateViewStmt) stmtNode()  {}
func (*DropStmt) stmtNode()        {}
func (*InsertStmt) stmtNode()      {}
func (*UpdateStmt) stmtNode()      {}
func (*DeleteStmt) stmtNode()      {}
func (*SelectStmt) stmtNode()      {}
func (*ExplainStmt) stmtNode()     {}
func (*BeginStmt) stmtNode()       {}
func (*CommitStmt) stmtNode()      {}
func (*RollbackStmt) stmtNode()    {}

// quoteAll renders a list of identifiers through quoteIdent.
func quoteAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = quoteIdent(n)
	}
	return out
}

// String implements Statement.
func (s *CreateTableStmt) String() string {
	var cols []string
	for _, c := range s.Columns {
		col := quoteIdent(c.Name) + " " + c.TypeName
		if c.PrimaryKey {
			col += " PRIMARY KEY"
		}
		if c.NotNull {
			col += " NOT NULL"
		}
		if c.Unique {
			col += " UNIQUE"
		}
		if c.Default != nil {
			col += " DEFAULT " + c.Default.String()
		}
		cols = append(cols, col)
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", quoteIdent(s.Name), strings.Join(cols, ", "))
}

// String implements Statement.
func (s *CreateIndexStmt) String() string {
	unique := ""
	if s.Unique {
		unique = "UNIQUE "
	}
	return fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", unique, quoteIdent(s.Name), quoteIdent(s.Table), strings.Join(quoteAll(s.Columns), ", "))
}

// String implements Statement.
func (s *CreateViewStmt) String() string {
	cols := ""
	if len(s.Columns) > 0 {
		cols = " (" + strings.Join(quoteAll(s.Columns), ", ") + ")"
	}
	return fmt.Sprintf("CREATE VIEW %s%s AS %s", quoteIdent(s.Name), cols, s.Query.String())
}

// String implements Statement.
func (s *DropStmt) String() string { return fmt.Sprintf("DROP %s %s", s.Object, quoteIdent(s.Name)) }

// renderSelectItems renders a projection list (SELECT items or a RETURNING
// tail) back to SQL.
func renderSelectItems(items []SelectItem) string {
	var out []string
	for _, it := range items {
		switch {
		case it.Star && it.StarTable != "":
			out = append(out, quoteIdent(it.StarTable)+".*")
		case it.Star:
			out = append(out, "*")
		case it.Alias != "":
			out = append(out, it.Expr.String()+" AS "+quoteIdent(it.Alias))
		default:
			out = append(out, it.Expr.String())
		}
	}
	return strings.Join(out, ", ")
}

// renderReturning renders a RETURNING tail (empty string when absent).
func renderReturning(items []SelectItem) string {
	if len(items) == 0 {
		return ""
	}
	return " RETURNING " + renderSelectItems(items)
}

// String implements Statement.
func (s *InsertStmt) String() string {
	cols := ""
	if len(s.Columns) > 0 {
		cols = " (" + strings.Join(quoteAll(s.Columns), ", ") + ")"
	}
	if s.Select != nil {
		return fmt.Sprintf("INSERT INTO %s%s %s%s", quoteIdent(s.Table), cols, s.Select.String(), renderReturning(s.Returning))
	}
	var rows []string
	for _, row := range s.Rows {
		var vals []string
		for _, e := range row {
			vals = append(vals, e.String())
		}
		rows = append(rows, "("+strings.Join(vals, ", ")+")")
	}
	return fmt.Sprintf("INSERT INTO %s%s VALUES %s%s", quoteIdent(s.Table), cols, strings.Join(rows, ", "), renderReturning(s.Returning))
}

// String implements Statement.
func (s *UpdateStmt) String() string {
	var sets []string
	for _, a := range s.Assignments {
		sets = append(sets, quoteIdent(a.Column)+" = "+a.Value.String())
	}
	out := fmt.Sprintf("UPDATE %s SET %s", quoteIdent(s.Table), strings.Join(sets, ", "))
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out + renderReturning(s.Returning)
}

// String implements Statement.
func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + quoteIdent(s.Table)
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out + renderReturning(s.Returning)
}

// String implements Statement.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(renderSelectItems(s.Items))
	for i, tr := range s.From {
		switch {
		case i == 0:
			b.WriteString(" FROM " + quoteIdent(tr.Name))
		case tr.Join == JoinCross:
			b.WriteString(", " + quoteIdent(tr.Name))
		default:
			b.WriteString(" " + tr.Join.String() + " " + quoteIdent(tr.Name))
		}
		if tr.Alias != "" {
			b.WriteString(" " + quoteIdent(tr.Alias))
		}
		if tr.On != nil {
			b.WriteString(" ON " + tr.On.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		var gs []string
		for _, g := range s.GroupBy {
			gs = append(gs, g.String())
		}
		b.WriteString(" GROUP BY " + strings.Join(gs, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		var os []string
		for _, o := range s.OrderBy {
			item := o.Expr.String()
			if o.Desc {
				item += " DESC"
			}
			os = append(os, item)
		}
		b.WriteString(" ORDER BY " + strings.Join(os, ", "))
	}
	if s.Limit != nil {
		fmt.Fprintf(&b, " LIMIT %d", *s.Limit)
	}
	if s.Offset != nil {
		fmt.Fprintf(&b, " OFFSET %d", *s.Offset)
	}
	return b.String()
}

// String implements Statement.
func (s *ExplainStmt) String() string { return "EXPLAIN " + s.Stmt.String() }

// String implements Statement.
func (*BeginStmt) String() string { return "BEGIN" }

// String implements Statement.
func (*CommitStmt) String() string { return "COMMIT" }

// String implements Statement.
func (*RollbackStmt) String() string { return "ROLLBACK" }

// Expr is any expression node.
type Expr interface {
	exprNode()
	String() string
}

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
)

func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpLike:
		return "LIKE"
	default:
		return fmt.Sprintf("BinaryOp(%d)", int(op))
	}
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op          BinaryOp
	Left, Right Expr
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	OpNot UnaryOp = iota
	OpNeg
)

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op      UnaryOp
	Operand Expr
}

// IsNullExpr is "expr IS [NOT] NULL".
type IsNullExpr struct {
	Operand Expr
	Negate  bool
}

// BetweenExpr is "expr [NOT] BETWEEN low AND high".
type BetweenExpr struct {
	Operand   Expr
	Low, High Expr
	Negate    bool
}

// InExpr is "expr [NOT] IN (list...)".
type InExpr struct {
	Operand Expr
	List    []Expr
	Negate  bool
}

// FuncCall is a function or aggregate invocation. Star marks COUNT(*).
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
}

// Param is a bind-parameter placeholder: "?" (positional) or "@name" (named).
// Index is the parameter's ordinal within its statement, assigned by the
// parser left to right; every occurrence of the same named parameter shares
// one ordinal. Hand-built template expressions may leave Index as -1 — the
// ordinal is reassigned when the rendered SQL is parsed again.
type Param struct {
	Index int
	Name  string // "" for positional parameters
}

func (*ColumnRef) exprNode()   {}
func (*Literal) exprNode()     {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*IsNullExpr) exprNode()  {}
func (*BetweenExpr) exprNode() {}
func (*InExpr) exprNode()      {}
func (*FuncCall) exprNode()    {}
func (*Param) exprNode()       {}

// String implements Expr.
func (e *ColumnRef) String() string {
	if e.Table != "" {
		return quoteIdent(e.Table) + "." + quoteIdent(e.Name)
	}
	return quoteIdent(e.Name)
}

// RefName returns the reference's resolution key — "table.name" with no
// quoting — the form schemas store computed column names in (an aggregate
// output column is literally named "COUNT(*)"). String, by contrast, renders
// re-parseable SQL and quotes anything that is not a bare identifier.
func (e *ColumnRef) RefName() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

// String implements Expr.
func (e *Literal) String() string { return e.Value.SQL() }

// String implements Expr.
func (e *BinaryExpr) String() string {
	return "(" + e.Left.String() + " " + e.Op.String() + " " + e.Right.String() + ")"
}

// String implements Expr.
func (e *UnaryExpr) String() string {
	if e.Op == OpNot {
		return "(NOT " + e.Operand.String() + ")"
	}
	return "(-" + e.Operand.String() + ")"
}

// String implements Expr.
func (e *IsNullExpr) String() string {
	if e.Negate {
		return "(" + e.Operand.String() + " IS NOT NULL)"
	}
	return "(" + e.Operand.String() + " IS NULL)"
}

// String implements Expr.
func (e *BetweenExpr) String() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return "(" + e.Operand.String() + " " + not + "BETWEEN " + e.Low.String() + " AND " + e.High.String() + ")"
}

// String implements Expr.
func (e *InExpr) String() string {
	var items []string
	for _, it := range e.List {
		items = append(items, it.String())
	}
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return "(" + e.Operand.String() + " " + not + "IN (" + strings.Join(items, ", ") + "))"
}

// String implements Expr.
func (e *FuncCall) String() string {
	if e.Star {
		return strings.ToUpper(e.Name) + "(*)"
	}
	var args []string
	for _, a := range e.Args {
		args = append(args, a.String())
	}
	return strings.ToUpper(e.Name) + "(" + strings.Join(args, ", ") + ")"
}

// String implements Expr.
func (e *Param) String() string {
	if e.Name != "" {
		return "@" + e.Name
	}
	return "?"
}

// IsAggregate reports whether the function name is one of the five SQL
// aggregates the engine supports.
func (e *FuncCall) IsAggregate() bool {
	switch strings.ToUpper(e.Name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}

// WalkExpr calls fn on e and every sub-expression, depth first. fn returning
// false prunes the walk below that node.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch e := e.(type) {
	case *BinaryExpr:
		WalkExpr(e.Left, fn)
		WalkExpr(e.Right, fn)
	case *UnaryExpr:
		WalkExpr(e.Operand, fn)
	case *IsNullExpr:
		WalkExpr(e.Operand, fn)
	case *BetweenExpr:
		WalkExpr(e.Operand, fn)
		WalkExpr(e.Low, fn)
		WalkExpr(e.High, fn)
	case *InExpr:
		WalkExpr(e.Operand, fn)
		for _, item := range e.List {
			WalkExpr(item, fn)
		}
	case *FuncCall:
		for _, a := range e.Args {
			WalkExpr(a, fn)
		}
	}
}

// ColumnsIn returns every distinct column reference in the expression, in
// first-appearance order.
func ColumnsIn(e Expr) []*ColumnRef {
	var out []*ColumnRef
	seen := map[string]bool{}
	WalkExpr(e, func(node Expr) bool {
		if c, ok := node.(*ColumnRef); ok {
			key := strings.ToLower(c.String())
			if !seen[key] {
				seen[key] = true
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(node Expr) bool {
		if f, ok := node.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}

// WalkStatementExprs calls fn on every expression the statement contains
// (select items, FROM conditions, WHERE, GROUP BY, HAVING, ORDER BY, VALUES
// rows, an INSERT's feeding SELECT, SET assignments, RETURNING tails, DEFAULT
// clauses, and view definitions), recursing into sub-expressions exactly like
// WalkExpr.
func WalkStatementExprs(stmt Statement, fn func(Expr) bool) {
	walk := func(e Expr) { WalkExpr(e, fn) }
	walkItems := func(items []SelectItem) {
		for _, it := range items {
			walk(it.Expr)
		}
	}
	switch stmt := stmt.(type) {
	case *SelectStmt:
		walkItems(stmt.Items)
		for _, ref := range stmt.From {
			walk(ref.On)
		}
		walk(stmt.Where)
		for _, g := range stmt.GroupBy {
			walk(g)
		}
		walk(stmt.Having)
		for _, o := range stmt.OrderBy {
			walk(o.Expr)
		}
	case *InsertStmt:
		for _, row := range stmt.Rows {
			for _, e := range row {
				walk(e)
			}
		}
		if stmt.Select != nil {
			WalkStatementExprs(stmt.Select, fn)
		}
		walkItems(stmt.Returning)
	case *UpdateStmt:
		for _, a := range stmt.Assignments {
			walk(a.Value)
		}
		walk(stmt.Where)
		walkItems(stmt.Returning)
	case *DeleteStmt:
		walk(stmt.Where)
		walkItems(stmt.Returning)
	case *CreateTableStmt:
		for _, col := range stmt.Columns {
			walk(col.Default)
		}
	case *CreateViewStmt:
		if stmt.Query != nil {
			WalkStatementExprs(stmt.Query, fn)
		}
	case *ExplainStmt:
		if stmt.Stmt != nil {
			WalkStatementExprs(stmt.Stmt, fn)
		}
	}
}

// StatementParams returns one entry per bind-parameter ordinal in the
// statement: the parameter's name for "@name" placeholders, "" for positional
// "?" placeholders. An empty slice means the statement takes no parameters.
func StatementParams(stmt Statement) []string {
	count := 0
	WalkStatementExprs(stmt, func(e Expr) bool {
		if p, ok := e.(*Param); ok && p.Index >= count {
			count = p.Index + 1
		}
		return true
	})
	names := make([]string, count)
	WalkStatementExprs(stmt, func(e Expr) bool {
		if p, ok := e.(*Param); ok && p.Index >= 0 {
			names[p.Index] = p.Name
		}
		return true
	})
	return names
}
