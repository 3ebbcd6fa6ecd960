package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	tokens []Token
	pos    int

	// paramSeq and paramNames assign bind-parameter ordinals within the
	// statement being parsed: positional "?" placeholders take the next
	// ordinal, repeated "@name" placeholders share one.
	paramSeq   int
	paramNames map[string]int
}

// resetParams starts a fresh parameter numbering (one per statement).
func (p *Parser) resetParams() {
	p.paramSeq = 0
	p.paramNames = nil
}

// newParam allocates (or, for a repeated name, reuses) a parameter ordinal.
func (p *Parser) newParam(name string) *Param {
	if name != "" {
		if idx, ok := p.paramNames[name]; ok {
			return &Param{Index: idx, Name: name}
		}
		if p.paramNames == nil {
			p.paramNames = map[string]int{}
		}
		p.paramNames[name] = p.paramSeq
	}
	param := &Param{Index: p.paramSeq, Name: name}
	p.paramSeq++
	return param
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	stmts, err := ParseAll(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, &ParseError{Msg: "expected exactly one statement", Line: 1, Col: 1}
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script into its statements.
func ParseAll(input string) ([]Statement, error) {
	tokens, err := tokenize(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{tokens: tokens}
	var stmts []Statement
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().Kind == TokenEOF {
			break
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		if !p.acceptSymbol(";") && p.peek().Kind != TokenEOF {
			return nil, p.errorf("expected ';' or end of input")
		}
	}
	return stmts, nil
}

// ParseSelect parses a single SELECT statement; anything else is an error.
// The view expander and the forms layer's query builder use it.
func ParseSelect(input string) (*SelectStmt, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, &ParseError{Msg: "expected a SELECT statement", Line: 1, Col: 1}
	}
	return sel, nil
}

// ParseExpr parses a standalone expression (used by the FDL front end for
// validation rules, defaults and computed fields).
func ParseExpr(input string) (Expr, error) {
	tokens, err := tokenize(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{tokens: tokens}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokenEOF {
		return nil, p.errorf("unexpected input after expression")
	}
	return e, nil
}

func (p *Parser) peek() Token { return p.tokens[p.pos] }
func (p *Parser) next() Token { t := p.tokens[p.pos]; p.pos++; return t }

func (p *Parser) errorf(format string, args ...interface{}) error {
	t := p.peek()
	return &ParseError{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col, Near: t.String()}
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *Parser) acceptKeyword(kw string) bool {
	if p.peek().Kind == TokenKeyword && p.peek().Text == kw {
		p.next()
		return true
	}
	return false
}

// expectKeyword consumes the given keyword or fails.
func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

// acceptSymbol consumes the next token if it is the given symbol.
func (p *Parser) acceptSymbol(sym string) bool {
	if p.peek().Kind == TokenSymbol && p.peek().Text == sym {
		p.next()
		return true
	}
	return false
}

// expectSymbol consumes the given symbol or fails.
func (p *Parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q", sym)
	}
	return nil
}

// expectIdent consumes an identifier (or unreserved keyword used as a name)
// and returns its text.
func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokenIdent {
		p.next()
		return t.Text, nil
	}
	return "", p.errorf("expected an identifier")
}

func (p *Parser) parseStatement() (Statement, error) {
	p.resetParams()
	t := p.peek()
	if t.Kind != TokenKeyword {
		return nil, p.errorf("expected a statement keyword")
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "EXPLAIN":
		p.next()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if _, ok := inner.(*ExplainStmt); ok {
			return nil, p.errorf("EXPLAIN cannot wrap another EXPLAIN")
		}
		return &ExplainStmt{Stmt: inner}, nil
	case "BEGIN":
		p.next()
		p.acceptKeyword("TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	default:
		return nil, p.errorf("unsupported statement %s", t.Text)
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errorf("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	case p.acceptKeyword("VIEW"):
		if unique {
			return nil, p.errorf("UNIQUE is not valid before VIEW")
		}
		return p.parseCreateView()
	default:
		return nil, p.errorf("expected TABLE, INDEX or VIEW after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	var def ColumnDef
	name, err := p.expectIdent()
	if err != nil {
		return def, err
	}
	def.Name = name
	typeTok := p.peek()
	if typeTok.Kind != TokenIdent && typeTok.Kind != TokenKeyword {
		return def, p.errorf("expected a type name for column %s", name)
	}
	p.next()
	def.TypeName = typeTok.Text
	if _, err := types.KindFromName(def.TypeName); err != nil {
		return def, p.errorf("unknown type %s for column %s", def.TypeName, name)
	}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return def, err
			}
			def.PrimaryKey = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return def, err
			}
			def.NotNull = true
		case p.acceptKeyword("UNIQUE"):
			def.Unique = true
		case p.acceptKeyword("DEFAULT"):
			e, err := p.parsePrimary()
			if err != nil {
				return def, err
			}
			def.Default = e
		default:
			return def, nil
		}
	}
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		cols = append(cols, col)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Columns: cols, Unique: unique}, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &CreateViewStmt{Name: name}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	query, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Query = query.(*SelectStmt)
	return stmt, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	var object string
	switch {
	case p.acceptKeyword("TABLE"):
		object = "TABLE"
	case p.acceptKeyword("VIEW"):
		object = "VIEW"
	case p.acceptKeyword("INDEX"):
		object = "INDEX"
	default:
		return nil, p.errorf("expected TABLE, VIEW or INDEX after DROP")
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Object: object, Name: name}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.acceptSymbol("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if p.peek().Kind == TokenKeyword && p.peek().Text == "SELECT" {
		// INSERT ... SELECT: the query's rows feed the insert.
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Select = sel.(*SelectStmt)
		if stmt.Returning, err = p.parseReturning(); err != nil {
			return nil, err
		}
		return stmt, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if stmt.Returning, err = p.parseReturning(); err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseReturning parses an optional RETURNING tail on a DML statement. The
// items are ordinary projection items ("*", expressions, aliases), so the
// grammar of a RETURNING list is exactly that of a SELECT list.
func (p *Parser) parseReturning() ([]SelectItem, error) {
	if !p.acceptKeyword("RETURNING") {
		return nil, nil
	}
	var items []SelectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return items, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Assignments = append(stmt.Assignments, Assignment{Column: col, Value: val})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		where, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = where
	}
	if stmt.Returning, err = p.parseReturning(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		where, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = where
	}
	if stmt.Returning, err = p.parseReturning(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Distinct: p.acceptKeyword("DISTINCT")}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		first := true
		for {
			var join JoinType
			switch {
			case first:
				join = JoinNone
			case p.acceptSymbol(","):
				join = JoinCross
			case p.acceptKeyword("JOIN"):
				join = JoinInner
			case p.acceptKeyword("INNER"):
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				join = JoinInner
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
				join = JoinLeft
			default:
				join = JoinNone
			}
			if !first && join == JoinNone {
				break
			}
			ref, err := p.parseTableRef(join)
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, ref)
			first = false
		}
	}
	if p.acceptKeyword("WHERE") {
		where, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = where
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		having, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = having
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectInteger()
		if err != nil {
			return nil, err
		}
		stmt.Limit = &n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.expectInteger()
		if err != nil {
			return nil, err
		}
		stmt.Offset = &n
	}
	return stmt, nil
}

func (p *Parser) expectInteger() (int64, error) {
	t := p.peek()
	if t.Kind != TokenNumber {
		return 0, p.errorf("expected an integer")
	}
	p.next()
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errorf("expected an integer, got %s", t.Text)
	}
	return n, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// "*"
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// "table.*"
	if p.peek().Kind == TokenIdent {
		save := p.pos
		name := p.next().Text
		if p.acceptSymbol(".") && p.acceptSymbol("*") {
			return SelectItem{Star: true, StarTable: name}, nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokenIdent {
		// Bare alias: "SELECT credit*2 doubled".
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef(join JoinType) (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name, Join: join}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TokenIdent {
		ref.Alias = p.next().Text
	}
	if join == JoinInner || join == JoinLeft {
		if err := p.expectKeyword("ON"); err != nil {
			return TableRef{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return TableRef{}, err
		}
		ref.On = on
	}
	return ref, nil
}

// Expression grammar, loosest binding first:
//
//	expr     := orExpr
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | cmpExpr
//	cmpExpr  := addExpr [(= | <> | != | < | <= | > | >= | LIKE) addExpr
//	                     | IS [NOT] NULL
//	                     | [NOT] BETWEEN addExpr AND addExpr
//	                     | [NOT] IN (expr, ...)]
//	addExpr  := mulExpr ((+|-) mulExpr)*
//	mulExpr  := unary ((*|/|%) unary)*
//	unary    := - unary | primary
//	primary  := literal | columnRef | funcCall | ( expr )
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		operand, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: OpNot, Operand: operand}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		negate := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Operand: left, Negate: negate}, nil
	}
	// [NOT] BETWEEN / IN / LIKE
	negate := false
	if p.peek().Kind == TokenKeyword && p.peek().Text == "NOT" {
		after := p.tokens[p.pos+1]
		if after.Kind == TokenKeyword && (after.Text == "BETWEEN" || after.Text == "IN" || after.Text == "LIKE") {
			p.next()
			negate = true
		}
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		low, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		high, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Operand: left, Low: low, High: high, Negate: negate}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{Operand: left, List: list, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := Expr(&BinaryExpr{Op: OpLike, Left: left, Right: right})
		if negate {
			like = &UnaryExpr{Op: OpNot, Operand: like}
		}
		return like, nil
	}
	// Plain comparison operators.
	var op BinaryOp
	found := true
	switch {
	case p.acceptSymbol("="):
		op = OpEq
	case p.acceptSymbol("<>"), p.acceptSymbol("!="):
		op = OpNe
	case p.acceptSymbol("<="):
		op = OpLe
	case p.acceptSymbol("<"):
		op = OpLt
	case p.acceptSymbol(">="):
		op = OpGe
	case p.acceptSymbol(">"):
		op = OpGt
	default:
		found = false
	}
	if !found {
		return left, nil
	}
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: op, Left: left, Right: right}, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.acceptSymbol("+"):
			op = OpAdd
		case p.acceptSymbol("-"):
			op = OpSub
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.acceptSymbol("*"):
			op = OpMul
		case p.acceptSymbol("/"):
			op = OpDiv
		case p.acceptSymbol("%"):
			op = OpMod
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals so "-5" is a literal, which the
		// planner's index-selection code expects.
		if lit, ok := operand.(*Literal); ok {
			switch lit.Value.Kind() {
			case types.KindInt:
				return &Literal{Value: types.NewInt(-lit.Value.Int())}, nil
			case types.KindFloat:
				return &Literal{Value: types.NewFloat(-lit.Value.Float())}, nil
			}
		}
		return &UnaryExpr{Op: OpNeg, Operand: operand}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokenNumber:
		p.next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %s", t.Text)
			}
			return &Literal{Value: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %s", t.Text)
		}
		return &Literal{Value: types.NewInt(i)}, nil
	case TokenString:
		p.next()
		return &Literal{Value: types.NewString(t.Text)}, nil
	case TokenKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: types.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: types.NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			return p.parseFuncCall(t.Text)
		default:
			return nil, p.errorf("unexpected keyword %s in expression", t.Text)
		}
	case TokenSymbol:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected symbol %s in expression", t.Text)
	case TokenParam:
		p.next()
		return p.newParam(t.Text), nil
	case TokenIdent:
		p.next()
		// Function call?
		if p.peek().Kind == TokenSymbol && p.peek().Text == "(" {
			return p.parseFuncCall(t.Text)
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Name: col}, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	default:
		return nil, p.errorf("unexpected token in expression")
	}
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	call := &FuncCall{Name: strings.ToUpper(name)}
	if p.acceptSymbol("*") {
		call.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.acceptSymbol(")") {
		return call, nil
	}
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return call, nil
}
