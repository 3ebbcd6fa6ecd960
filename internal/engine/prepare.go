// Prepared statements: the three-phase statement lifecycle the forms runtime
// runs on.
//
//	stmt, _ := session.Prepare("SELECT * FROM customers WHERE city = @city")
//	stmt.BindNamed("city", types.NewString("Boston"))
//	rows, _ := stmt.Query()
//	for rows.Next() { ... rows.Row() ... }
//	rows.Close()
//
// Prepare parses, plans and compiles once — through the session's plan cache,
// so preparing the same text twice is a cache hit — and Bind/Query re-run the
// compiled form with new parameter values without touching the SQL text
// again. Query returns a streaming cursor; Exec runs DML and DDL. DML plans
// exactly like SELECT (cached plan trees, index access paths resolved from
// the bind frame at run time), and ExecBatch array-binds a write across a
// whole bulk load in one transaction.
package engine

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
)

// Stmt is a prepared statement: a parsed, planned and compiled statement
// bound to its session, plus the bind frame its parameter placeholders read
// from. A Stmt is reusable — bind new values and run it again — but, like its
// Session, must not be used from more than one goroutine at a time.
type Stmt struct {
	session *Session
	key     string // normalized SQL, the plan-cache key
	entry   *cachedStatement
	frame   *expr.Params
	bound   []bool
	// op is the reusable operator tree (SELECT only). Re-opening it re-runs
	// the query against the current bind frame.
	op exec.Operator
	// write is the reusable write operator (INSERT/UPDATE/DELETE only).
	// Rebinding the frame and Run-ning it again re-executes the write without
	// re-planning or re-compiling anything.
	write exec.WriteOperator
	// rt is the runtime op reads through; Query points it at a fresh MVCC
	// snapshot per execution, the way Bind repoints the parameter frame.
	rt     *exec.Runtime
	busy   bool // a Rows cursor is open on op
	closed bool
}

// Prepare parses, plans and compiles a single SQL statement for repeated
// execution. Statement skeletons are cached per session (keyed by normalized
// text), so re-preparing the same statement skips the parser and planner
// entirely. Parameters are written "?" (positional) or "@name" (named; the
// same name may appear several times and binds once).
func (s *Session) Prepare(text string) (*Stmt, error) {
	entry, err := s.statementSkeleton(text)
	if err != nil {
		return nil, err
	}
	st := &Stmt{
		session: s,
		key:     entry.key,
		entry:   entry,
		frame:   &expr.Params{Values: make([]types.Value, len(entry.paramNames))},
		bound:   make([]bool, len(entry.paramNames)),
	}
	if err := st.buildOps(entry); err != nil {
		return nil, err
	}
	s.db.prep.prepared.Add(1)
	return st, nil
}

// buildOps compiles the entry's plan into the statement's reusable operator:
// a read operator tree for SELECT, a write operator for DML. EXPLAIN entries
// keep the bare plan (it is rendered, never run).
func (st *Stmt) buildOps(entry *cachedStatement) error {
	st.op, st.write, st.rt = nil, nil, nil
	if entry.node == nil || entry.explain {
		return nil
	}
	switch entry.stmt.(type) {
	case *sql.SelectStmt:
		rt := exec.NewRuntime()
		op, err := exec.BuildWithRuntime(entry.node, st.frame, rt)
		if err != nil {
			return err
		}
		st.op = op
		st.rt = rt
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		write, err := exec.BuildWrite(entry.node, st.frame)
		if err != nil {
			return err
		}
		st.write = write
	}
	return nil
}

// statementSkeleton returns the cached bind-independent part of a statement,
// building and caching it on a miss (or when the schema changed since it was
// cached). The cache is shared engine-wide: any session that prepared the
// same normalized text already — on this connection or another — saves this
// one the parse and plan. Entries are immutable once cached, so handing the
// same skeleton to concurrent sessions is safe; each Stmt compiles its own
// operators over its own bind frame.
func (s *Session) statementSkeleton(text string) (*cachedStatement, error) {
	key := normalizeSQL(text)
	if entry := s.db.plans.get(key); entry != nil && entry.catVersion == s.db.cat.Version() {
		s.db.prep.planHits.Add(1)
		return entry, nil
	}
	s.db.prep.planMisses.Add(1)
	entry, err := s.buildSkeleton(text, key)
	if err != nil {
		return nil, err
	}
	if s.db.plans.put(entry) {
		s.db.prep.planEvictions.Add(1)
	}
	return entry, nil
}

// buildSkeleton parses the original text — not the normalized cache key — so
// syntax-error positions point at what the user actually wrote.
func (s *Session) buildSkeleton(text, key string) (*cachedStatement, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	entry := &cachedStatement{
		key:           key,
		stmt:          stmt,
		paramNames:    sql.StatementParams(stmt),
		paramOrdinals: map[string][]int{},
		catVersion:    s.db.cat.Version(),
	}
	for i, name := range entry.paramNames {
		entry.paramOrdinals[name] = append(entry.paramOrdinals[name], i)
	}
	switch stmt := stmt.(type) {
	case *sql.SelectStmt:
		node, err := plan.NewBuilder(s.db.cat).Build(stmt)
		if err != nil {
			return nil, err
		}
		entry.node = node
		for _, col := range node.Schema().Columns {
			entry.columns = append(entry.columns, col.Name)
		}
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		node, err := plan.NewBuilder(s.db.cat).BuildStatement(stmt)
		if err != nil {
			return nil, err
		}
		entry.node = node
		// A RETURNING clause gives the write a result shape; node.Schema() is
		// empty without one, leaving columns nil like any other write.
		for _, col := range node.Schema().Columns {
			entry.columns = append(entry.columns, col.Name)
		}
		s.db.prep.writePlans.Add(1)
	case *sql.ExplainStmt:
		node, err := plan.NewBuilder(s.db.cat).BuildStatement(stmt.Stmt)
		if err != nil {
			return nil, err
		}
		entry.node = node
		entry.explain = true
		entry.columns = []string{"plan"}
	default:
		if len(entry.paramNames) > 0 {
			return nil, fmt.Errorf("engine: bind parameters are not supported in %s statements", statementVerb(stmt))
		}
	}
	entry.paramKinds = inferParamKinds(s, stmt, len(entry.paramNames))
	return entry, nil
}

// statementVerb names a statement kind for error messages.
func statementVerb(stmt sql.Statement) string {
	switch stmt.(type) {
	case *sql.SelectStmt:
		return "SELECT"
	case *sql.InsertStmt:
		return "INSERT"
	case *sql.UpdateStmt:
		return "UPDATE"
	case *sql.DeleteStmt:
		return "DELETE"
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.CreateViewStmt:
		return "CREATE"
	case *sql.DropStmt:
		return "DROP"
	case *sql.ExplainStmt:
		return "EXPLAIN"
	default:
		return "transaction-control"
	}
}

// inferParamKinds derives the expected kind of each parameter from where it
// appears — compared against a column, inserted into a column, assigned to a
// column — so Bind can type-check (and coerce) values up front. Parameters in
// positions with no column context stay KindNull, meaning "any".
func inferParamKinds(s *Session, stmt sql.Statement, n int) []types.Kind {
	kinds := make([]types.Kind, n)
	if n == 0 {
		return kinds
	}
	set := func(p *sql.Param, kind types.Kind) {
		if p.Index >= 0 && p.Index < n && kind != types.KindNull {
			kinds[p.Index] = kind
		}
	}
	switch stmt := stmt.(type) {
	case *sql.SelectStmt:
		kindOf := columnKindResolver(s, stmt.From)
		sql.WalkStatementExprs(stmt, inferVisitor(kindOf, set))
	case *sql.InsertStmt:
		table, err := s.db.cat.GetTable(stmt.Table)
		if err != nil {
			return kinds
		}
		schema := table.Schema()
		for _, row := range stmt.Rows {
			for i, e := range row {
				p, ok := e.(*sql.Param)
				if !ok {
					continue
				}
				pos := i
				if len(stmt.Columns) > 0 {
					if pos >= len(stmt.Columns) {
						continue
					}
					idx, err := schema.ColumnIndex(stmt.Columns[pos])
					if err != nil {
						continue
					}
					pos = idx
				}
				if pos < schema.Len() {
					set(p, schema.Columns[pos].Type)
				}
			}
		}
		if stmt.Select != nil {
			kindOf := columnKindResolver(s, stmt.Select.From)
			sql.WalkStatementExprs(stmt.Select, inferVisitor(kindOf, set))
		}
		inferReturning(stmt.Returning, schema, set)
	case *sql.UpdateStmt:
		table, err := s.db.cat.GetTable(stmt.Table)
		if err != nil {
			return kinds
		}
		schema := table.Schema()
		for _, a := range stmt.Assignments {
			if p, ok := a.Value.(*sql.Param); ok {
				if idx, err := schema.ColumnIndex(a.Column); err == nil {
					set(p, schema.Columns[idx].Type)
				}
			}
		}
		kindOf := tableKindResolver(schema)
		sql.WalkExpr(stmt.Where, inferVisitor(kindOf, set))
		inferReturning(stmt.Returning, schema, set)
	case *sql.DeleteStmt:
		table, err := s.db.cat.GetTable(stmt.Table)
		if err != nil {
			return kinds
		}
		kindOf := tableKindResolver(table.Schema())
		sql.WalkExpr(stmt.Where, inferVisitor(kindOf, set))
		inferReturning(stmt.Returning, table.Schema(), set)
	}
	return kinds
}

// inferReturning pairs parameters inside RETURNING expressions with the target
// table's columns, the same way WHERE parameters pair with theirs.
func inferReturning(items []sql.SelectItem, schema *types.Schema, set func(*sql.Param, types.Kind)) {
	visit := inferVisitor(tableKindResolver(schema), set)
	for _, item := range items {
		sql.WalkExpr(item.Expr, visit)
	}
}

// columnKindResolver resolves column references against the base tables of a
// FROM clause. Columns of views (or unresolvable references) report KindNull.
func columnKindResolver(s *Session, from []sql.TableRef) func(*sql.ColumnRef) types.Kind {
	type source struct {
		alias  string
		schema *types.Schema
	}
	var sources []source
	for _, ref := range from {
		if !s.db.cat.HasTable(ref.Name) {
			continue
		}
		table, err := s.db.cat.GetTable(ref.Name)
		if err != nil {
			continue
		}
		sources = append(sources, source{alias: strings.ToLower(ref.EffectiveName()), schema: table.Schema()})
	}
	return func(ref *sql.ColumnRef) types.Kind {
		for _, src := range sources {
			if ref.Table != "" && !strings.EqualFold(ref.Table, src.alias) {
				continue
			}
			if idx, err := src.schema.ColumnIndex(ref.Name); err == nil {
				return src.schema.Columns[idx].Type
			}
		}
		return types.KindNull
	}
}

// tableKindResolver resolves column references against one table's schema.
func tableKindResolver(schema *types.Schema) func(*sql.ColumnRef) types.Kind {
	return func(ref *sql.ColumnRef) types.Kind {
		if idx, err := schema.ColumnIndex(ref.Name); err == nil {
			return schema.Columns[idx].Type
		}
		return types.KindNull
	}
}

// inferVisitor walks expressions pairing parameters with the columns they are
// compared to: "col OP ?", "? OP col", "col BETWEEN ? AND ?", "col IN (?, ?)".
func inferVisitor(kindOf func(*sql.ColumnRef) types.Kind, set func(*sql.Param, types.Kind)) func(sql.Expr) bool {
	return func(node sql.Expr) bool {
		switch node := node.(type) {
		case *sql.BinaryExpr:
			if ref, ok := node.Left.(*sql.ColumnRef); ok {
				if p, ok := node.Right.(*sql.Param); ok {
					set(p, kindOf(ref))
				}
			}
			if ref, ok := node.Right.(*sql.ColumnRef); ok {
				if p, ok := node.Left.(*sql.Param); ok {
					set(p, kindOf(ref))
				}
			}
		case *sql.BetweenExpr:
			if ref, ok := node.Operand.(*sql.ColumnRef); ok {
				if p, ok := node.Low.(*sql.Param); ok {
					set(p, kindOf(ref))
				}
				if p, ok := node.High.(*sql.Param); ok {
					set(p, kindOf(ref))
				}
			}
		case *sql.InExpr:
			if ref, ok := node.Operand.(*sql.ColumnRef); ok {
				for _, item := range node.List {
					if p, ok := item.(*sql.Param); ok {
						set(p, kindOf(ref))
					}
				}
			}
		}
		return true
	}
}

// --- binding -----------------------------------------------------------------

// ParamNames returns the parameter names by ordinal ("" for positional "?").
func (st *Stmt) ParamNames() []string {
	out := make([]string, len(st.entry.paramNames))
	copy(out, st.entry.paramNames)
	return out
}

// Columns returns the output column names (empty for non-SELECT statements).
func (st *Stmt) Columns() []string {
	out := make([]string, len(st.entry.columns))
	copy(out, st.entry.columns)
	return out
}

// Text returns the normalized SQL the statement was prepared from.
func (st *Stmt) Text() string { return st.key }

// IsQuery reports whether the statement produces a row stream through Query
// (a SELECT). Everything else — DML, DDL, EXPLAIN, transaction control —
// runs through Exec. The wire-protocol server routes Execute messages on it.
func (st *Stmt) IsQuery() bool { return st.op != nil }

// ReturnsRows reports whether running the statement yields rows: a SELECT, or
// a DML statement with a RETURNING clause. Both kinds may go through Query
// for a cursor; for RETURNING writes Exec materialises the same rows into the
// Result instead.
func (st *Stmt) ReturnsRows() bool {
	return st.op != nil || (st.write != nil && st.write.Returning() != nil)
}

// ExplainPlan renders the prepared plan tree for EXPLAIN-style tooling —
// SELECT and DML statements alike (empty for DDL and transaction control).
// The plan is refreshed first if the schema changed since it was prepared.
func (st *Stmt) ExplainPlan() string {
	if st.closed || st.entry.node == nil {
		return ""
	}
	if err := st.ensureCurrent(); err != nil {
		return "error: " + err.Error()
	}
	return plan.Explain(st.entry.node)
}

// Bind sets every parameter positionally. Values are type-checked against the
// kind inferred from the statement (an INT column's parameter rejects a
// string that is not a number) and coerced to it, so index lookups always
// compare in the column's domain.
func (st *Stmt) Bind(args ...types.Value) error {
	if st.closed {
		return errStmtClosed
	}
	if len(args) != len(st.frame.Values) {
		return fmt.Errorf("engine: statement takes %d parameter(s), got %d", len(st.frame.Values), len(args))
	}
	for i, v := range args {
		if err := st.bindIndex(i, v); err != nil {
			return err
		}
	}
	return nil
}

// BindNamed sets every occurrence of the named parameter ("@name" or "name").
func (st *Stmt) BindNamed(name string, v types.Value) error {
	if st.closed {
		return errStmtClosed
	}
	name = strings.ToLower(strings.TrimPrefix(name, "@"))
	ordinals := st.entry.paramOrdinals[name]
	if len(ordinals) == 0 {
		return fmt.Errorf("engine: statement has no parameter named @%s", name)
	}
	for _, i := range ordinals {
		if err := st.bindIndex(i, v); err != nil {
			return err
		}
	}
	return nil
}

func (st *Stmt) bindIndex(i int, v types.Value) error {
	want := st.entry.paramKinds[i]
	if want != types.KindNull && !v.IsNull() && v.Kind() != want {
		cast, err := v.Cast(want)
		if err != nil {
			return fmt.Errorf("engine: parameter %s: cannot bind %s value %s as %s", st.paramLabel(i), v.Kind(), v.SQL(), want)
		}
		v = cast
	}
	st.frame.Values[i] = v
	st.bound[i] = true
	return nil
}

func (st *Stmt) paramLabel(i int) string {
	if name := st.entry.paramNames[i]; name != "" {
		return "@" + name
	}
	return fmt.Sprintf("%d", i+1)
}

func (st *Stmt) checkBound() error {
	for i, ok := range st.bound {
		if !ok {
			return fmt.Errorf("engine: parameter %s is not bound", st.paramLabel(i))
		}
	}
	return nil
}

var errStmtClosed = fmt.Errorf("engine: statement is closed")

// ErrBatchReturning rejects ExecBatch on a statement with a RETURNING clause:
// a batch reports one affected count for the whole batch and has no cursor to
// stream per-row projections through. Run such statements one at a time with
// Query (or Exec) instead. Callers — including the wire server — match this
// error with errors.Is.
var ErrBatchReturning = errors.New("engine: ExecBatch does not support statements with RETURNING; execute them one at a time with Query")

// --- execution ---------------------------------------------------------------

// Query runs a prepared SELECT and returns a streaming cursor over its
// result. Optional args are a shorthand for Bind. The cursor pins the
// statement until Close (or exhaustion) and reads through an MVCC snapshot
// taken here: outside an explicit transaction the snapshot lives until the
// cursor closes; inside one, the cursor shares the transaction's snapshot.
// No locks are taken either way — an open cursor never blocks a writer.
func (st *Stmt) Query(args ...types.Value) (*Rows, error) {
	if err := st.session.refuse(st.entry.stmt); err != nil {
		return nil, err
	}
	rows, err := st.query(args)
	return rows, st.session.noteFailure(st.entry.stmt, err)
}

func (st *Stmt) query(args []types.Value) (*Rows, error) {
	if st.closed {
		return nil, errStmtClosed
	}
	if st.op == nil && !st.ReturnsRows() {
		return nil, fmt.Errorf("engine: cannot Query a %s statement; use Exec", statementVerb(st.entry.stmt))
	}
	if st.busy {
		return nil, fmt.Errorf("engine: a cursor is still open on this statement")
	}
	if len(args) > 0 {
		if err := st.Bind(args...); err != nil {
			return nil, err
		}
	}
	if err := st.checkBound(); err != nil {
		return nil, err
	}
	if err := st.ensureCurrent(); err != nil {
		return nil, err
	}
	if st.op == nil {
		return st.queryWrite()
	}
	snap, release := st.session.readSnapshot()
	st.rt.SetSnapshot(snap)
	if err := st.op.Open(); err != nil {
		release()
		return nil, err
	}
	st.busy = true
	st.session.db.prep.cursorsOpened.Add(1)
	rows := &Rows{stmt: st, op: st.op, enc: exec.AsEncoded(st.op), columns: st.entry.columns, release: release}
	if st.session.openRows == nil {
		st.session.openRows = make(map[*Rows]struct{})
	}
	st.session.openRows[rows] = struct{}{}
	return rows, nil
}

// queryWrite runs a RETURNING write and serves its projected rows through the
// ordinary cursor interface. Unlike a SELECT cursor, the write has fully
// executed — and, outside an explicit transaction, committed — before the
// first Next: the rows are the write's materialised output, not a live scan,
// so the cursor pins no snapshot.
func (st *Stmt) queryWrite() (*Rows, error) {
	res, err := st.session.runWrite(st.entry.stmt, st.write)
	if err != nil {
		return nil, err
	}
	st.busy = true
	st.session.db.prep.cursorsOpened.Add(1)
	op := &bufferedOp{schema: st.write.Returning(), rows: res.Rows}
	rows := &Rows{stmt: st, op: op, columns: st.entry.columns}
	if st.session.openRows == nil {
		st.session.openRows = make(map[*Rows]struct{})
	}
	st.session.openRows[rows] = struct{}{}
	return rows, nil
}

// Exec runs the prepared statement and materialises its outcome: rows for a
// SELECT, an affected-row count for DML, a message for DDL. Optional args are
// a shorthand for Bind.
func (st *Stmt) Exec(args ...types.Value) (*Result, error) {
	if err := st.session.refuse(st.entry.stmt); err != nil {
		return nil, err
	}
	res, err := st.exec(args)
	return res, st.session.noteFailure(st.entry.stmt, err)
}

func (st *Stmt) exec(args []types.Value) (*Result, error) {
	if st.closed {
		return nil, errStmtClosed
	}
	if len(args) > 0 {
		if err := st.Bind(args...); err != nil {
			return nil, err
		}
	}
	if st.entry.explain {
		// EXPLAIN renders the plan without running it; parameters may stay
		// unbound — the plan shows where they feed access paths.
		if err := st.ensureCurrent(); err != nil {
			return nil, err
		}
		return explainResult(st.entry.node), nil
	}
	if err := st.checkBound(); err != nil {
		return nil, err
	}
	switch st.entry.stmt.(type) {
	case *sql.SelectStmt:
		return st.queryAll()
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		if err := st.ensureCurrent(); err != nil {
			return nil, err
		}
		return st.session.runWrite(st.entry.stmt, st.write)
	default:
		return st.session.executeStmt(st.entry.stmt)
	}
}

// ExecBatch array-binds and executes a prepared DML statement once per
// parameter row, amortising one cached plan, one compiled write operator and
// one transaction across the whole batch. Outside an explicit transaction a
// single autocommit transaction spans every row — a bulk load pays for one
// commit instead of len(rows), and any error rolls the whole batch back.
// Inside an explicit transaction the batch joins it, and an error poisons
// it like any failed statement: the rows already applied can only be rolled
// back with the rest of the transaction.
func (st *Stmt) ExecBatch(rows [][]types.Value) (*Result, error) {
	if err := st.session.refuse(st.entry.stmt); err != nil {
		return nil, err
	}
	res, err := st.execBatch(rows)
	return res, st.session.noteFailure(st.entry.stmt, err)
}

func (st *Stmt) execBatch(rows [][]types.Value) (*Result, error) {
	if st.closed {
		return nil, errStmtClosed
	}
	if st.write == nil {
		return nil, fmt.Errorf("engine: ExecBatch needs a prepared INSERT, UPDATE or DELETE statement, not %s", statementVerb(st.entry.stmt))
	}
	if err := st.ensureCurrent(); err != nil {
		return nil, err
	}
	if st.write.Returning() != nil {
		return nil, ErrBatchReturning
	}
	res, err := st.session.runWriteBody(st.entry.stmt, func(t *txn.Txn) (int, []types.Tuple, error) {
		affected := 0
		for _, row := range rows {
			if err := st.Bind(row...); err != nil {
				return affected, nil, err
			}
			n, _, err := st.write.Run(t)
			if err != nil {
				return affected, nil, err
			}
			affected += n
		}
		return affected, nil, nil
	})
	if err != nil {
		return nil, err
	}
	st.session.db.prep.batchRows.Add(uint64(len(rows)))
	return res, nil
}

// queryAll drains the cursor into a materialised Result (the compatibility
// path Session.Query and Exec-of-a-SELECT use).
func (st *Stmt) queryAll() (*Result, error) {
	rows, err := st.Query()
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &Result{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// ensureCurrent replans the statement if the schema changed since it was
// prepared (an index appeared, a view was redefined). The bind frame — and
// everything already bound — carries over.
func (st *Stmt) ensureCurrent() error {
	if st.entry.catVersion == st.session.db.cat.Version() {
		return nil
	}
	entry, err := st.session.statementSkeleton(st.key)
	if err != nil {
		return err
	}
	if len(entry.paramNames) != len(st.entry.paramNames) {
		return fmt.Errorf("engine: statement changed shape after schema change; re-prepare it")
	}
	st.entry = entry
	return st.buildOps(entry)
}

// Close releases the statement. Further Bind/Query/Exec calls fail; an open
// cursor keeps working until it is closed itself.
func (st *Stmt) Close() error {
	st.closed = true
	return nil
}

// readSnapshot returns the MVCC snapshot a read runs under and the release to
// call when the read finishes. Inside an explicit transaction the
// transaction's own begin-timestamp snapshot is shared (release is a no-op;
// the snapshot lives until commit or rollback). Otherwise a fresh read-only
// snapshot is registered for the duration of the read. No locks are taken
// either way: readers never block writers, and vice versa.
func (s *Session) readSnapshot() (*txn.Snapshot, func()) {
	if s.current != nil {
		return s.current.Snapshot(), func() {}
	}
	snap := s.db.txns.AcquireSnapshot()
	return snap, snap.Release
}
