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

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns of a SELECT, or of a DML statement's
	// RETURNING clause (nil for other statements).
	Columns []string
	// Rows holds the result rows of a SELECT, or the rows a RETURNING clause
	// projected from the affected rows.
	Rows []types.Tuple
	// RowsAffected counts the rows written by INSERT, UPDATE or DELETE.
	RowsAffected int
	// message describes the effect of a DDL or transaction-control
	// statement; verb names a DML statement's ("inserted"), whose message
	// Message formats from it and RowsAffected.
	message, verb string
}

// Message describes the statement's effect: "N row(s) inserted" and the like
// for INSERT, UPDATE and DELETE, the outcome of a DDL or transaction-control
// statement, and nothing for a SELECT. A write's message is formatted when
// it is read, not when the statement runs.
func (r *Result) Message() string {
	if r.verb != "" {
		return fmt.Sprintf("%d row(s) %s", r.RowsAffected, r.verb)
	}
	return r.message
}

// Session executes statements against a database, carrying the current
// explicit transaction if one is open. It is not safe for concurrent use.
// Prepared-statement skeletons are cached engine-wide (the sessions share one
// plan cache); bind frames and cursors stay private to the session.
//
// Reads run against MVCC snapshots and take no locks: a session may freely
// write to a table it is still streaming from (the open cursor keeps seeing
// its own snapshot), and one session's open cursor never blocks another
// session's writes.
type Session struct {
	db      *Database
	current *txn.Txn
	// failed marks current as poisoned by a failed statement: every
	// statement but ROLLBACK and COMMIT is refused, and COMMIT rolls back.
	failed bool
	// openRows tracks this session's open cursors so Close can release their
	// snapshots when a connection drops with cursors still streaming.
	openRows map[*Rows]struct{}
	closed   bool
	// recovering marks the session a log applier runs logged DDL in. Schema
	// statements it runs must not be appended to the log again — they are
	// already in it (or in the checkpoint image being applied).
	recovering bool
}

// Close releases everything the session holds: open cursors (and with them
// the snapshots pinning old row versions against reclaim) are closed, and
// an open explicit transaction is rolled back. The server calls this when a
// connection disconnects — cleanly or not — so an abandoned session can never
// keep holding row claims or pin the GC horizon. Closing an already-closed
// session is a no-op.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.db.sessionsClosed.Add(1)
	// Snapshot first: Rows.Close unregisters from the map as it runs.
	open := make([]*Rows, 0, len(s.openRows))
	for r := range s.openRows {
		open = append(open, r)
	}
	for _, r := range open {
		r.Close()
	}
	var err error
	if s.current != nil {
		err = s.current.Rollback()
		s.current, s.failed = nil, false
	}
	return err
}

// Database returns the database this session belongs to.
func (s *Session) Database() *Database { return s.db }

// Execute runs a single SQL statement given as text. It is a convenience
// wrapper over Prepare + Exec, so repeated statements hit the session's plan
// cache; statements with parameters must use Prepare directly (there is
// nothing to bind here).
func (s *Session) Execute(text string) (*Result, error) {
	st, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Exec()
}

// ExecuteScript runs a semicolon-separated script, stopping at the first
// error. Each statement runs like Execute, through Prepare and Exec. It
// returns one result per executed statement.
func (s *Session) ExecuteScript(text string) ([]*Result, error) {
	stmts, err := sql.ParseAll(text)
	if err != nil {
		return nil, err
	}
	var results []*Result
	for _, stmt := range stmts {
		res, err := s.Execute(stmt.String())
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// Query runs a statement that must be a SELECT and materialises its rows.
// Like Execute it goes through the plan cache; use Prepare for parameterized
// or streaming queries.
func (s *Session) Query(text string) (*Result, error) {
	st, err := s.Prepare(text)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if _, ok := st.entry.stmt.(*sql.SelectStmt); !ok {
		return nil, &sql.ParseError{Msg: "expected a SELECT statement", Line: 1, Col: 1}
	}
	return st.queryAll()
}

// executeStmt runs a DDL or transaction-control statement for Stmt.Exec,
// once refuse has let it through.
func (s *Session) executeStmt(stmt sql.Statement) (*Result, error) {
	switch stmt := stmt.(type) {
	case *sql.CreateTableStmt:
		return s.executeCreateTable(stmt)
	case *sql.CreateIndexStmt:
		return s.executeCreateIndex(stmt)
	case *sql.CreateViewStmt:
		return s.executeCreateView(stmt)
	case *sql.DropStmt:
		return s.executeDrop(stmt)
	case *sql.BeginStmt:
		return s.executeBegin()
	case *sql.CommitStmt:
		return s.executeCommit()
	case *sql.RollbackStmt:
		return s.executeRollback()
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// --- transaction control -------------------------------------------------

// ErrTxnAborted refuses a statement inside a transaction that an earlier
// statement's error has poisoned. A failed statement may have written some
// of its rows before it failed, and a transaction cannot keep those rows and
// drop the rest, so it can only roll back: every statement but ROLLBACK is
// refused, and COMMIT rolls the transaction back and returns this error.
var ErrTxnAborted = errors.New("engine: current transaction is aborted, statements are refused until ROLLBACK")

// refuse refuses stmt before it runs, inside an explicit transaction: any
// statement but COMMIT and ROLLBACK once the transaction is poisoned, and any
// DDL. A refused statement changes nothing, so it poisons nothing.
func (s *Session) refuse(stmt sql.Statement) error {
	switch {
	case s.current == nil:
		return nil
	case s.failed && !isTxnControl(stmt):
		return ErrTxnAborted
	case isDDL(stmt):
		return ErrDDLInTransaction
	}
	return nil
}

// noteFailure poisons the open transaction when a statement inside it
// failed, and returns err. The outcome of transaction control itself poisons
// nothing: COMMIT and ROLLBACK end the transaction, and a BEGIN inside one
// is refused without touching it.
func (s *Session) noteFailure(stmt sql.Statement, err error) error {
	if err != nil && s.current != nil && !isTxnControl(stmt) {
		s.failed = true
	}
	return err
}

// isTxnControl reports whether stmt is BEGIN, COMMIT or ROLLBACK.
func isTxnControl(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		return true
	}
	return false
}

func (s *Session) executeBegin() (*Result, error) {
	if s.current != nil {
		return nil, fmt.Errorf("engine: a transaction is already open")
	}
	t, err := s.db.txns.Begin()
	if err != nil {
		return nil, err
	}
	s.current = t
	return &Result{message: "BEGIN"}, nil
}

func (s *Session) executeCommit() (*Result, error) {
	if s.current == nil {
		return nil, fmt.Errorf("engine: no transaction is open")
	}
	if s.failed {
		err := s.current.Rollback()
		s.current, s.failed = nil, false
		return nil, errors.Join(ErrTxnAborted, err)
	}
	err := s.current.Commit()
	s.current, s.failed = nil, false
	if err != nil {
		return nil, err
	}
	return &Result{message: "COMMIT"}, nil
}

func (s *Session) executeRollback() (*Result, error) {
	if s.current == nil {
		return nil, fmt.Errorf("engine: no transaction is open")
	}
	err := s.current.Rollback()
	s.current, s.failed = nil, false
	if err != nil {
		return nil, err
	}
	return &Result{message: "ROLLBACK"}, nil
}

// writeTxn returns the transaction a data-modifying statement should run in
// and whether it must be committed (autocommit) when the statement finishes.
func (s *Session) writeTxn() (*txn.Txn, bool, error) {
	if s.current != nil {
		return s.current, false, nil
	}
	t, err := s.db.txns.Begin()
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// finishWrite commits or rolls back an autocommit transaction depending on
// the statement's outcome. Inside an explicit transaction the error (e.g. a
// write conflict or deadlock abort) goes back to the statement's entry
// point, which poisons the transaction (noteFailure): the rows the statement
// wrote before it failed stay until ROLLBACK, or a refused COMMIT, undoes
// them with the rest.
func (s *Session) finishWrite(t *txn.Txn, autocommit bool, execErr error) error {
	if autocommit {
		if execErr != nil {
			_ = t.Rollback()
			return execErr
		}
		return t.Commit()
	}
	return execErr
}

// --- DDL -------------------------------------------------------------------

// ErrDDLInTransaction refuses a schema statement inside an explicit
// transaction. DDL changes the catalog at once and commits in a transaction
// of its own, so a ROLLBACK of the transaction around it could not take it
// back; it is refused before it changes anything.
var ErrDDLInTransaction = errors.New("engine: DDL is not allowed inside an explicit transaction")

// isDDL reports whether stmt changes the schema.
func isDDL(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.CreateViewStmt, *sql.DropStmt:
		return true
	}
	return false
}

func (s *Session) executeCreateTable(stmt *sql.CreateTableStmt) (*Result, error) {
	cols := make([]types.Column, len(stmt.Columns))
	for i, def := range stmt.Columns {
		kind, err := types.KindFromName(def.TypeName)
		if err != nil {
			return nil, err
		}
		col := types.Column{
			Name:       def.Name,
			Type:       kind,
			PrimaryKey: def.PrimaryKey,
			NotNull:    def.NotNull || def.PrimaryKey,
			Unique:     def.Unique,
		}
		if def.Default != nil {
			v, err := expr.CompileConst(def.Default)
			if err != nil {
				return nil, fmt.Errorf("engine: DEFAULT for %s: %w", def.Name, err)
			}
			cast, err := v.Cast(kind)
			if err != nil {
				return nil, fmt.Errorf("engine: DEFAULT for %s: %w", def.Name, err)
			}
			col.Default = &cast
		}
		cols[i] = col
	}
	if _, err := s.db.cat.CreateTable(stmt.Name, types.NewSchema(cols...)); err != nil {
		return nil, err
	}
	if err := s.logDDL(stmt.String()); err != nil {
		return nil, err
	}
	return &Result{message: fmt.Sprintf("table %s created", strings.ToLower(stmt.Name))}, nil
}

func (s *Session) executeCreateIndex(stmt *sql.CreateIndexStmt) (*Result, error) {
	if _, err := s.db.cat.CreateIndex(stmt.Name, stmt.Table, stmt.Columns, stmt.Unique); err != nil {
		return nil, err
	}
	if err := s.logDDL(stmt.String()); err != nil {
		return nil, err
	}
	return &Result{message: fmt.Sprintf("index %s created", stmt.Name)}, nil
}

func (s *Session) executeCreateView(stmt *sql.CreateViewStmt) (*Result, error) {
	// Validate the definition by planning it before registering.
	queryText := stmt.Query.String()
	if _, err := plan.NewBuilder(s.db.cat).Build(stmt.Query); err != nil {
		return nil, fmt.Errorf("engine: view definition: %w", err)
	}
	if _, err := s.db.cat.CreateView(stmt.Name, queryText, stmt.Columns); err != nil {
		return nil, err
	}
	if err := s.logDDL(stmt.String()); err != nil {
		return nil, err
	}
	return &Result{message: fmt.Sprintf("view %s created", strings.ToLower(stmt.Name))}, nil
}

func (s *Session) executeDrop(stmt *sql.DropStmt) (*Result, error) {
	var err error
	switch stmt.Object {
	case "TABLE":
		err = s.db.cat.DropTable(stmt.Name)
	case "VIEW":
		err = s.db.cat.DropView(stmt.Name)
	case "INDEX":
		err = s.db.cat.DropIndex(stmt.Name)
	default:
		err = fmt.Errorf("engine: cannot drop %s", stmt.Object)
	}
	if err != nil {
		return nil, err
	}
	if err := s.logDDL(stmt.String()); err != nil {
		return nil, err
	}
	return &Result{message: fmt.Sprintf("%s %s dropped", strings.ToLower(stmt.Object), strings.ToLower(stmt.Name))}, nil
}

// logDDL records a schema change in the WAL so that recovery rebuilds the
// catalog. DDL is autocommitted in its own transaction (Stmt.Exec refuses
// it inside an explicit one). In a recovery session the statement being
// executed came FROM the log, so it is not logged again.
func (s *Session) logDDL(text string) error {
	if s.recovering {
		return nil
	}
	t, err := s.db.txns.Begin()
	if err != nil {
		return err
	}
	return s.finishWrite(t, true, t.LogDDL(text))
}

// --- DML ---------------------------------------------------------------------
//
// INSERT, UPDATE and DELETE run through the same planner/executor pipeline as
// SELECT: plan.BuildStatement resolves the target (table or updatable view),
// plans the predicate as an ordinary child scan — so writes get index
// equality and range access paths, parameter operands and NULL-key semantics
// exactly like reads — and exec.BuildWrite compiles the write operator that
// applies the changes. Prepared statements cache the plan and reuse the
// compiled operator across rebinds.

// runWrite executes a compiled write operator with the session's transaction
// discipline: the open explicit transaction if there is one, otherwise one
// autocommit transaction around the statement. A RETURNING clause's rows and
// column names land in the result alongside the affected count.
func (s *Session) runWrite(stmt sql.Statement, op exec.WriteOperator) (*Result, error) {
	res, err := s.runWriteBody(stmt, op.Run)
	if err != nil {
		return nil, err
	}
	if ret := op.Returning(); ret != nil {
		for _, col := range ret.Columns {
			res.Columns = append(res.Columns, col.Name)
		}
	}
	return res, nil
}

// runWriteBody wraps a write body — one statement's operator, or a whole
// batch — in the session's write discipline: the explicit-or-autocommit
// transaction, and commit-or-rollback on the body's outcome. The body
// returns how many rows it affected plus any RETURNING projection of them.
func (s *Session) runWriteBody(stmt sql.Statement, body func(t *txn.Txn) (int, []types.Tuple, error)) (*Result, error) {
	t, autocommit, err := s.writeTxn()
	if err != nil {
		return nil, err
	}
	affected, returned, execErr := body(t)
	if err := s.finishWrite(t, autocommit, execErr); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: affected, Rows: returned, verb: writeVerb(stmt)}, nil
}

// writeVerb names a DML statement's effect for result messages.
func writeVerb(stmt sql.Statement) string {
	switch stmt.(type) {
	case *sql.InsertStmt:
		return "inserted"
	case *sql.UpdateStmt:
		return "updated"
	default:
		return "deleted"
	}
}

// explainResult renders a plan tree as a one-column result set.
func explainResult(node plan.Node) *Result {
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(plan.Explain(node), "\n"), "\n") {
		res.Rows = append(res.Rows, types.Tuple{types.NewString(line)})
	}
	return res
}
