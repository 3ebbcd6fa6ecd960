package core

import (
	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/types"
)

// Source is where a window's rows come from: a prepared-statement factory a
// window runs its queries and writes through. Two implementations exist — an
// engine.Session for windows over a local database, and a client.Conn for
// windows browsing a remote wowserver — so the forms runtime, the loaders and
// the wow and wowsql shells are each one code path whether the world is
// in-process or across the wire.
type Source interface {
	// Prepare compiles one SQL statement for repeated execution.
	Prepare(text string) (Statement, error)
	// NewSource returns a source for a detail child window: an independent
	// statement/cursor namespace over the same world. A returned source that
	// is an io.Closer was opened for the child, which closes it.
	NewSource() Source
}

// Statement is one prepared statement of a Source, the subset of the engine
// and remote statement APIs its callers need. Like the statements it
// wraps, it must not be used from more than one goroutine at a time.
type Statement interface {
	// BindNamed sets every occurrence of the named parameter.
	BindNamed(name string, value types.Value) error
	// Query runs a SELECT and returns its streaming cursor. The engine and
	// remote sources return *engine.Rows and *client.Rows, which also name
	// their columns.
	Query() (RowStream, error)
	// Exec runs any other statement and materialises its outcome.
	Exec() (ExecSummary, error)
	// Close releases the statement.
	Close() error
}

// RowStream is a streaming cursor over a statement's result, satisfied by
// both *engine.Rows and *client.Rows. Closing it early releases whatever the
// cursor holds (read leases locally, the server-side cursor remotely).
type RowStream interface {
	Next() bool
	Row() types.Tuple
	Err() error
	Close() error
}

// ExecSummary is the outcome of a statement run through Statement.Exec: how
// many rows a write wrote, the message that describes a statement that returns
// no rows ("2 row(s) inserted", "BEGIN", "table t created"), and the rows a
// RETURNING clause projected or an EXPLAIN rendered (one "plan" column, a row
// per line) under their column names.
type ExecSummary struct {
	RowsAffected int
	Message      string
	Columns      []string
	Rows         []types.Tuple
}

// NamedArgs is one execution's named parameter set, each value applied with
// Statement.BindNamed.
type NamedArgs map[string]types.Value

// fetchSizer is implemented by statements that can be told the next Query
// returns at most n rows (the remote statement, which then asks the server for
// exactly that and no more). The window pager sets it to its page size before
// every query, so a page or a count costs one round trip.
type fetchSizer interface {
	SetFetchSize(n int)
}

// --- local engine source -----------------------------------------------------

// engineSource adapts an engine.Session to the Source interface.
type engineSource struct {
	session *engine.Session
}

// NewEngineSource wraps a local engine session as a window Source.
func NewEngineSource(session *engine.Session) Source {
	return engineSource{session: session}
}

func (e engineSource) Prepare(text string) (Statement, error) {
	st, err := e.session.Prepare(text)
	if err != nil {
		return nil, err
	}
	return engineStatement{st: st}, nil
}

// NewSource opens a session for a detail window, which closes it.
func (e engineSource) NewSource() Source {
	return engineSource{session: e.session.Database().Session()}
}

// Close closes the session.
func (e engineSource) Close() error { return e.session.Close() }

type engineStatement struct {
	st *engine.Stmt
}

func (s engineStatement) BindNamed(name string, value types.Value) error {
	return s.st.BindNamed(name, value)
}

func (s engineStatement) Query() (RowStream, error) {
	rows, err := s.st.Query()
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (s engineStatement) Exec() (ExecSummary, error) {
	res, err := s.st.Exec()
	if err != nil {
		return ExecSummary{}, err
	}
	return ExecSummary{RowsAffected: res.RowsAffected, Message: res.Message(), Columns: res.Columns, Rows: res.Rows}, nil
}

func (s engineStatement) Close() error { return s.st.Close() }

// --- remote source -----------------------------------------------------------

// remotePreparer is what a remote source prepares on: a bare *client.Conn,
// or a checked-out *client.PooledConn whose statements the pool owns.
type remotePreparer interface {
	Prepare(text string) (*client.Stmt, error)
}

// remoteSource adapts a wowserver connection to the Source interface: the
// window's queries prepare on the server, a page arrives in the one exchange
// that runs its query, and writes run remotely. One connection serves any
// number of windows (the server keeps statements and cursors apart by id),
// and windows are driven by one goroutine, so detail children share their
// master's connection.
type remoteSource struct {
	conn remotePreparer
}

// NewRemoteSource wraps a wowserver connection as a window Source, so a form
// window browses a remote database exactly as it browses a local one.
func NewRemoteSource(conn *client.Conn) Source {
	return remoteSource{conn: conn}
}

// NewPooledSource wraps a checked-out pooled connection as a Source, valid
// until the handle is released. Prepare goes through the connection's
// statement cache, so a shape it has already seen costs no round trip.
func NewPooledSource(h *client.PooledConn) Source {
	return remoteSource{conn: h}
}

func (r remoteSource) Prepare(text string) (Statement, error) {
	st, err := r.conn.Prepare(text)
	if err != nil {
		return nil, err
	}
	return &remoteStatement{st: st}, nil
}

func (r remoteSource) NewSource() Source { return r }

// remoteStatement narrows a *client.Stmt to the Statement interface.
type remoteStatement struct {
	st *client.Stmt
	// limit is the most rows the next Query returns (0: all of them). It
	// lives here, not in the client statement, whose fetch size a pooled
	// connection shares with its next borrower.
	limit int
}

func (s *remoteStatement) BindNamed(name string, value types.Value) error {
	return s.st.BindNamed(name, value)
}

func (s *remoteStatement) Query() (RowStream, error) {
	var rows *client.Rows
	var err error
	if s.limit > 0 {
		rows, err = s.st.QueryFirst(s.limit)
	} else {
		rows, err = s.st.Query()
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (s *remoteStatement) Exec() (ExecSummary, error) {
	res, err := s.st.Exec()
	if err != nil {
		return ExecSummary{}, err
	}
	return ExecSummary{RowsAffected: int(res.RowsAffected), Message: res.Message, Columns: res.Columns, Rows: res.Rows}, nil
}

// SetFetchSize makes the next Query return at most n rows, one Run that ends
// its cursor with them (client.Stmt.QueryFirst); n of 0 or less returns every
// row.
func (s *remoteStatement) SetFetchSize(n int) { s.limit = max(n, 0) }

func (s *remoteStatement) Close() error { return s.st.Close() }
