// Package client is the Go client for the wowserver wire protocol. It
// mirrors the engine's prepared-statement API — Prepare, Stmt.BindNamed,
// Stmt.Query returning a streaming Rows cursor — so code written against a
// local engine.Session ports to a remote server by swapping the constructor.
//
//	pool := client.NewPool("127.0.0.1:4045", client.PoolConfig{})
//	defer pool.Close()
//	h, _ := pool.GetContext(ctx)
//	st, _ := h.Prepare("SELECT name FROM customers WHERE id = ?")
//	rows, _ := st.Query(types.NewInt(7))
//	for rows.Next() { ... rows.Row() ... }
//	rows.Close()
//	h.Release()
//
// Pool is the remote handle. It multiplexes any number of workers over a
// bounded set of health-checked connections, keeps the statements each
// connection has prepared, and, when given replica addresses, routes GetRead
// to a replica within a staleness bound. A Conn (Dial) is one bare
// connection: like an engine.Session it must not be used from more than one
// goroutine at a time.
//
// Dial negotiates the protocol version before returning: it sends a Hello
// frame and refuses to hand back a connection unless the server answered
// HelloOK with a compatible major. A mismatch surfaces as *wire.VersionError;
// a pre-v2 server (one that does not know the handshake at all) surfaces as
// *HandshakeError with a message naming the problem instead of a codec error.
//
// Running a statement is one round trip: BindNamed and the arguments of Query
// or Exec only accumulate values locally, and the execution ships them in a
// single Run frame whose answer already carries the first batch of rows. Longer
// results pull further batches with Fetch. The batch size is the statement's
// (Stmt.SetFetchSize): a paging consumer like the forms window pager pins it
// to its page size so one page arrives with the Run. The protocol itself is
// specified in docs/WIRE.md.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"

	"repro/internal/server/wire"
	"repro/internal/types"
)

// DefaultFetchSize is how many rows a cursor pulls per round trip.
const DefaultFetchSize = 256

// Error is a failure the server reported (as opposed to a transport error).
type Error struct {
	Msg string
}

func (e *Error) Error() string { return e.Msg }

// HandshakeError is a failed protocol negotiation that is not a clean
// version refusal: the server answered the Hello with something other than a
// HelloOK or a versioned error — most likely a pre-v2 wowserver that treats
// the Hello as an unknown message.
type HandshakeError struct {
	Addr   string
	Detail string
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("client: server at %s does not speak protocol v%s — %s (upgrade the server, or connect with a matching client)",
		e.Addr, wire.Current, e.Detail)
}

// Result is the materialised outcome of one remote statement, mirroring
// engine.Result: rows for EXPLAIN and drained SELECTs, an affected-row count
// for DML, a message for DDL and transaction control.
type Result struct {
	Columns      []string
	Rows         []types.Tuple
	RowsAffected int64
	Message      string
}

// Conn is one connection to a wowserver.
type Conn struct {
	nc     net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	closed bool
	// broken marks a connection that hit a transport error (as opposed to a
	// server-reported statement error): its stream may be desynced, so the
	// pool must not hand it out again.
	broken bool
	// version is what the handshake negotiated; banner is the server's
	// self-identification from HelloOK.
	version wire.Version
	banner  string
	// lsn is the highest durable LSN the server has piggybacked on a
	// response: the freshness signal Pool.GetRead steers by.
	lsn uint64
	// ctx, when set, governs every round trip: cancellation (or deadline
	// expiry) mid-round-trip closes the socket to unblock the read, breaking
	// the connection by design. Nil means no cancellation.
	ctx context.Context
	// inTxn reports that the server session has an explicit transaction
	// open, as the tags of the Results read here say: BEGIN opens one, and
	// COMMIT and ROLLBACK end it, even when they fail.
	inTxn bool
}

// DialOptions tunes Dial.
type DialOptions struct {
	// Version is the protocol version offered in the Hello frame. Zero means
	// wire.Current; setting it differently exists so tests and CI can prove
	// the server's rejection path.
	Version wire.Version
}

// Dial connects to a server at the TCP address and negotiates the current
// protocol version.
func Dial(addr string) (*Conn, error) { return DialWith(addr, DialOptions{}) }

// DialWith connects with explicit options.
func DialWith(addr string, opts DialOptions) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	offered := opts.Version
	if offered.IsZero() {
		offered = wire.Current
	}
	if err := c.handshake(addr, offered); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// handshake sends the Hello and decodes the server's verdict.
func (c *Conn) handshake(addr string, offered wire.Version) error {
	var b wire.Buffer
	wire.Hello{Magic: wire.HelloMagic, Version: offered}.Encode(&b)
	if err := wire.WriteFrame(c.w, wire.MsgHello, b.B); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	respType, resp, err := wire.ReadFrame(c.r)
	if err != nil {
		return &HandshakeError{Addr: addr, Detail: fmt.Sprintf("connection dropped during handshake (%v)", err)}
	}
	cur := wire.NewCursor(resp)
	switch respType {
	case wire.MsgHelloOK:
		ok := wire.DecodeHelloOK(cur)
		if err := cur.Err(); err != nil {
			return err
		}
		c.version = ok.Version
		c.banner = ok.Banner
		return nil
	case wire.MsgErr:
		msg := cur.String()
		if err := cur.Err(); err != nil {
			return err
		}
		if ve := wire.DecodeVersionTail(cur); ve != nil {
			// The server refused the offered version and said which it
			// speaks: surface the typed mismatch. (Client is filled from what
			// was actually offered — a pre-v2 server echoes a zero.)
			if ve.Client.IsZero() {
				ve.Client = offered
			}
			return ve
		}
		// A pre-v2 server answers the Hello with a plain "unknown message
		// type" error frame.
		if strings.Contains(msg, "unknown message type") {
			return &HandshakeError{Addr: addr, Detail: "it answered the version handshake with: " + msg}
		}
		return &Error{Msg: msg}
	default:
		return &HandshakeError{Addr: addr, Detail: fmt.Sprintf("it answered the version handshake with frame type 0x%02x", respType)}
	}
}

// setContext sets the context subsequent round trips run under. Cancellation
// or deadline expiry mid-round-trip closes the socket — the only way to
// unblock a read the server may never answer — so a cancelled connection is
// broken by design: it reports the context's error and will be discarded by
// the pool, never reused with a desynced stream. A nil context (the default),
// or one that can never be cancelled, means round trips block until the
// server answers or the transport fails.
//
// Like every other Conn method this is single-goroutine: set it between round
// trips, not concurrently with one.
func (c *Conn) setContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	c.ctx = ctx
}

// ProtocolVersion returns the version the handshake negotiated.
func (c *Conn) ProtocolVersion() wire.Version { return c.version }

// ServerBanner returns the server's self-identification from HelloOK.
func (c *Conn) ServerBanner() string { return c.banner }

// LastLSN returns the highest durable LSN the server has reported on this
// connection's responses. On a primary it is the WAL durable frontier; on a
// replica, the applied frontier. Comparing the two is how Pool.GetRead
// bounds read staleness.
func (c *Conn) LastLSN() uint64 { return c.lsn }

// noteLSNTail records the durable-LSN tail every success response ends with,
// called with the cursor positioned after the response's last field.
func (c *Conn) noteLSNTail(cur *wire.Cursor) {
	if lsn := cur.Uint64(); cur.Err() == nil && lsn > c.lsn {
		c.lsn = lsn
	}
}

// ping round-trips a liveness probe. Pool checkout uses it to validate idle
// connections before handing them out; it doubles as a freshness probe,
// refreshing LastLSN.
func (c *Conn) ping() error {
	cur, err := c.expect(wire.MsgPing, nil, wire.MsgOK)
	if err != nil {
		return err
	}
	c.noteLSNTail(cur)
	return nil
}

// healthy reports whether the connection is open and has not hit a transport
// error.
func (c *Conn) healthy() bool { return !c.closed && !c.broken }

// Close closes the connection. The server rolls back any open transaction
// and releases every lock the connection held.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// roundTrip sends one message and reads the response, converting MsgErr
// frames into *Error values.
func (c *Conn) roundTrip(msgType byte, payload []byte) (byte, *wire.Cursor, error) {
	if c.closed {
		return 0, nil, fmt.Errorf("client: connection is closed")
	}
	if len(payload)+1 > wire.MaxFrame {
		// Too big to frame: refused before a byte hits the socket, so the
		// connection itself stays usable (split the batch and retry).
		return 0, nil, fmt.Errorf("client: message of %d bytes exceeds the %d-byte frame limit", len(payload)+1, wire.MaxFrame)
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return 0, nil, err
		}
		// Cancellation mid-round-trip closes the socket, which unblocks the
		// read below; the transport error is then re-typed as the context's.
		stop := context.AfterFunc(c.ctx, func() { c.nc.Close() })
		defer stop()
	}
	if err := wire.WriteFrame(c.w, msgType, payload); err != nil {
		c.broken = true
		return 0, nil, c.ctxError(err)
	}
	if err := c.w.Flush(); err != nil {
		c.broken = true
		return 0, nil, c.ctxError(err)
	}
	respType, resp, err := wire.ReadFrame(c.r)
	if err != nil {
		c.broken = true
		return 0, nil, c.ctxError(err)
	}
	cur := wire.NewCursor(resp)
	if respType == wire.MsgErr {
		return 0, nil, errFromCursor(cur)
	}
	return respType, cur, nil
}

// errFromCursor decodes a MsgErr payload into an *Error value.
func errFromCursor(cur *wire.Cursor) error {
	msg := cur.String()
	if err := cur.Err(); err != nil {
		return err
	}
	return &Error{Msg: msg}
}

// ctxError substitutes the context's error for a transport error the
// cancellation itself caused (closing the socket surfaces as "use of closed
// network connection" otherwise). The connection stays marked broken.
func (c *Conn) ctxError(err error) error {
	if c.ctx != nil {
		if cerr := c.ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}

// expect runs a round trip and checks the response type.
func (c *Conn) expect(msgType byte, payload []byte, want byte) (*wire.Cursor, error) {
	respType, cur, err := c.roundTrip(msgType, payload)
	if err != nil {
		return nil, err
	}
	if respType != want {
		return nil, fmt.Errorf("client: server answered 0x%02x, want 0x%02x", respType, want)
	}
	return cur, nil
}

// Prepare compiles a statement on the server and returns the remote handle.
// The server parses and plans it once (or not at all, when another session
// already prepared the same text into the shared plan cache).
func (c *Conn) Prepare(text string) (*Stmt, error) {
	var b wire.Buffer
	b.String(text)
	cur, err := c.expect(wire.MsgPrepare, b.B, wire.MsgStmt)
	if err != nil {
		return nil, err
	}
	st := &Stmt{conn: c, fetchSize: DefaultFetchSize, endsTxn: endsTxn(text)}
	st.id = cur.Uint32()
	st.paramNames = cur.Strings()
	st.columns = cur.Strings()
	st.returnsRows = cur.Bool()
	if err := cur.Err(); err != nil {
		return nil, err
	}
	st.args = make(types.Tuple, len(st.paramNames))
	st.bound = make([]bool, len(st.paramNames))
	return st, nil
}

// endsTxn reports whether statement text is a COMMIT or a ROLLBACK.
func endsTxn(text string) bool {
	verb, _, _ := strings.Cut(strings.TrimSpace(text), " ")
	verb = strings.TrimSuffix(verb, ";")
	return strings.EqualFold(verb, "COMMIT") || strings.EqualFold(verb, "ROLLBACK")
}

// Exec prepares, runs and closes a statement in one call — the convenience
// path for one-off statements (DDL, transaction control, ad-hoc DML).
func (c *Conn) Exec(text string, args ...types.Value) (*Result, error) {
	st, err := c.Prepare(text)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Exec(args...)
}

// Query prepares and runs a SELECT, returning a streaming cursor. Closing
// the cursor closes the underlying one-off statement too.
func (c *Conn) Query(text string, args ...types.Value) (*Rows, error) {
	st, err := c.Prepare(text)
	if err != nil {
		return nil, err
	}
	rows, err := st.Query(args...)
	if err != nil {
		st.Close()
		return nil, err
	}
	rows.ownStmt = st
	return rows, nil
}

// Begin, Commit and Rollback send WIRE.md's transaction-control messages,
// the same as running BEGIN, COMMIT or ROLLBACK through Exec.

// Begin opens an explicit transaction on the connection's server session.
//
//wowvet:ignore deadapi -- implements WIRE.md's Begin message, which wireconform requires the client to send
func (c *Conn) Begin() error { return c.txnControl(wire.MsgBegin) }

// Commit commits the open transaction.
//
//wowvet:ignore deadapi -- implements WIRE.md's Commit message, which wireconform requires the client to send
func (c *Conn) Commit() error { return c.txnControl(wire.MsgCommit) }

// Rollback rolls the open transaction back.
//
//wowvet:ignore deadapi -- implements WIRE.md's Rollback message, which wireconform requires the client to send
func (c *Conn) Rollback() error { return c.txnControl(wire.MsgRollback) }

func (c *Conn) txnControl(msgType byte) error {
	cur, err := c.expect(msgType, nil, wire.MsgResult)
	if err != nil {
		if msgType != wire.MsgBegin {
			c.inTxn = false // the engine ends the transaction either way
		}
		return err
	}
	_, err = c.readResult(cur)
	return err
}

// readResult decodes a MsgResult payload and notes the LSN that ends it.
func (c *Conn) readResult(cur *wire.Cursor) (*Result, error) {
	res := &Result{}
	res.RowsAffected = int64(cur.Uint64())
	res.Message = cur.String()
	switch res.Message {
	case "BEGIN":
		c.inTxn = true
	case "COMMIT", "ROLLBACK":
		c.inTxn = false
	}
	res.Columns = cur.Strings()
	n := cur.Uint32()
	for i := uint32(0); i < n; i++ {
		res.Rows = append(res.Rows, cur.Tuple())
	}
	c.noteLSNTail(cur)
	if err := cur.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Stmt is a statement prepared on the server.
type Stmt struct {
	conn       *Conn
	id         uint32
	paramNames []string
	columns    []string
	// returnsRows records the server's flag: Run on this statement yields rows
	// (a SELECT, or DML with a RETURNING clause).
	returnsRows bool
	// args holds the parameter values by ordinal and bound marks which ones
	// bind or BindNamed has set. Binding is local: every Run ships the whole
	// tuple, and like the engine statement it mirrors, values stay bound
	// across executions.
	args  types.Tuple
	bound []bool
	// fetchSize is the batch size of cursors opened from this statement.
	fetchSize uint32
	// pooled marks a statement a PooledConn prepared: it lives in the
	// connection's cache, so Close leaves it open for the next checkout.
	pooled bool
	closed bool
	// endsTxn marks a COMMIT or ROLLBACK, which ends the session's
	// transaction even when it fails.
	endsTxn bool
}

// SetFetchSize sets how many rows each batch carries on cursors opened from
// this statement — the one that arrives with the Run and every Fetch after it.
// A paging caller (the TUI's window pager) sets it to its page size, so one
// visible page costs one round trip and the server streams no further. Zero
// or negative restores DefaultFetchSize.
func (st *Stmt) SetFetchSize(n int) {
	if n > 0 {
		st.fetchSize = uint32(n)
	} else {
		st.fetchSize = DefaultFetchSize
	}
}

// Columns returns the output column names (empty for statements that yield no
// rows).
func (st *Stmt) Columns() []string {
	out := make([]string, len(st.columns))
	copy(out, st.columns)
	return out
}

// bind sets every parameter positionally. Nothing is sent: the values travel
// with the next Query or Exec.
func (st *Stmt) bind(args ...types.Value) error {
	if st.closed {
		return fmt.Errorf("client: statement is closed")
	}
	if len(args) != len(st.args) {
		return fmt.Errorf("client: statement takes %d parameter(s), got %d", len(st.args), len(args))
	}
	copy(st.args, args)
	for i := range st.bound {
		st.bound[i] = true
	}
	return nil
}

// BindNamed sets every occurrence of the named parameter ("@name" or "name"),
// mirroring the engine API. It only records the value; every
// parameter must be bound by the time the statement runs.
func (st *Stmt) BindNamed(name string, v types.Value) error {
	if st.closed {
		return fmt.Errorf("client: statement is closed")
	}
	name = strings.ToLower(strings.TrimPrefix(name, "@"))
	found := false
	for i, n := range st.paramNames {
		if n == name {
			st.args[i], st.bound[i] = v, true
			found = true
		}
	}
	if !found {
		return fmt.Errorf("client: statement has no parameter named @%s", name)
	}
	return nil
}

// run is the one execution path: a single Run frame carrying the statement
// id, every parameter and the first batch's size, answered by a Result or by
// a Cursor that already holds that batch. Optional args bind every
// parameter positionally first.
func (st *Stmt) run(args []types.Value) (byte, *wire.Cursor, error) {
	if st.closed {
		return 0, nil, fmt.Errorf("client: statement is closed")
	}
	if len(args) > 0 {
		if err := st.bind(args...); err != nil {
			return 0, nil, err
		}
	}
	for i, ok := range st.bound {
		if !ok {
			if name := st.paramNames[i]; name != "" {
				return 0, nil, fmt.Errorf("client: parameter @%s is not bound", name)
			}
			return 0, nil, fmt.Errorf("client: parameter %d is not bound", i+1)
		}
	}
	var b wire.Buffer
	b.Uint32(st.id)
	b.Tuple(st.args)
	b.Uint32(st.fetchSize)
	respType, cur, err := st.conn.roundTrip(wire.MsgRun, b.B)
	if err != nil {
		if st.endsTxn {
			st.conn.inTxn = false
		}
		return 0, nil, err
	}
	if respType != wire.MsgResult && respType != wire.MsgCursor {
		return 0, nil, fmt.Errorf("client: unexpected response 0x%02x to Run", respType)
	}
	return respType, cur, nil
}

// Exec runs the statement and materialises its outcome. Optional args bind
// every parameter positionally first. Running a SELECT through Exec drains its cursor.
func (st *Stmt) Exec(args ...types.Value) (*Result, error) {
	respType, cur, err := st.run(args)
	if err != nil {
		return nil, err
	}
	if respType == wire.MsgResult {
		return st.conn.readResult(cur)
	}
	// A SELECT or RETURNING write came back as a cursor: drain it.
	rows, err := st.rowsFromCursor(cur)
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
	if st.returnsRows {
		// A RETURNING write projects one row per affected row, so the drained
		// cursor is also the affected count.
		res.RowsAffected = int64(len(res.Rows))
	}
	return res, nil
}

// ExecBatch array-binds a prepared DML statement across every parameter row
// in one round trip: the server runs the whole batch through the engine's
// Stmt.ExecBatch — one cached plan, one compiled write operator and (outside
// an explicit transaction) one transaction. A bulk load therefore pays one
// network round trip and one commit per batch instead of one per row. The
// batch must fit one frame (wire.MaxFrame); split larger loads into chunks.
func (st *Stmt) ExecBatch(rows [][]types.Value) (*Result, error) {
	if st.closed {
		return nil, fmt.Errorf("client: statement is closed")
	}
	var b wire.Buffer
	b.Uint32(st.id)
	b.Uint32(uint32(len(rows)))
	for _, row := range rows {
		b.Tuple(types.Tuple(row))
	}
	cur, err := st.conn.expect(wire.MsgExecBatch, b.B, wire.MsgResult)
	if err != nil {
		return nil, err
	}
	return st.conn.readResult(cur)
}

// Query runs the statement and returns a streaming cursor over its result,
// already holding the first batch. Optional args bind every parameter
// positionally first.
func (st *Stmt) Query(args ...types.Value) (*Rows, error) {
	respType, cur, err := st.run(args)
	if err != nil {
		return nil, err
	}
	if respType != wire.MsgCursor {
		return nil, fmt.Errorf("client: statement is not a query; use Exec")
	}
	return st.rowsFromCursor(cur)
}

// rowsFromCursor decodes a Cursor frame: the cursor's identity, then its
// first batch.
func (st *Stmt) rowsFromCursor(cur *wire.Cursor) (*Rows, error) {
	rows := &Rows{conn: st.conn, fetchSize: st.fetchSize}
	rows.id = cur.Uint32()
	rows.columns = cur.Strings()
	if err := rows.readBatch(cur); err != nil {
		return nil, err
	}
	return rows, nil
}

// Close releases the server-side statement. On a statement a PooledConn
// prepared it does nothing: the pool owns it and closes it when it evicts the
// statement or discards the connection.
func (st *Stmt) Close() error {
	if st.pooled {
		return nil
	}
	return st.close()
}

// close releases the server-side statement whoever owns it.
func (st *Stmt) close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	var b wire.Buffer
	b.Uint32(st.id)
	_, err := st.conn.expect(wire.MsgCloseStmt, b.B, wire.MsgOK)
	return err
}

// Rows is a streaming cursor over a remote query's result. Rows arrive in
// batches of the statement's fetch size (Stmt.SetFetchSize) — the first with
// the cursor itself; Next serves from the batch and asks the server for the
// next one when it runs dry.
type Rows struct {
	conn    *Conn
	id      uint32
	columns []string
	// fetchSize is the statement's batch size when the cursor opened.
	fetchSize uint32
	buf       []types.Tuple
	pos       int
	// done records that the server reported the result exhausted — and closed
	// its cursor — with the last batch.
	done   bool
	closed bool
	err    error
	// ownStmt is the one-off statement Conn.Query created, closed with the
	// cursor.
	ownStmt *Stmt
}

// Columns returns the result's column names.
func (r *Rows) Columns() []string {
	out := make([]string, len(r.columns))
	copy(out, r.columns)
	return out
}

// Next advances to the next row, fetching the next batch from the server
// when the buffered one is exhausted. It returns false at the end of the
// result or on error — check Err afterwards to tell the two apart.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		if r.done {
			r.finish()
			return false
		}
		if !r.fetch() {
			return false
		}
		if r.pos >= len(r.buf) {
			r.finish()
			return false
		}
	}
	r.pos++
	return true
}

// fetch pulls the next batch; it reports whether any progress can be made.
func (r *Rows) fetch() bool {
	var b wire.Buffer
	b.Uint32(r.id)
	b.Uint32(r.fetchSize)
	cur, err := r.conn.expect(wire.MsgFetch, b.B, wire.MsgRows)
	if err != nil {
		r.err = err
		r.finish()
		return false
	}
	if err := r.readBatch(cur); err != nil {
		r.err = err
		r.finish()
		return false
	}
	return true
}

// readBatch replaces the buffered rows with the batch a Rows frame — or the
// tail of a Cursor frame — carries, then notes the LSN that follows it.
func (r *Rows) readBatch(cur *wire.Cursor) error {
	r.done = cur.Bool()
	n := cur.Uint32()
	r.buf = r.buf[:0]
	r.pos = 0
	for i := uint32(0); i < n && cur.Err() == nil; i++ {
		r.buf = append(r.buf, cur.Tuple())
	}
	r.conn.noteLSNTail(cur)
	return cur.Err()
}

// Row returns the current row (valid until the next call to Next), or nil
// when Next has not yielded one — matching the engine cursor it mirrors.
func (r *Rows) Row() types.Tuple {
	if r.pos == 0 || r.pos > len(r.buf) {
		return nil
	}
	return r.buf[r.pos-1]
}

// Err returns the error that stopped iteration, if any.
func (r *Rows) Err() error { return r.err }

// finish marks the cursor consumed; the server already closed its side when
// it reported done (or an error), so no CloseCursor round trip is needed.
func (r *Rows) finish() {
	r.closed = true
	r.buf, r.pos = nil, 0 // Row() returns nil once iteration has ended
	if r.ownStmt != nil {
		_ = r.ownStmt.Close()
		r.ownStmt = nil
	}
}

// Close releases the cursor. Closing while the server still holds it open
// tells the server to drop it (releasing its snapshot); once a batch came back
// done the server has already closed its side, so Close stays local however
// many of the buffered rows were consumed.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	var err error
	if !r.done {
		var b wire.Buffer
		b.Uint32(r.id)
		_, err = r.conn.expect(wire.MsgCloseCursor, b.B, wire.MsgOK)
	}
	if r.ownStmt != nil {
		closeErr := r.ownStmt.Close()
		if err == nil {
			err = closeErr
		}
		r.ownStmt = nil
	}
	return err
}
