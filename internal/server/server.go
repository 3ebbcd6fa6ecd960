// Package server is the wire-protocol front end over one shared engine: a
// TCP session manager that gives every connection its own engine.Session —
// run by one goroutine per connection — while all connections share the
// engine's plan cache, lock manager and storage. The protocol (package wire)
// maps onto the prepared-statement lifecycle: Prepare once, then every
// execution is one Run round trip that binds, executes and carries the first
// batch of rows back; longer results stream in further Fetch batches instead
// of materialising. A bulk load is a multi-row INSERT .. VALUES: one Run, one
// autocommit transaction per batch of rows.
//
// Every connection opens with a protocol handshake: the first frame must be
// a Hello carrying the wire magic and the client's version. A compatible
// major gets HelloOK (with the negotiated version and the server banner); an
// unknown major — or no Hello at all, which is how a pre-v2 client looks —
// is refused with a versioned error frame and the connection closes.
//
// Disconnects — clean, abrupt, or a panicking connection goroutine — always
// run the same cleanup path: open cursors close (releasing their read
// leases), prepared statements close, and any open explicit transaction
// rolls back, so an abandoned connection can never keep holding locks
// against the other sessions.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/server/wire"
)

// Server accepts connections and serves the wire protocol over a database.
type Server struct {
	db *engine.Database

	// lsn reports the durable LSN the server appends to success responses:
	// on a primary the WAL's durable frontier, on a replica the applier's
	// applied LSN. Set before Serve (SetLSNSource), read by every connection.
	lsn func() uint64
	// readOnly marks a replica server: writes, DDL and explicit transactions
	// are refused so the only mutations come from the replication applier.
	readOnly atomic.Bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	accepted   atomic.Uint64
	active     atomic.Int64
	statements atomic.Uint64
	rowsSent   atomic.Uint64
	panics     atomic.Uint64
	handshakes atomic.Uint64
	rejected   atomic.Uint64
	keptOpen   atomic.Uint64

	subscribers    atomic.Int64
	walSegments    atomic.Uint64
	walBytes       atomic.Uint64
	replicaAckLSN  atomic.Uint64
	readOnlyDenied atomic.Uint64
}

// Stats summarises the server's counters.
type Stats struct {
	ConnectionsAccepted uint64
	ConnectionsActive   int64
	MessagesServed      uint64
	RowsSent            uint64
	// CursorsKeptOpen counts cursors that outlived the first batch their Run
	// carried — how often an operation needed a second round trip (a Fetch or
	// a CloseCursor). A one-batch Run whose first batch filled is not one of
	// them: the server ended its cursor with that batch.
	CursorsKeptOpen uint64
	Panics          uint64
	// HandshakesAccepted and HandshakesRejected count protocol negotiation
	// outcomes; a rejected handshake is a version mismatch or a pre-v2
	// client that never sent a Hello.
	HandshakesAccepted uint64
	HandshakesRejected uint64
	// ReadOnly reports replica mode; ReadOnlyDenied counts the writes, DDL
	// and transaction-control statements it refused.
	ReadOnly       bool
	ReadOnlyDenied uint64
	// DurableLSN is the value the server currently piggybacks on success
	// responses: the WAL durable frontier (primary) or applied LSN (replica).
	DurableLSN uint64
	// WALSubscribers counts live replication streams; WALSegmentsSent and
	// WALBytesSent their pushed traffic; ReplicaAckLSN the highest applied
	// LSN any subscriber has acknowledged.
	WALSubscribers  int64
	WALSegmentsSent uint64
	WALBytesSent    uint64
	ReplicaAckLSN   uint64
}

// New creates a server over the database. The database stays owned by the
// caller (Close does not close it): embedding processes can keep serving
// local sessions next to remote ones.
func New(db *engine.Database) *Server {
	s := &Server{db: db, conns: make(map[net.Conn]struct{})}
	// Default LSN source: the engine's WAL durable frontier (0 when logging
	// is disabled). Replica servers override it with the applier's frontier.
	s.lsn = func() uint64 { return uint64(db.Transactions().WAL().DurableLSN()) }
	return s
}

// SetLSNSource overrides where the server reads the durable LSN it appends
// to success responses. Must be called before Serve.
func (s *Server) SetLSNSource(fn func() uint64) { s.lsn = fn }

// SetReadOnly switches the server into replica mode: every statement but a
// query — writes, DDL, BEGIN — is refused with a statement-level error, so
// the replication applier stays the only writer and reads see nothing but
// clean snapshots of applied commits.
func (s *Server) SetReadOnly(on bool) { s.readOnly.Store(on) }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnectionsAccepted: s.accepted.Load(),
		ConnectionsActive:   s.active.Load(),
		MessagesServed:      s.statements.Load(),
		RowsSent:            s.rowsSent.Load(),
		CursorsKeptOpen:     s.keptOpen.Load(),
		Panics:              s.panics.Load(),
		HandshakesAccepted:  s.handshakes.Load(),
		HandshakesRejected:  s.rejected.Load(),
		ReadOnly:            s.readOnly.Load(),
		ReadOnlyDenied:      s.readOnlyDenied.Load(),
		DurableLSN:          s.lsn(),
		WALSubscribers:      s.subscribers.Load(),
		WALSegmentsSent:     s.walSegments.Load(),
		WALBytesSent:        s.walBytes.Load(),
		ReplicaAckLSN:       s.replicaAckLSN.Load(),
	}
}

// Serve accepts connections on the listener until it is closed, running one
// goroutine per connection. It returns nil after Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		go s.serveConn(nc)
	}
}

// Addr returns the listener's address (nil before Serve), so tests and
// embedding processes can serve on port 0 and dial what they got.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, disconnects every connection and waits for their
// goroutines to finish cleanup. The database itself stays open.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// conn is one connection's state: its session, its prepared statements and
// its open cursors, keyed by the client-visible ids.
type conn struct {
	srv     *Server
	nc      net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	session *engine.Session
	stmts   map[uint32]*engine.Stmt
	cursors map[uint32]*engine.Rows
	nextID  uint32
}

// serveConn runs one connection's message loop and always — clean EOF, read
// error, protocol error or panic — tears the connection's engine state down
// before returning.
func (s *Server) serveConn(nc net.Conn) {
	c := &conn{
		srv:     s,
		nc:      nc,
		r:       bufio.NewReader(nc),
		w:       bufio.NewWriter(nc),
		session: s.db.Session(),
		stmts:   make(map[uint32]*engine.Stmt),
		cursors: make(map[uint32]*engine.Rows),
	}
	// Registered first so it always runs, even if the cleanup itself panics:
	// a lost wg.Done would hang Server.Close forever.
	defer func() {
		s.active.Add(-1)
		s.wg.Done()
	}()
	defer func() {
		if r := recover(); r != nil {
			// A panicking handler must not take the whole server down, and
			// must still release the connection's locks.
			s.panics.Add(1)
		}
		// Cleanup runs over whatever state the handler left behind; if that
		// state is broken enough that cleanup panics too, contain it — the
		// transaction manager's lock release is the part that must not be
		// skipped for other connections to make progress, and a second panic
		// here would otherwise crash the whole process.
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
			}
		}()
		c.cleanup()
	}()
	if !c.handshake() {
		return
	}
	for {
		msgType, payload, err := wire.ReadFrame(c.r)
		if err != nil {
			return // EOF or a broken connection: cleanup runs in the defer
		}
		s.statements.Add(1)
		switch msgType {
		case wire.MsgSubscribe:
			// A successful Subscribe ends request/response for good: the
			// connection becomes a push stream and, when the stream ends,
			// closes. A refused Subscribe keeps the connection usable.
			if c.handleSubscribe(payload) {
				return
			}
			continue
		}
		respType, resp := c.dispatch(msgType, payload)
		// The server's durable LSN rides on every success response, so a client
		// tracks each node's frontier for free: a writer reads the primary's,
		// then waits until a replica's reaches it before reading there.
		switch respType {
		case wire.MsgResult, wire.MsgCursor, wire.MsgRows, wire.MsgOK:
			resp = binary.BigEndian.AppendUint64(resp, s.lsn())
		}
		if err := wire.WriteFrame(c.w, respType, resp); err != nil {
			return
		}
		if err := c.w.Flush(); err != nil {
			return
		}
	}
}

// Banner identifies the server in HelloOK frames and the wowserver startup
// line.
var Banner = "wowserver/" + wire.Current.String()

// handshake negotiates the protocol version: the first frame must be a Hello
// with the wire magic and a compatible major. It reports whether the
// connection may proceed to the message loop; on refusal the versioned error
// frame has already been written and the caller just returns (cleanup runs in
// its defer).
func (c *conn) handshake() bool {
	msgType, payload, err := wire.ReadFrame(c.r)
	if err != nil {
		return false
	}
	refuse := func(client wire.Version) bool {
		c.srv.rejected.Add(1)
		ve := &wire.VersionError{Client: client, Server: wire.Current}
		if err := wire.WriteFrame(c.w, wire.MsgErr, wire.EncodeVersionError(ve)); err == nil {
			c.w.Flush()
		}
		return false
	}
	if msgType != wire.MsgHello {
		// A pre-v2 client starts straight in with Prepare; anything else
		// that is not a Hello gets the same refusal.
		return refuse(wire.Version{})
	}
	cur := wire.NewCursor(payload)
	hello := wire.DecodeHello(cur)
	if cur.Err() != nil || hello.Magic != wire.HelloMagic {
		return refuse(wire.Version{})
	}
	if !wire.Current.Compatible(hello.Version) {
		return refuse(hello.Version)
	}
	// Negotiated version: the server's major (equal by now), the smaller
	// minor — the set of payload fields both ends understand.
	negotiated := wire.Current
	negotiated.Minor = min(negotiated.Minor, hello.Version.Minor)
	role := wire.RolePrimary
	if c.srv.readOnly.Load() {
		role = wire.RoleReplica
	}
	// Count before the reply, as refuse does: a client that has read
	// HelloOK must find the handshake in Stats.
	c.srv.handshakes.Add(1)
	var b wire.Buffer
	wire.HelloOK{Version: negotiated, Banner: Banner, Role: role}.Encode(&b)
	if err := wire.WriteFrame(c.w, wire.MsgHelloOK, b.B); err != nil {
		return false
	}
	return c.w.Flush() == nil
}

// cleanup releases everything the connection holds against the shared
// engine: cursors (and their read leases), statements, and any open explicit
// transaction, which rolls back.
func (c *conn) cleanup() {
	for id, rows := range c.cursors {
		rows.Close()
		delete(c.cursors, id)
	}
	for id, st := range c.stmts {
		st.Close()
		delete(c.stmts, id)
	}
	_ = c.session.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c.nc)
	c.srv.mu.Unlock()
	c.nc.Close()
}

// errFrame renders an error as a MsgErr payload.
func errFrame(err error) (byte, []byte) {
	var b wire.Buffer
	b.String(err.Error())
	return wire.MsgErr, b.B
}

// dispatch handles one message and returns the response frame. Statement
// errors come back as MsgErr frames; the connection itself stays usable
// (framing is self-delimiting, so a bad payload cannot desync the stream).
func (c *conn) dispatch(msgType byte, payload []byte) (byte, []byte) {
	cur := wire.NewCursor(payload)
	switch msgType {
	case wire.MsgPrepare:
		return c.handlePrepare(cur)
	case wire.MsgRun:
		return c.handleRun(cur)
	case wire.MsgFetch:
		return c.handleFetch(cur)
	case wire.MsgCloseStmt:
		id := cur.Uint32()
		if err := cur.Err(); err != nil {
			return errFrame(err)
		}
		if st, ok := c.stmts[id]; ok {
			st.Close()
			delete(c.stmts, id)
		}
		return wire.MsgOK, nil
	case wire.MsgCloseCursor:
		id := cur.Uint32()
		if err := cur.Err(); err != nil {
			return errFrame(err)
		}
		if rows, ok := c.cursors[id]; ok {
			rows.Close()
			delete(c.cursors, id)
		}
		return wire.MsgOK, nil
	case wire.MsgPing:
		return wire.MsgOK, nil
	case wire.MsgHello:
		// The handshake already ran; a second Hello is a protocol error, but
		// not one worth dropping the connection for.
		return errFrame(fmt.Errorf("server: duplicate Hello (handshake already negotiated v%s)", wire.Current))
	default:
		return errFrame(fmt.Errorf("server: unknown message type 0x%02x", msgType))
	}
}

func (c *conn) handlePrepare(cur *wire.Cursor) (byte, []byte) {
	text := cur.String()
	if err := cur.Err(); err != nil {
		return errFrame(err)
	}
	st, err := c.session.Prepare(text)
	if err != nil {
		return errFrame(err)
	}
	c.nextID++
	id := c.nextID
	c.stmts[id] = st
	var b wire.Buffer
	b.Uint32(id)
	b.Strings(st.ParamNames())
	b.Strings(st.Columns())
	b.Bool(st.ReturnsRows()) // Run will answer Cursor (SELECT or a RETURNING write), not Result
	return wire.MsgStmt, b.B
}

// handleRun is the whole statement execution in one round trip: bind every
// parameter, execute, and — for a statement that yields rows — answer with the
// cursor and its first batch together. A result that fits the batch is done
// in this one frame and leaves nothing open, and so is a one-batch Run whose
// batch filled; a failed bind executes nothing.
func (c *conn) handleRun(cur *wire.Cursor) (byte, []byte) {
	id := cur.Uint32()
	args := cur.Tuple()
	maxRows := cur.Uint32()
	oneBatch := cur.Bool()
	if err := cur.Err(); err != nil {
		return errFrame(err)
	}
	st, ok := c.stmts[id]
	if !ok {
		return errFrame(fmt.Errorf("server: no statement %d", id))
	}
	// A replica serves nothing but pure SELECTs: DML, DDL, EXPLAIN and
	// transaction control all belong on the primary.
	if !st.IsQuery() && c.srv.readOnly.Load() {
		c.srv.readOnlyDenied.Add(1)
		return errFrame(fmt.Errorf("server: read-only replica: cannot run %q here; writes and transactions go to the primary", st.Text()))
	}
	if err := st.Bind(args...); err != nil {
		return errFrame(err)
	}
	if !st.ReturnsRows() {
		res, err := st.Exec()
		if err != nil {
			return errFrame(err)
		}
		return resultFrame(res, &c.srv.rowsSent)
	}
	// SELECTs and RETURNING writes alike answer with a cursor; the write has
	// fully run before its first projected row ships.
	rows, err := st.Query()
	if err != nil {
		return errFrame(err)
	}
	var b wire.Buffer
	b.Uint32(0) // cursor id: stays 0 when this batch drains the result or ends its cursor
	b.Strings(rows.Columns())
	done, err := c.appendBatch(&b, rows, maxRows, oneBatch)
	if err != nil {
		return errFrame(err)
	}
	if !done {
		c.nextID++
		c.cursors[c.nextID] = rows
		binary.BigEndian.PutUint32(b.B, c.nextID)
		c.srv.keptOpen.Add(1)
	}
	return wire.MsgCursor, b.B
}

func (c *conn) handleFetch(cur *wire.Cursor) (byte, []byte) {
	id := cur.Uint32()
	maxRows := cur.Uint32()
	if err := cur.Err(); err != nil {
		return errFrame(err)
	}
	rows, ok := c.cursors[id]
	if !ok {
		return errFrame(fmt.Errorf("server: no cursor %d", id))
	}
	var b wire.Buffer
	done, err := c.appendBatch(&b, rows, maxRows, false)
	if done || err != nil {
		delete(c.cursors, id)
	}
	if err != nil {
		return errFrame(err)
	}
	return wire.MsgRows, b.B
}

// appendBatch pulls the cursor's next batch and appends it to b in the Rows
// layout — done, row count, tuples — which a Cursor frame carries after its
// header too. Each tuple is appended by Rows.AppendNext: a SELECT * page is
// its rows' stored heap payloads, copied as they are, since the heap and the
// wire share one row encoding. With endFull it also closes a cursor whose
// batch holds maxRows rows, as a one-batch Run asks. done or an error means
// the cursor is closed and the caller must not keep it registered.
func (c *conn) appendBatch(b *wire.Buffer, rows *engine.Rows, maxRows uint32, endFull bool) (done bool, err error) {
	if maxRows == 0 {
		maxRows = 1
	}
	// Rows are appended as they are pulled, bounded by both the client's row
	// count and a byte budget: a batch of wide rows must never grow past the
	// frame cap, or WriteFrame would fail and take the whole connection down.
	// A short batch just means the client fetches again.
	const batchByteBudget = 4 << 20
	head := len(b.B)
	b.Bool(false) // done and count are patched in once the batch is known
	b.Uint32(0)
	var count uint32
	for count < maxRows && len(b.B)-head < batchByteBudget {
		var more bool
		if b.B, more = rows.AppendNext(b.B); !more {
			// AppendNext returning false closed the cursor.
			if err := rows.Err(); err != nil {
				return true, err
			}
			done = true
			break
		}
		count++
	}
	if len(b.B)+16 > wire.MaxFrame {
		// A single row larger than a frame can never be shipped; fail the
		// statement, not the connection.
		rows.Close()
		return true, fmt.Errorf("server: result row exceeds the %d-byte frame limit", wire.MaxFrame)
	}
	if endFull && !done && count == maxRows {
		// Only a batch that reached max rows ends the cursor early: one the
		// byte budget cut short stays open, so the rows it could not carry
		// are still fetchable.
		rows.Close()
		done = true
	}
	if done {
		b.B[head] = 1
	}
	binary.BigEndian.PutUint32(b.B[head+1:], count)
	c.srv.rowsSent.Add(uint64(count))
	return done, nil
}

// resultFrame renders a materialised result (DML counts, DDL messages,
// EXPLAIN rows) as a MsgResult payload.
func resultFrame(res *engine.Result, rowsSent *atomic.Uint64) (byte, []byte) {
	var b wire.Buffer
	b.Uint64(uint64(res.RowsAffected))
	b.String(res.Message)
	b.Strings(res.Columns)
	b.Uint32(uint32(len(res.Rows)))
	for _, t := range res.Rows {
		b.Tuple(t)
	}
	rowsSent.Add(uint64(len(res.Rows)))
	return wire.MsgResult, b.B
}
