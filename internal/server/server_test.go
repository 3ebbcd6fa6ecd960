package server_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/workload"
)

// startServer opens an in-memory database with a short lock timeout, serves
// it on a loopback port and returns the database, the server and the address
// to dial. Everything shuts down with the test.
func startServer(t *testing.T) (*engine.Database, *server.Server, string) {
	t.Helper()
	db, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		db.Close()
	})
	return db, srv, ln.Addr().String()
}

const testSchema = "CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, credit FLOAT, active BOOL, since DATE)"

func seedCustomers(t *testing.T, c *client.Conn, n int) {
	t.Helper()
	if _, err := c.Exec(testSchema); err != nil {
		t.Fatal(err)
	}
	insert, err := c.Prepare("INSERT INTO customers (id, name, credit, active, since) VALUES (?, ?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer insert.Close()
	for i := 1; i <= n; i++ {
		res, err := insert.Exec(
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Customer %d", i)),
			types.NewFloat(float64(100*i)),
			types.NewBool(i%2 == 0),
			types.NewDate(1983, 1, 1),
		)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("insert affected %d rows", res.RowsAffected)
		}
	}
}

func TestRoundTripAllValueKinds(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 5)

	// NULL through the wire too.
	if _, err := c.Exec("INSERT INTO customers (id, name) VALUES (6, 'No Credit')"); err != nil {
		t.Fatal(err)
	}

	stmt, err := c.Prepare("SELECT id, name, credit, active, since FROM customers WHERE id >= ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.Exec(); err == nil || !strings.Contains(err.Error(), "parameter 1 is not bound") {
		t.Fatalf("running with the one parameter unbound: %v", err)
	}
	if cols := stmt.Columns(); len(cols) != 5 || cols[2] != "credit" {
		t.Fatalf("Columns = %v", cols)
	}

	rows, err := stmt.Query(types.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	var got []types.Tuple
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d rows, want 3", len(got))
	}
	if got[0][0].Int() != 4 || got[0][1].Str() != "Customer 4" || got[0][2].Float() != 400 || !got[0][3].Bool() {
		t.Fatalf("row 0 = %v", got[0])
	}
	if got[0][4].Kind() != types.KindDate || got[0][4].String() != "1983-01-01" {
		t.Fatalf("date came back as %s %q", got[0][4].Kind(), got[0][4].String())
	}
	if !got[2][2].IsNull() {
		t.Fatalf("NULL credit came back as %v", got[2][2])
	}
}

func TestSmallFetchBatchesStreamWholeResult(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 23)
	st, err := c.Prepare("SELECT id FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetFetchSize(4) // force several Fetch round trips
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for rows.Next() {
		count++
		if got := rows.Row()[0].Int(); got != int64(count) {
			t.Fatalf("row %d has id %d", count, got)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 23 {
		t.Fatalf("streamed %d rows, want 23", count)
	}
}

func TestExplainAndTransactionsOverTheWire(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 3)

	res, err := c.Exec("EXPLAIN SELECT * FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN result = %+v", res)
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE customers SET credit = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("SELECT credit FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("rollback did not undo the update: credit = %v", res.Rows[0][0])
	}

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE customers SET credit = 7 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("SELECT credit FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 7 {
		t.Fatalf("commit lost the update: credit = %v", res.Rows[0][0])
	}
}

func TestStatementErrorKeepsConnectionUsable(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SELEKT broken"); err == nil {
		t.Fatal("want a parse error")
	} else if _, ok := err.(*client.Error); !ok {
		t.Fatalf("want a server-reported *client.Error, got %T: %v", err, err)
	}
	seedCustomers(t, c, 1)
	if _, err := c.Exec("SELECT id FROM customers"); err != nil {
		t.Fatalf("connection unusable after statement error: %v", err)
	}
}

// rawHandshake performs the client half of the v2 handshake over a bare TCP
// connection, for tests that craft frames by hand.
func rawHandshake(t *testing.T, nc net.Conn) wire.HelloOK {
	t.Helper()
	var b wire.Buffer
	wire.Hello{Magic: wire.HelloMagic, Version: wire.Current}.Encode(&b)
	if err := wire.WriteFrame(nc, wire.MsgHello, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgHelloOK {
		t.Fatalf("handshake answered 0x%02x, want HelloOK", msgType)
	}
	ok := wire.DecodeHelloOK(wire.NewCursor(payload))
	if !ok.Version.Compatible(wire.Current) {
		t.Fatalf("negotiated %s, want a v%d", ok.Version, wire.Current.Major)
	}
	return ok
}

// handshakeRole dials addr, runs the handshake and returns the role the
// server claims in HelloOK.
func handshakeRole(t *testing.T, addr string) byte {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	return rawHandshake(t, nc).Role
}

func TestGarbageFrameGetsErrorNotDisconnect(t *testing.T) {
	_, _, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rawHandshake(t, nc)
	// An unknown message type must come back as MsgErr on a live connection.
	if err := wire.WriteFrame(nc, 0x7f, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	msgType, _, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgErr {
		t.Fatalf("response type = 0x%02x, want MsgErr", msgType)
	}
	// A truncated Run payload likewise.
	if err := wire.WriteFrame(nc, wire.MsgRun, []byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	msgType, _, err = wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgErr {
		t.Fatalf("truncated payload response = 0x%02x, want MsgErr", msgType)
	}
}

// TestFetchBatchesRespectByteBudget streams a result set whose total size is
// far beyond one frame's worth of rows: the server must split batches by
// bytes (not just by the client's row count) instead of overflowing the
// frame cap and dropping the connection.
func TestFetchBatchesRespectByteBudget(t *testing.T) {
	db, _, addr := startServer(t)
	s := db.Session()
	if _, err := s.Execute("CREATE TABLE blobs (id INT PRIMARY KEY, payload TEXT)"); err != nil {
		t.Fatal(err)
	}
	insert, err := s.Prepare("INSERT INTO blobs (id, payload) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer insert.Close()
	wide := strings.Repeat("x", 4096)
	const rows = 1500 // ~6 MiB total, beyond the 4 MiB batch budget
	batch := make([][]types.Value, rows)
	for i := range batch {
		batch[i] = []types.Value{types.NewInt(int64(i)), types.NewString(wide)}
	}
	if _, err := insert.ExecBatch(batch); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT id, payload FROM blobs")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetFetchSize(1 << 20) // ask for everything at once; the budget must cap it
	got, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for got.Next() {
		if len(got.Row()[1].Str()) != len(wide) {
			t.Fatalf("row %d payload truncated to %d bytes", count, len(got.Row()[1].Str()))
		}
		count++
	}
	if err := got.Err(); err != nil {
		t.Fatal(err)
	}
	if count != rows {
		t.Fatalf("streamed %d rows, want %d", count, rows)
	}
}

// TestClientRowNilOutsideIteration: the remote cursor mirrors the engine's —
// Row outside a successful Next is nil, not a panic.
func TestClientRowNilOutsideIteration(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 1)
	rows, err := c.Query("SELECT id FROM customers WHERE id = 999")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Row(); got != nil {
		t.Fatalf("Row before Next = %v, want nil", got)
	}
	if rows.Next() {
		t.Fatal("unexpected row")
	}
	if got := rows.Row(); got != nil {
		t.Fatalf("Row after exhaustion = %v, want nil", got)
	}
}

// waitForWrite retries a write until the abandoned connection's locks are
// released (the server cleans up asynchronously after a disconnect).
func waitForWrite(t *testing.T, s *engine.Session, stmt string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.Execute(stmt)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write still blocked after disconnect: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbruptDisconnectReleasesCursorSnapshot is the regression test for the
// disconnect cleanup path: a client that vanishes mid-stream must not keep
// its cursor's MVCC snapshot registered, or the version GC horizon would
// never advance past it. (Writers are never blocked either way — that is the
// point of snapshot reads.)
func TestAbruptDisconnectReleasesCursorSnapshot(t *testing.T) {
	db, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	seedCustomers(t, c, 50)

	st, err := c.Prepare("SELECT id FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	st.SetFetchSize(2)
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row")
	}

	// The open cursor never blocks a writer.
	writer := db.Session()
	if _, err := writer.Execute("UPDATE customers SET credit = 0 WHERE id = 1"); err != nil {
		t.Fatalf("writer must not block on a remote cursor: %v", err)
	}
	// But its snapshot pins the superseded version: nothing to reclaim yet.
	if n := sweepAll(t, db, "customers"); n != 0 {
		t.Fatalf("vacuum reclaimed %d versions under a live remote cursor, want 0", n)
	}

	// Kill the TCP connection without closing the cursor. The server-side
	// cleanup must release the cursor's snapshot so the GC horizon advances.
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := sweepAll(t, db, "customers"); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot still pinned after disconnect: vacuum reclaimed nothing")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAbruptDisconnectRollsBackTransaction: a connection that dies holding
// an exclusive lock inside BEGIN must roll back, and a second session must be
// able to write immediately after.
func TestAbruptDisconnectRollsBackTransaction(t *testing.T) {
	db, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	seedCustomers(t, c, 5)

	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("UPDATE customers SET credit = 12345 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	abortedBefore, _ := dbAborted(db)
	c.Close() // vanish with the transaction open and the exclusive lock held

	writer := db.Session()
	waitForWrite(t, writer, "UPDATE customers SET credit = 777 WHERE id = 2")
	res, err := writer.Query("SELECT credit FROM customers WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Float(); got != 777 {
		t.Fatalf("credit = %v; the dead connection's uncommitted 12345 should have rolled back before 777 was written", got)
	}
	if abortedAfter, _ := dbAborted(db); abortedAfter != abortedBefore+1 {
		t.Fatalf("aborted transactions %d -> %d, want one rollback from the disconnect", abortedBefore, abortedAfter)
	}
}

func dbAborted(db *engine.Database) (uint64, uint64) {
	stats := db.Stats()
	return stats.Aborted, stats.Committed
}

// TestSharedPlanCacheAcrossConnections: the second connection preparing the
// same text must hit the skeleton the first one compiled.
func TestSharedPlanCacheAcrossConnections(t *testing.T) {
	db, _, addr := startServer(t)
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	seedCustomers(t, c1, 3)

	const q = "SELECT name FROM customers WHERE id = ?"
	st1, err := c1.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	statsBetween := db.Stats()

	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	statsAfter := db.Stats()
	if statsAfter.PlanCacheHits != statsBetween.PlanCacheHits+1 {
		t.Fatalf("second connection's prepare: hits %d -> %d, want +1 (shared cache)",
			statsBetween.PlanCacheHits, statsAfter.PlanCacheHits)
	}
	if statsAfter.PlanCacheMisses != statsBetween.PlanCacheMisses {
		t.Fatalf("second connection's prepare recompiled the plan")
	}

	// Bind state stays private per connection: bind each, then re-run the
	// first with its values still bound after the second bound its own.
	if _, err := st1.Exec(types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	r2, err := st2.Exec(types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := st1.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].Str() != "Customer 1" || r2.Rows[0][0].Str() != "Customer 2" {
		t.Fatalf("bind frames leaked across connections: %v / %v", r1.Rows[0][0], r2.Rows[0][0])
	}
}

// TestConcurrentConnectionsOverTheWire drives eight concurrent client
// connections through the full prepare/bind/execute/fetch cycle against the
// shared engine.
func TestConcurrentConnectionsOverTheWire(t *testing.T) {
	_, srv, addr := startServer(t)
	setup, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	seedCustomers(t, setup, 20)
	setup.Close()

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			stmt, err := c.Prepare("SELECT name, credit FROM customers WHERE id = ?")
			if err != nil {
				errs <- err
				return
			}
			defer stmt.Close()
			for i := 0; i < iters; i++ {
				id := 1 + (w+i)%20
				rows, err := stmt.Query(types.NewInt(int64(id)))
				if err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				n := 0
				for rows.Next() {
					if got := rows.Row()[0].Str(); got != fmt.Sprintf("Customer %d", id) {
						errs <- fmt.Errorf("worker %d: wrong row %q for id %d", w, got, id)
						return
					}
					n++
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
				if n != 1 {
					errs <- fmt.Errorf("worker %d: %d rows for id %d", w, n, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if stats := srv.Stats(); stats.ConnectionsAccepted < workers {
		t.Fatalf("accepted %d connections, want >= %d", stats.ConnectionsAccepted, workers)
	}
}

// TestHandshakeNegotiatesVersion: a current client gets HelloOK with the
// server's version and banner, and the counters record an accepted handshake.
func TestHandshakeNegotiatesVersion(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.ProtocolVersion(); v.Major != wire.Current.Major {
		t.Fatalf("negotiated v%s, want major %d", v, wire.Current.Major)
	}
	if c.ServerBanner() == "" {
		t.Fatal("HelloOK carried no server banner")
	}
	if stats := srv.Stats(); stats.HandshakesAccepted != 1 || stats.HandshakesRejected != 0 {
		t.Fatalf("handshake counters = %+v", stats)
	}
	// A higher client minor negotiates down to the server's minor.
	c2, err := client.DialWith(addr, client.DialOptions{Version: wire.Version{Major: wire.Current.Major, Minor: 99}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v := c2.ProtocolVersion(); v != wire.Current {
		t.Fatalf("minor negotiation gave v%s, want v%s", v, wire.Current)
	}
}

// TestHandshakeRefusesUnknownMajor: the acceptance path for version skew — a
// client offering a major the server does not speak, a future one or the v2.2
// this tree spoke before Run replaced Bind/Execute, is refused with a typed
// *wire.VersionError naming both versions.
func TestHandshakeRefusesUnknownMajor(t *testing.T) {
	_, srv, addr := startServer(t)
	for i, offered := range []wire.Version{{Major: 9, Minor: 0}, {Major: 2, Minor: 2}} {
		_, err := client.DialWith(addr, client.DialOptions{Version: offered})
		if err == nil {
			t.Fatalf("a v%s client must be refused", offered)
		}
		ve, ok := err.(*wire.VersionError)
		if !ok {
			t.Fatalf("want *wire.VersionError, got %T: %v", err, err)
		}
		if ve.Client != offered || ve.Server != wire.Current {
			t.Fatalf("VersionError = %+v", ve)
		}
		if !strings.Contains(ve.Error(), "v"+offered.String()) || !strings.Contains(ve.Error(), "v"+wire.Current.String()) {
			t.Fatalf("refusal text %q does not name both versions", ve.Error())
		}
		if stats := srv.Stats(); stats.HandshakesRejected != uint64(i+1) {
			t.Fatalf("HandshakesRejected = %d, want %d", stats.HandshakesRejected, i+1)
		}
	}
}

// TestHandshakeRefusesV1Client: a pre-v2 client never sends a Hello — its
// first frame is already a Prepare. The server must answer with a versioned
// error (legible to the old client, which reads MsgErr as plain text) and
// close the connection.
func TestHandshakeRefusesV1Client(t *testing.T) {
	_, srv, addr := startServer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Exactly what the PR 3 client's Prepare sent: no Hello first.
	var b wire.Buffer
	b.String("SELECT 1 FROM t")
	if err := wire.WriteFrame(nc, wire.MsgPrepare, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgErr {
		t.Fatalf("response type = 0x%02x, want MsgErr", msgType)
	}
	cur := wire.NewCursor(payload)
	msg := cur.String()
	if !strings.Contains(msg, "protocol version mismatch") || !strings.Contains(msg, "v"+wire.Current.String()) {
		t.Fatalf("refusal %q does not name the protocol version", msg)
	}
	// The structured tail types the error for v2-aware readers.
	ve := wire.DecodeVersionTail(cur)
	if ve == nil || ve.Server != wire.Current || !ve.Client.IsZero() {
		t.Fatalf("version tail = %+v", ve)
	}
	// The server hangs up after refusing: the next read is EOF.
	if _, _, err := wire.ReadFrame(nc); err == nil {
		t.Fatal("connection still open after a handshake refusal")
	}
	if stats := srv.Stats(); stats.HandshakesRejected != 1 || stats.HandshakesAccepted != 0 {
		t.Fatalf("handshake counters = %+v", stats)
	}
}

// TestExecBatchOverTheWire: one ExecBatch frame loads a whole batch through
// the engine's array-bind path — one round trip, one transaction.
func TestExecBatchOverTheWire(t *testing.T) {
	db, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(testSchema); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("INSERT INTO customers (id, name, credit) VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 120
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{
			types.NewInt(int64(i + 1)),
			types.NewString(fmt.Sprintf("Batch %d", i+1)),
			types.NewFloat(float64(i)),
		}
	}
	committedBefore := db.Stats().Committed
	res, err := st.ExecBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != n {
		t.Fatalf("RowsAffected = %d, want %d", res.RowsAffected, n)
	}
	stats := db.Stats()
	if stats.BatchRowsExecuted < n {
		t.Fatalf("engine BatchRowsExecuted = %d, want >= %d", stats.BatchRowsExecuted, n)
	}
	if got := stats.Committed - committedBefore; got != 1 {
		t.Fatalf("batch committed %d transactions, want 1", got)
	}
	if ss := srv.Stats(); ss.BatchFrames != 1 || ss.BatchRowsReceived != n {
		t.Fatalf("server batch counters = %+v", ss)
	}
	check, err := c.Exec("SELECT id FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Rows) != n {
		t.Fatalf("table holds %d rows after batch, want %d", len(check.Rows), n)
	}
	// A failing row rolls the whole batch back: duplicate of id 1.
	if _, err := st.ExecBatch([][]types.Value{
		{types.NewInt(999), types.NewString("ok"), types.NewFloat(0)},
		{types.NewInt(1), types.NewString("dup"), types.NewFloat(0)},
	}); err == nil {
		t.Fatal("batch with a duplicate key must fail")
	}
	check, err = c.Exec("SELECT id FROM customers WHERE id = 999")
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Rows) != 0 {
		t.Fatal("failed batch left its earlier rows behind")
	}
}

// TestPooledBatchIngestCutsRoundTrips: loading the standard workload over a
// pool in ExecBatch frames (workload.PopulateRemote) loads the same rows as
// one autocommit Exec per row, in far fewer round trips.
func TestPooledBatchIngestCutsRoundTrips(t *testing.T) {
	sizes := workload.SmallSizes
	ingest := func(load func(addr string) error) (trips uint64, rows int64) {
		t.Helper()
		db, srv, addr := startServer(t)
		if err := load(addr); err != nil {
			t.Fatal(err)
		}
		trips = srv.Stats().MessagesServed
		for _, table := range []string{"customers", "orders", "order_items"} {
			res, err := db.Session().Execute("SELECT COUNT(*) FROM " + table)
			if err != nil {
				t.Fatal(err)
			}
			rows += res.Rows[0][0].Int()
		}
		return trips, rows
	}

	// The per-row side inserts the rows the embedded loader puts in a
	// reference database, one autocommit Exec each.
	ref := engine.OpenMemory()
	defer ref.Close()
	if err := workload.Populate(ref, sizes); err != nil {
		t.Fatal(err)
	}
	perRowTrips, perRowRows := ingest(func(addr string) error {
		conn, err := client.Dial(addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		stmts, err := sql.ParseAll(workload.StandardSchema)
		if err != nil {
			return err
		}
		for _, stmt := range stmts {
			if _, err := conn.Exec(stmt.String()); err != nil {
				return err
			}
		}
		for _, table := range []string{"customers", "orders", "order_items"} {
			res, err := ref.Session().Query("SELECT * FROM " + table)
			if err != nil {
				return err
			}
			marks := strings.TrimSuffix(strings.Repeat("?, ", len(res.Columns)), ", ")
			for i, row := range res.Rows {
				if _, err := conn.Exec("INSERT INTO "+table+" VALUES ("+marks+")", row...); err != nil {
					return fmt.Errorf("%s row %d: %w", table, i, err)
				}
			}
		}
		return nil
	})
	pooledTrips, pooledRows := ingest(func(addr string) error {
		pool := client.NewPool(addr, client.PoolConfig{Size: 4})
		defer pool.Close()
		return workload.PopulateRemote(pool, sizes)
	})

	want := int64(sizes.Customers + sizes.Orders + sizes.Orders*sizes.ItemsPerOrder)
	if perRowRows != want || pooledRows != want {
		t.Fatalf("loaded %d (per-row) and %d (pooled) rows, want %d", perRowRows, pooledRows, want)
	}
	if pooledTrips == 0 || perRowTrips <= pooledTrips {
		t.Errorf("round trips did not shrink: per-row %d vs pooled %d", perRowTrips, pooledTrips)
	}
}

// TestExecBatchTruncatedFrame: a batch frame whose payload lies about its row
// count must come back as MsgErr with the connection still usable.
func TestExecBatchTruncatedFrame(t *testing.T) {
	db, _, addr := startServer(t)
	s := db.Session()
	if _, err := s.Execute(testSchema); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rawHandshake(t, nc)

	// A batch against a statement id that was never prepared fails on the
	// lookup, before any row decoding.
	var b wire.Buffer
	b.Uint32(42)
	b.Uint32(1000)
	if err := wire.WriteFrame(nc, wire.MsgExecBatch, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgErr {
		t.Fatalf("unknown-statement batch answered 0x%02x, want MsgErr", msgType)
	}
	if msg := wire.NewCursor(payload).String(); !strings.Contains(msg, "no statement 42") {
		t.Fatalf("error %q, want the statement lookup failure", msg)
	}

	// Prepare a real statement over the raw connection to aim the bad
	// payloads at.
	b = wire.Buffer{}
	b.String("INSERT INTO customers (id, name) VALUES (?, ?)")
	if err := wire.WriteFrame(nc, wire.MsgPrepare, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err = wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgStmt {
		t.Fatalf("Prepare answered 0x%02x", msgType)
	}
	stmtID := wire.NewCursor(payload).Uint32()

	// Claims 1000 rows, carries none.
	b = wire.Buffer{}
	b.Uint32(stmtID)
	b.Uint32(1000) // row count
	if err := wire.WriteFrame(nc, wire.MsgExecBatch, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err = wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgErr {
		t.Fatalf("truncated ExecBatch answered 0x%02x, want MsgErr", msgType)
	}
	if msg := wire.NewCursor(payload).String(); !strings.Contains(msg, "1000") {
		t.Fatalf("error %q does not name the bogus row count", msg)
	}

	// A row that is cut off mid-tuple sticks in the cursor decode.
	b = wire.Buffer{}
	b.Uint32(stmtID)
	b.Uint32(2)
	b.Tuple(types.Tuple{types.NewInt(7)})
	b.Uint32(3) // second row claims 3 values, then the payload ends
	if err := wire.WriteFrame(nc, wire.MsgExecBatch, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err = wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgErr {
		t.Fatalf("mid-tuple truncation answered 0x%02x, want MsgErr", msgType)
	}
	if msg := wire.NewCursor(payload).String(); !strings.Contains(msg, "row 1") {
		t.Fatalf("error %q does not locate the truncated row", msg)
	}

	// The connection survived both: a Ping still answers.
	if err := wire.WriteFrame(nc, wire.MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	msgType, _, err = wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != wire.MsgOK {
		t.Fatalf("Ping after bad batches answered 0x%02x, want MsgOK", msgType)
	}
}

// TestMetricsSnapshot: the metrics document carries the server, engine and
// plan-cache counters the -metrics endpoint serves.
func TestMetricsSnapshot(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 3)

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics endpoint returned %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var m server.Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("metrics is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if m.Server.ConnectionsAccepted < 1 || m.Server.HandshakesAccepted < 1 {
		t.Fatalf("server counters missing from metrics: %+v", m.Server)
	}
	if m.Engine.StatementsPrepared == 0 {
		t.Fatalf("engine counters missing from metrics: %+v", m.Engine)
	}
	if m.Engine.SessionsOpened == 0 {
		t.Fatalf("session counters missing from metrics: %+v", m.Engine)
	}
	if m.Engine.SnapshotsTaken == 0 {
		t.Fatalf("MVCC counters missing from metrics: %+v", m.Engine)
	}
	if !strings.Contains(rec.Body.String(), `"UnsettledVersions"`) {
		t.Fatalf("the unsettled-versions gauge is missing from metrics:\n%s", rec.Body.String())
	}
	if m.PlanCacheLen == 0 {
		t.Fatal("plan cache length missing from metrics")
	}
	if m.Protocol != "v"+wire.Current.String() {
		t.Fatalf("metrics protocol = %q", m.Protocol)
	}
}

// sweepAll reclaims every dead version of the table no snapshot can see,
// walking its whole unsettled list, and returns how many it reclaimed.
func sweepAll(t *testing.T, db *engine.Database, table string) int {
	t.Helper()
	tbl, err := db.Catalog().GetTable(table)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.Transactions().Sweep(tbl, true)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
