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

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/types"
	"repro/internal/workload"
)

// execSQL prepares text on c, runs it once and closes the statement.
func execSQL(c *client.Conn, text string, args ...types.Value) (*client.Result, error) {
	st, err := c.Prepare(text)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Exec(args...)
}

// querySQL prepares text on c and opens its cursor. The statement stays
// prepared until the test ends.
func querySQL(t *testing.T, c *client.Conn, text string, args ...types.Value) (*client.Rows, error) {
	t.Helper()
	st, err := c.Prepare(text)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { st.Close() })
	return st.Query(args...)
}

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
	if _, err := execSQL(c, testSchema); err != nil {
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
	if _, err := execSQL(c, "INSERT INTO customers (id, name) VALUES (6, 'No Credit')"); err != nil {
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

	res, err := execSQL(c, "EXPLAIN SELECT * FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN result = %+v", res)
	}

	if _, err := execSQL(c, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(c, "UPDATE customers SET credit = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(c, "ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, err = execSQL(c, "SELECT credit FROM customers WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("rollback did not undo the update: credit = %v", res.Rows[0][0])
	}

	if _, err := execSQL(c, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(c, "UPDATE customers SET credit = 7 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(c, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	res, err = execSQL(c, "SELECT credit FROM customers WHERE id = 1")
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
	if _, err := execSQL(c, "SELEKT broken"); err == nil {
		t.Fatal("want a parse error")
	} else if _, ok := err.(*client.Error); !ok {
		t.Fatalf("want a server-reported *client.Error, got %T: %v", err, err)
	}
	seedCustomers(t, c, 1)
	if _, err := execSQL(c, "SELECT id FROM customers"); err != nil {
		t.Fatalf("connection unusable after statement error: %v", err)
	}
}

// rawHandshake performs the client half of the v2 handshake over a bare TCP
// connection, for tests that craft frames by hand.
func rawHandshake(t *testing.T, nc net.Conn) wire.HelloOK {
	t.Helper()
	msgType, payload := sendHello(t, nc, wire.Current)
	if msgType != wire.MsgHelloOK {
		t.Fatalf("handshake answered 0x%02x, want HelloOK", msgType)
	}
	ok := wire.DecodeHelloOK(wire.NewCursor(payload))
	if !ok.Version.Compatible(wire.Current) {
		t.Fatalf("negotiated %s, want a v%d", ok.Version, wire.Current.Major)
	}
	return ok
}

// sendHello sends a Hello offering version v and returns the server's answer.
func sendHello(t *testing.T, nc net.Conn, v wire.Version) (byte, []byte) {
	t.Helper()
	var b wire.Buffer
	wire.Hello{Magic: wire.HelloMagic, Version: v}.Encode(&b)
	if err := wire.WriteFrame(nc, wire.MsgHello, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	return msgType, payload
}

// refusedHello dials addr, offers version v and returns the typed refusal
// the server answers with.
func refusedHello(t *testing.T, addr string, v wire.Version) *wire.VersionError {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	msgType, payload := sendHello(t, nc, v)
	if msgType != wire.MsgErr {
		t.Fatalf("a v%s Hello was answered 0x%02x, want MsgErr", v, msgType)
	}
	cur := wire.NewCursor(payload)
	_ = cur.String() // the legible text; the typed tail follows it
	ve := wire.DecodeVersionTail(cur)
	if ve == nil {
		t.Fatalf("the refusal of a v%s Hello carries no version tail", v)
	}
	return ve
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
	rows, err := querySQL(t, c, "SELECT id FROM customers WHERE id = 999")
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

	if _, err := execSQL(c, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(c, "UPDATE customers SET credit = 12345 WHERE id = 2"); err != nil {
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
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	msgType, payload := sendHello(t, nc, wire.Version{Major: wire.Current.Major, Minor: 99})
	if msgType != wire.MsgHelloOK {
		t.Fatalf("a minor-99 Hello was answered 0x%02x, want HelloOK", msgType)
	}
	if v := wire.DecodeHelloOK(wire.NewCursor(payload)).Version; v != wire.Current {
		t.Fatalf("minor negotiation gave v%s, want v%s", v, wire.Current)
	}
}

// TestHandshakeRefusesUnknownMajor: the acceptance path for version skew — a
// client offering a major the server does not speak, a future one, the v4.0
// this tree spoke before v5 retired ExecBatch and the tuple codec, the v3.1
// it spoke before v4 retired the transaction-control messages, or the v2.2 it
// spoke before Run replaced Bind/Execute, is refused with a typed
// *wire.VersionError naming both versions.
func TestHandshakeRefusesUnknownMajor(t *testing.T) {
	_, srv, addr := startServer(t)
	for i, offered := range []wire.Version{{Major: 9, Minor: 0}, {Major: 4, Minor: 0}, {Major: 3, Minor: 1}, {Major: 2, Minor: 2}} {
		ve := refusedHello(t, addr, offered)
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

// countingSource wraps a core.Source and records what the loader asks of
// it: every statement text it prepares, how many times statements run, and
// the rows each INSERT wrote.
type countingSource struct {
	inner    core.Source
	prepared []string
	execs    int
	inserts  []int
}

func (s *countingSource) Prepare(text string) (core.Statement, error) {
	st, err := s.inner.Prepare(text)
	if err != nil {
		return nil, err
	}
	s.prepared = append(s.prepared, text)
	return countingStatement{Statement: st, src: s, insert: strings.HasPrefix(text, "INSERT")}, nil
}

func (s *countingSource) NewSource() core.Source { return s }

type countingStatement struct {
	core.Statement
	src    *countingSource
	insert bool
}

func (st countingStatement) Exec() (core.ExecSummary, error) {
	res, err := st.Statement.Exec()
	st.src.execs++
	if st.insert && err == nil {
		st.src.inserts = append(st.src.inserts, res.RowsAffected)
	}
	return res, err
}

// TestRemotePopulateCostsOneRunPerBatch: the one loader fills a server over
// the wire with exactly the rows it puts in a local database, and every
// batch of rows is one Run. Each distinct statement text costs one Prepare
// and one CloseStmt on top, so the whole load takes a small fraction of the
// messages a per-row load would, which needs a Run for every row.
func TestRemotePopulateCostsOneRunPerBatch(t *testing.T) {
	sizes := workload.SmallSizes
	ref := engine.OpenMemory()
	defer ref.Close()
	if err := workload.Populate(core.NewEngineSource(ref.Session()), sizes); err != nil {
		t.Fatal(err)
	}

	db, srv, addr := startServer(t)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	src := &countingSource{inner: core.NewRemoteSource(conn)}
	if err := workload.Populate(src, sizes); err != nil {
		t.Fatal(err)
	}
	messages := srv.Stats().MessagesServed

	rows := sizes.Customers + sizes.Orders + sizes.Orders*sizes.ItemsPerOrder
	for _, table := range []string{"customers", "orders", "order_items"} {
		q := "SELECT * FROM " + table + " ORDER BY id"
		want, err := ref.Session().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Session().Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: remote holds %d rows, local %d", table, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if got.Rows[i].String() != want.Rows[i].String() {
				t.Fatalf("%s row %d: remote %v, local %v", table, i, got.Rows[i], want.Rows[i])
			}
		}
	}

	// One Prepare per distinct text, one Run per execution, one CloseStmt
	// per prepared statement, and nothing else.
	distinct := map[string]bool{}
	for _, text := range src.prepared {
		distinct[text] = true
	}
	if len(distinct) != len(src.prepared) {
		t.Errorf("prepared %d statements for %d distinct texts", len(src.prepared), len(distinct))
	}
	if want := uint64(2*len(src.prepared) + src.execs); messages != want {
		t.Errorf("load cost %d messages, want %d: %d Prepare and CloseStmt pairs, %d Runs",
			messages, want, len(src.prepared), src.execs)
	}
	// Every batch is full but each table's last, so the largest batch is the
	// batch size and the Runs of INSERT are one per batch.
	batch, loaded := 0, 0
	for _, n := range src.inserts {
		batch, loaded = max(batch, n), loaded+n
	}
	if loaded != rows {
		t.Fatalf("INSERT batches wrote %d rows, want %d", loaded, rows)
	}
	ceil := func(n int) int { return (n + batch - 1) / batch }
	if want := ceil(sizes.Customers) + ceil(sizes.Orders) + ceil(sizes.Orders*sizes.ItemsPerOrder); len(src.inserts) != want {
		t.Errorf("loaded %d rows in %d INSERT Runs, want %d batches of up to %d", rows, len(src.inserts), want, batch)
	}
	if messages*10 > uint64(rows) {
		t.Errorf("load cost %d messages for %d rows; a per-row load costs at least %d", messages, rows, rows)
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
	refusedHello(t, addr, wire.Version{Major: wire.Current.Major + 1})

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
	if m.Server.ConnectionsAccepted < 1 || m.Server.HandshakesAccepted < 1 || m.Server.HandshakesRejected < 1 {
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

// TestOrderByIncomparableValuesFailsRemotely: a sort whose keys cannot be
// compared fails the statement over the wire as it does locally (engine
// TestOrderByIncomparableValuesFails), and the connection stays usable.
func TestOrderByIncomparableValuesFailsRemotely(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, stmt := range []string{
		"CREATE TABLE p (id INT PRIMARY KEY, city TEXT)",
		"INSERT INTO p VALUES (1, 'b'), (2, NULL), (3, 'a'), (4, NULL), (5, 'c')",
	} {
		if _, err := execSQL(c, stmt); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := querySQL(t, c, "SELECT id, COALESCE(city, id) FROM p ORDER BY COALESCE(city, id)")
	if err == nil {
		var got []string
		for rows.Next() {
			got = append(got, rows.Row().String())
		}
		rows.Close()
		t.Fatalf("the sort returned %v, want a comparison error", got)
	}
	if !strings.Contains(err.Error(), "cannot compare") {
		t.Fatalf("the sort failed with %v, want a comparison error", err)
	}
	rows, err = querySQL(t, c, "SELECT id FROM p ORDER BY city DESC, id")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		got = append(got, rows.Row()[0].String())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "5,1,3,2,4" {
		t.Errorf("ORDER BY city DESC, id = %v, want 5,1,3,2,4", got)
	}
}

// TestResponsesBuiltInTheKeptBufferStayIntact: a connection builds each
// Cursor and Rows payload in the buffer its last response left, keeping that
// buffer only up to 64 KiB. One connection alternates batches of wide rows
// well past that cap with one-row answers and short fetches, so every
// response is built in a buffer a larger or a smaller one used before; every
// row must still arrive whole and in order.
func TestResponsesBuiltInTheKeptBufferStayIntact(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const rows, width = 60, 3000
	text := func(id int64) string { return strings.Repeat(string(rune('a'+id%26)), width-int(id)) }
	if _, err := execSQL(c, "CREATE TABLE w (id INT PRIMARY KEY, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("INSERT INTO w VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < rows; id++ {
		if _, err := ins.Exec(types.NewInt(id), types.NewString(text(id))); err != nil {
			t.Fatal(err)
		}
	}
	ins.Close()
	page, err := c.Prepare("SELECT * FROM w WHERE id >= ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer page.Close()
	one, err := c.Prepare("SELECT s FROM w WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	for round := 0; round < 6; round++ {
		// Wide batches (about 180 KB in one Cursor frame) on even rounds,
		// batches of 3 rows fetched one after another on odd ones.
		page.SetFetchSize(map[bool]int{true: rows, false: 3}[round%2 == 0])
		lo := int64(round * 5)
		cursor, err := page.Query(types.NewInt(lo))
		if err != nil {
			t.Fatal(err)
		}
		want := lo
		for cursor.Next() {
			row := cursor.Row()
			if row[0].Int() != want || row[1].Str() != text(want) {
				t.Fatalf("round %d: row %d reads id %d with %d bytes of text, want id %d", round, want-lo, row[0].Int(), len(row[1].Str()), want)
			}
			want++
		}
		if err := cursor.Close(); err != nil {
			t.Fatal(err)
		}
		if want != rows {
			t.Fatalf("round %d: the page ended at id %d, want %d", round, want, rows)
		}
		id := int64(rows - 1 - round)
		single, err := one.Query(types.NewInt(id))
		if err != nil {
			t.Fatal(err)
		}
		if !single.Next() || single.Row()[0].Str() != text(id) {
			t.Fatalf("round %d: the one-row answer for id %d is wrong", round, id)
		}
		if err := single.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
