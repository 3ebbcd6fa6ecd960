// Mechanism tests for the Run round trip: counts of messages served, not
// timings. Run binds, executes and carries the first batch back, so every
// operation whose result fits one batch is exactly one message; only a longer
// cursor (Fetch) or one abandoned while the server still holds it
// (CloseCursor) pays a second.
package server_test

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/sqlair"
	"repro/internal/types"
)

// served reports how many messages the server handled while fn ran.
func served(t *testing.T, srv *server.Server, fn func()) uint64 {
	t.Helper()
	before := srv.Stats().MessagesServed
	fn()
	return srv.Stats().MessagesServed - before
}

type wireCustomer struct {
	ID     int64   `db:"id"`
	Name   string  `db:"name"`
	Credit float64 `db:"credit"`
}

type wireKey struct {
	ID int64 `db:"id"`
}

func TestTypedGetAndIterCostOneMessage(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	seedCustomers(t, c, 5)
	c.Close()

	// One connection, vouched for by its own traffic: no checkout ping and,
	// after the first call, no Prepare either.
	pool := client.NewPool(addr, client.PoolConfig{Size: 1, HealthCheckAfter: time.Minute})
	defer pool.Close()
	db := sqlair.NewPoolDB(pool)
	ctx := context.Background()
	get, err := db.Prepare("SELECT &wireCustomer.* FROM customers WHERE id = $wireKey.id", wireCustomer{}, wireKey{})
	if err != nil {
		t.Fatal(err)
	}
	// id >= 1 matches all five rows: a Get reads one and abandons the rest of
	// a batch that came back done.
	first, err := db.Prepare("SELECT &wireCustomer.* FROM customers WHERE id >= $wireKey.id ORDER BY id", wireCustomer{}, wireKey{})
	if err != nil {
		t.Fatal(err)
	}
	var got wireCustomer
	for _, st := range []*sqlair.Statement{get, first} { // warm the connection's statement cache
		if err := db.Query(ctx, st, wireKey{ID: 1}).Get(&got); err != nil {
			t.Fatal(err)
		}
	}

	if n := served(t, srv, func() {
		if err := db.Query(ctx, get, wireKey{ID: 3}).Get(&got); err != nil {
			t.Fatal(err)
		}
	}); n != 1 || got.ID != 3 {
		t.Fatalf("typed Get of one row: %d message(s), row %+v; want 1 message, id 3", n, got)
	}
	if n := served(t, srv, func() {
		if err := db.Query(ctx, first, wireKey{ID: 1}).Get(&got); err != nil {
			t.Fatal(err)
		}
	}); n != 1 || got.ID != 1 {
		t.Fatalf("typed Get on a five-row result: %d message(s), row %+v; want 1 message, id 1", n, got)
	}
	if n := served(t, srv, func() {
		it, err := db.Query(ctx, first, wireKey{ID: 2}).Iter()
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for it.Next() {
			rows++
		}
		if err := it.Close(); err != nil || rows != 4 {
			t.Fatalf("Iter: %d rows, close error %v", rows, err)
		}
	}); n != 1 {
		t.Fatalf("Iter shorter than the fetch size cost %d messages, want 1", n)
	}
	if n := served(t, srv, func() {
		it, err := db.Query(ctx, first, wireKey{ID: 1}).Iter()
		if err != nil {
			t.Fatal(err)
		}
		it.Next()
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Iter abandoned inside a done batch cost %d messages, want 1 (no CloseCursor)", n)
	}
}

func TestWritesCostOneMessage(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 3)

	update, err := c.Prepare("UPDATE customers SET credit = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer update.Close()
	if n := served(t, srv, func() {
		res, err := update.Exec(types.NewFloat(7), types.NewInt(2))
		if err != nil || res.RowsAffected != 1 {
			t.Fatalf("update: %+v, %v", res, err)
		}
	}); n != 1 {
		t.Fatalf("Stmt.Exec(args...) of an UPDATE cost %d messages, want 1", n)
	}

	insert, err := c.Prepare("INSERT INTO customers (id, name) VALUES (@id, @name) RETURNING id, name")
	if err != nil {
		t.Fatal(err)
	}
	defer insert.Close()
	if n := served(t, srv, func() {
		if err := insert.BindNamed("id", types.NewInt(10)); err != nil {
			t.Fatal(err)
		}
		if err := insert.BindNamed("name", types.NewString("ten")); err != nil {
			t.Fatal(err)
		}
		rows, err := insert.Query()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() || rows.Row()[1].Str() != "ten" {
			t.Fatalf("RETURNING row = %v (err %v)", rows.Row(), rows.Err())
		}
	}); n != 1 {
		t.Fatalf("Stmt.Query of an INSERT .. RETURNING cost %d messages, want 1", n)
	}
}

// TestRowsCloseAfterDoneBatchSendsNothing is the regression test for Close
// paying a CloseCursor round trip for a cursor the server had already closed:
// done decides, not how far into the batch the reader got.
func TestRowsCloseAfterDoneBatchSendsNothing(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 4)
	st, err := c.Prepare("SELECT id FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := served(t, srv, func() {
		rows, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatal(rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("query + early Close of a drained cursor cost %d messages, want 1", n)
	}
	if kept := srv.Stats().CursorsKeptOpen; kept != 0 {
		t.Fatalf("CursorsKeptOpen = %d, want 0: every result so far fit its first batch", kept)
	}
}

func TestCursorLongerThanFirstBatch(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 5)
	st, err := c.Prepare("SELECT id FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetFetchSize(2)

	// 5 rows in batches of 2: Run carries 2, Fetch 2, Fetch 1 + done.
	if n := served(t, srv, func() {
		rows, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		for rows.Next() {
			ids = append(ids, rows.Row()[0].Int())
		}
		if err := rows.Err(); err != nil || !reflect.DeepEqual(ids, []int64{1, 2, 3, 4, 5}) {
			t.Fatalf("streamed %v (err %v)", ids, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Fatalf("draining 5 rows at 2 per batch cost %d messages, want 3 (Run + 2 Fetch)", n)
	}
	if kept := srv.Stats().CursorsKeptOpen; kept != 1 {
		t.Fatalf("CursorsKeptOpen = %d, want 1", kept)
	}

	// Abandoned while the server still holds it: exactly one CloseCursor.
	if n := served(t, srv, func() {
		rows, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatal(rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil { // idempotent, and free
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("early Close of an open cursor cost %d messages, want 2 (Run + CloseCursor)", n)
	}
	// The statement is free again: the server really dropped the cursor.
	rows, err := st.Query()
	if err != nil {
		t.Fatalf("statement still busy after CloseCursor: %v", err)
	}
	rows.Close()
}

// runFrame sends one raw Run and returns the response type and payload.
func runFrame(t *testing.T, nc net.Conn, stmt uint32, args types.Tuple) (byte, []byte) {
	t.Helper()
	var b wire.Buffer
	b.Uint32(stmt)
	b.Tuple(args)
	b.Uint32(16)
	if err := wire.WriteFrame(nc, wire.MsgRun, b.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	return msgType, payload
}

// TestFailedRunWritesNothing: the bind and the execute cannot be separated,
// so a Run that fails to bind — or names no statement — executes nothing and
// leaves the connection usable for the next Run.
func TestFailedRunWritesNothing(t *testing.T) {
	db, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 3)
	credits := func() string {
		res, err := db.Session().Query("SELECT credit FROM customers ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range res.Rows {
			sb.WriteString(r[0].SQL() + " ")
		}
		return sb.String()
	}
	before := credits()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rawHandshake(t, nc)
	var prep wire.Buffer
	prep.String("UPDATE customers SET credit = ? WHERE id >= ?")
	if err := wire.WriteFrame(nc, wire.MsgPrepare, prep.B); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := wire.ReadFrame(nc)
	if err != nil || msgType != wire.MsgStmt {
		t.Fatalf("Prepare answered 0x%02x, %v", msgType, err)
	}
	stmt := wire.NewCursor(payload).Uint32()

	// A first, valid Run leaves bindings behind on the server-side statement;
	// a later short Run must not execute against them.
	if msgType, _ := runFrame(t, nc, stmt, types.Tuple{types.NewFloat(1), types.NewInt(99)}); msgType != wire.MsgResult {
		t.Fatalf("valid Run answered 0x%02x", msgType)
	}
	for _, bad := range []struct {
		name string
		stmt uint32
		args types.Tuple
	}{
		{"wrong arity", stmt, types.Tuple{types.NewFloat(0)}},
		{"no parameters", stmt, nil},
		{"uncastable bind", stmt, types.Tuple{types.NewFloat(0), types.NewString("x")}},
		{"unknown stmt id", stmt + 100, types.Tuple{types.NewFloat(0), types.NewInt(1)}},
	} {
		if msgType, _ := runFrame(t, nc, bad.stmt, bad.args); msgType != wire.MsgErr {
			t.Fatalf("%s: Run answered 0x%02x, want Err", bad.name, msgType)
		}
		if after := credits(); after != before {
			t.Fatalf("%s: a failed Run wrote: credits %s -> %s", bad.name, before, after)
		}
	}
	// The Go client refuses the wrong arity before a byte is sent.
	update, err := c.Prepare("UPDATE customers SET credit = ? WHERE id >= ?")
	if err != nil {
		t.Fatal(err)
	}
	defer update.Close()
	if _, err := update.Exec(types.NewFloat(0)); err == nil || !strings.Contains(err.Error(), "2 parameter") {
		t.Fatalf("client-side arity check: %v", err)
	}
	if _, err := update.Exec(); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("client-side unbound check: %v", err)
	}

	// Same raw connection, next Run succeeds.
	msgType, payload = runFrame(t, nc, stmt, types.Tuple{types.NewFloat(5), types.NewInt(3)})
	if msgType != wire.MsgResult {
		t.Fatalf("Run after the failures answered 0x%02x", msgType)
	}
	if affected := wire.NewCursor(payload).Uint64(); affected != 1 {
		t.Fatalf("Run after the failures affected %d rows, want 1", affected)
	}
}

func TestRunOfWriteRefusedOnReplica(t *testing.T) {
	db, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 2)
	update, err := c.Prepare("UPDATE customers SET credit = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer update.Close()
	read, err := c.Prepare("SELECT credit FROM customers WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer read.Close()

	srv.SetReadOnly(true)
	if _, err := update.Exec(types.NewFloat(0), types.NewInt(1)); err == nil || !strings.Contains(err.Error(), "read-only replica") {
		t.Fatalf("write on a read-only server: %v", err)
	}
	res, err := db.Session().Query("SELECT credit FROM customers WHERE id = 1")
	if err != nil || res.Rows[0][0].Float() != 100 {
		t.Fatalf("refused write changed the row: %v, %v", res, err)
	}
	// Reads keep working on the same connection, and so does the write once
	// the server takes writes again.
	rows, err := read.Query(types.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() || rows.Row()[0].Float() != 100 {
		t.Fatalf("read after refusal: %v, %v", rows.Row(), rows.Err())
	}
	rows.Close()
	srv.SetReadOnly(false)
	if res, err := update.Exec(types.NewFloat(0), types.NewInt(1)); err != nil || res.RowsAffected != 1 {
		t.Fatalf("write after the refusal: %+v, %v", res, err)
	}
}

// TestReplannedSelectStarReportsNewColumns: the Cursor frame names the
// columns of the plan that actually ran, not the ones Prepare saw.
func TestReplannedSelectStarReportsNewColumns(t *testing.T) {
	_, _, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE shape (id INT PRIMARY KEY, a TEXT)"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("SELECT * FROM shape WHERE id >= ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cols := st.Columns(); !reflect.DeepEqual(cols, []string{"id", "a"}) {
		t.Fatalf("prepared columns = %v", cols)
	}
	for _, ddl := range []string{
		"DROP TABLE shape",
		"CREATE TABLE shape (id INT PRIMARY KEY, b TEXT, c INT)",
		"INSERT INTO shape VALUES (1, 'x', 9)",
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := st.Query(types.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); !reflect.DeepEqual(cols, []string{"id", "b", "c"}) {
		t.Fatalf("columns after the re-plan = %v, want [id b c]", cols)
	}
	if !rows.Next() || len(rows.Row()) != 3 || rows.Row()[2].Int() != 9 {
		t.Fatalf("row after the re-plan = %v (err %v)", rows.Row(), rows.Err())
	}
}

// queryFirstIDs runs QueryFirst(n) on st, drains it and returns the first
// column of every row.
func queryFirstIDs(t *testing.T, st *client.Stmt, n int) []int64 {
	t.Helper()
	rows, err := st.QueryFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for rows.Next() {
		ids = append(ids, rows.Row()[0].Int())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestOneBatchRunCutByByteBudgetKeepsCursor: a one-batch Run ends its cursor
// only when the first batch holds max rows. Rows so wide that the 4 MiB batch
// budget cuts the first batch short leave the cursor open, and QueryFirst
// fetches the rest of its rows instead of returning a silent prefix.
func TestOneBatchRunCutByByteBudgetKeepsCursor(t *testing.T) {
	db, srv, addr := startServer(t)
	s := db.Session()
	if _, err := s.Execute("CREATE TABLE blobs (id INT PRIMARY KEY, payload TEXT)"); err != nil {
		t.Fatal(err)
	}
	insert, err := s.Prepare("INSERT INTO blobs (id, payload) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer insert.Close()
	// A stored row must fit a page, so the query widens each 7 000-byte
	// payload fifteenfold: ~100 KiB a row, ~10 MiB for the 100 rows, so the
	// first batch holds well under n rows.
	part := strings.Repeat("x", 7000)
	const n, copies = 100, 15
	batch := make([][]types.Value, n)
	for i := range batch {
		batch[i] = []types.Value{types.NewInt(int64(i)), types.NewString(part)}
	}
	if _, err := insert.ExecBatch(batch); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare("SELECT id, payload" + strings.Repeat(" + payload", copies-1) + " FROM blobs ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, err := st.QueryFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for rows.Next() {
		if row := rows.Row(); row[0].Int() != int64(count) || len(row[1].Str()) != copies*len(part) {
			t.Fatalf("row %d: id %d, %d payload bytes", count, row[0].Int(), len(row[1].Str()))
		}
		count++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("QueryFirst(%d) returned %d rows", n, count)
	}
	if kept := srv.Stats().CursorsKeptOpen; kept != 1 {
		t.Fatalf("CursorsKeptOpen = %d, want 1: the budget-cut first batch must keep its cursor", kept)
	}
	// Nothing is left open: the statement runs again.
	if ids := queryFirstIDs(t, st, 1); !reflect.DeepEqual(ids, []int64{0}) {
		t.Fatalf("QueryFirst(1) after the cut cursor: ids %v", ids)
	}
}

// TestRunWithoutOneBatchFlagIsV30: the flag is an optional trailing field. A
// Run that omits it on a 3.1 connection is answered byte for byte like the
// same Run on a 3.0 connection, and a 3.0 connection that sends the byte
// anyway has it ignored, since 3.0 has no such field.
func TestRunWithoutOneBatchFlagIsV30(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	seedCustomers(t, c, 5)
	c.Close()

	// run opens a raw connection at version v, prepares the SELECT and sends
	// one Run with max rows 2, followed by tail; it returns the answer.
	run := func(v wire.Version, tail ...byte) (byte, []byte) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		exchange := func(msgType byte, payload []byte) (byte, []byte) {
			if err := wire.WriteFrame(nc, msgType, payload); err != nil {
				t.Fatal(err)
			}
			respType, resp, err := wire.ReadFrame(nc)
			if err != nil {
				t.Fatal(err)
			}
			return respType, resp
		}
		var hello wire.Buffer
		wire.Hello{Magic: wire.HelloMagic, Version: v}.Encode(&hello)
		if respType, resp := exchange(wire.MsgHello, hello.B); respType != wire.MsgHelloOK || wire.DecodeHelloOK(wire.NewCursor(resp)).Version != v {
			t.Fatalf("handshake at v%s answered 0x%02x", v, respType)
		}
		var prep wire.Buffer
		prep.String("SELECT id FROM customers ORDER BY id")
		respType, resp := exchange(wire.MsgPrepare, prep.B)
		if respType != wire.MsgStmt {
			t.Fatalf("Prepare answered 0x%02x", respType)
		}
		var b wire.Buffer
		b.Uint32(wire.NewCursor(resp).Uint32())
		b.Tuple(nil)
		b.Uint32(2)
		return exchange(wire.MsgRun, append(b.B, tail...))
	}
	v30, v31 := wire.Version{Major: 3, Minor: 0}, wire.Version{Major: 3, Minor: 1}
	kept := srv.Stats().CursorsKeptOpen
	wantType, want := run(v30)
	if wantType != wire.MsgCursor || wire.NewCursor(want).Uint32() == 0 {
		t.Fatalf("3.0 Run of 2 of 5 rows answered 0x%02x with no open cursor", wantType)
	}
	for _, tc := range []struct {
		name string
		v    wire.Version
		tail []byte
	}{
		{"3.1 Run without the flag", v31, nil},
		{"3.0 Run carrying a flag byte", v30, []byte{1}},
	} {
		if gotType, got := run(tc.v, tc.tail...); gotType != wantType || !reflect.DeepEqual(got, want) {
			t.Errorf("%s answered 0x%02x %x, want the 3.0 answer 0x%02x %x", tc.name, gotType, got, wantType, want)
		}
	}
	if got := srv.Stats().CursorsKeptOpen - kept; got != 3 {
		t.Errorf("CursorsKeptOpen rose by %d, want 3: none of these Runs ends its cursor", got)
	}
	// The control: with the flag on 3.1 the cursor ends with the batch.
	if _, got := run(v31, 1); wire.NewCursor(got).Uint32() != 0 {
		t.Errorf("3.1 one-batch Run left cursor %d open", wire.NewCursor(got).Uint32())
	}
}

// TestQueryFirstOnBothMinors: QueryFirst returns the same rows whatever the
// negotiated minor. On 3.1 its one-batch Run is the whole exchange and leaves
// no cursor open; a client that negotiated 3.0 never sends the flag and pays
// a CloseCursor for the cursor the server kept.
func TestQueryFirstOnBothMinors(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 5)
	for _, tc := range []struct {
		v          wire.Version
		msgs, kept uint64
	}{
		{wire.Version{Major: 3, Minor: 1}, 1, 0},
		{wire.Version{Major: 3, Minor: 0}, 2, 1},
	} {
		conn, err := client.DialWith(addr, client.DialOptions{Version: tc.v})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if v := conn.ProtocolVersion(); v != tc.v {
			t.Fatalf("negotiated v%s, want v%s", v, tc.v)
		}
		st, err := conn.Prepare("SELECT id FROM customers ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		kept := srv.Stats().CursorsKeptOpen
		var ids []int64
		if n := served(t, srv, func() { ids = queryFirstIDs(t, st, 2) }); n != tc.msgs || !reflect.DeepEqual(ids, []int64{1, 2}) {
			t.Errorf("v%s QueryFirst(2) of 5 rows: %d message(s), ids %v; want %d, ids [1 2]", tc.v, n, ids, tc.msgs)
		}
		if got := srv.Stats().CursorsKeptOpen - kept; got != tc.kept {
			t.Errorf("v%s: CursorsKeptOpen rose by %d, want %d", tc.v, got, tc.kept)
		}
	}
}
