// Mechanism tests for the Run round trip: counts of messages served, not
// timings. Run binds, executes and carries the first batch back, so every
// operation whose result fits one batch is exactly one message; only a longer
// cursor (Fetch) or one abandoned while the server still holds it
// (CloseCursor) pays a second.
package server_test

import (
	"context"
	"encoding/binary"
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

// runPayload encodes a Run of stmt with args, a first batch of 16 rows and
// the one-batch flag clear.
func runPayload(stmt uint32, args types.Tuple) []byte {
	var b wire.Buffer
	b.Uint32(stmt)
	b.Tuple(args)
	b.Uint32(16)
	b.Bool(false)
	return b.B
}

// runFrame sends one raw Run payload and returns the response type and payload.
func runFrame(t *testing.T, nc net.Conn, payload []byte) (byte, []byte) {
	t.Helper()
	if err := wire.WriteFrame(nc, wire.MsgRun, payload); err != nil {
		t.Fatal(err)
	}
	msgType, resp, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	return msgType, resp
}

// TestFailedRunWritesNothing: the bind and the execute cannot be separated,
// so a Run that fails to bind, names no statement or is cut short executes
// nothing and leaves the connection usable for the next Run.
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
	if msgType, _ := runFrame(t, nc, runPayload(stmt, types.Tuple{types.NewFloat(1), types.NewInt(99)})); msgType != wire.MsgResult {
		t.Fatalf("valid Run answered 0x%02x", msgType)
	}
	// A valid statement and arguments, cut before the required one-batch flag.
	noFlag := runPayload(stmt, types.Tuple{types.NewFloat(0), types.NewInt(1)})
	noFlag = noFlag[:len(noFlag)-1]
	// Hostile tuples: one claims 2^32-1 values and carries two, one holds a
	// string whose length runs past the frame. The decoder refuses both
	// before anything is allocated for them or bound.
	hugeCount := binary.BigEndian.AppendUint32(nil, stmt)
	hugeCount = binary.AppendUvarint(hugeCount, 1<<32-1)
	hugeCount = append(hugeCount, byte(types.KindNull), byte(types.KindNull))
	hugeCount = append(hugeCount, 0, 0, 0, 16, 0) // max rows, one-batch flag
	longString := binary.BigEndian.AppendUint32(nil, stmt)
	longString = binary.AppendUvarint(longString, 2)
	longString = append(longString, byte(types.KindString))
	longString = binary.AppendUvarint(longString, 1<<20)
	longString = append(longString, "5"...)
	longString = append(longString, 0, 0, 0, 16, 0)
	for _, bad := range []struct {
		name    string
		payload []byte
		want    string // in the error text, when set
	}{
		{"wrong arity", runPayload(stmt, types.Tuple{types.NewFloat(0)}), ""},
		{"no parameters", runPayload(stmt, nil), ""},
		{"uncastable bind", runPayload(stmt, types.Tuple{types.NewFloat(0), types.NewString("x")}), ""},
		{"unknown stmt id", runPayload(stmt+100, types.Tuple{types.NewFloat(0), types.NewInt(1)}), ""},
		{"no one-batch flag", noFlag, ""},
		{"tuple claims 2^32-1 values", hugeCount, "claims 4294967295 values"},
		{"string runs past the frame", longString, "truncated string"},
	} {
		msgType, payload := runFrame(t, nc, bad.payload)
		if msgType != wire.MsgErr {
			t.Fatalf("%s: Run answered 0x%02x, want Err", bad.name, msgType)
		}
		if msg := wire.NewCursor(payload).String(); !strings.Contains(msg, bad.want) {
			t.Fatalf("%s: error %q does not say %q", bad.name, msg, bad.want)
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
	msgType, payload = runFrame(t, nc, runPayload(stmt, types.Tuple{types.NewFloat(5), types.NewInt(3)}))
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
	if _, err := execSQL(c, "CREATE TABLE shape (id INT PRIMARY KEY, a TEXT)"); err != nil {
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
		if _, err := execSQL(c, ddl); err != nil {
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

// TestQueryFirstOnBothMinors: QueryFirst's one-batch Run is the whole
// exchange and leaves no cursor open. v4 has one minor, so one version is
// checked: 3.0's row, whose Run had no flag and paid a CloseCursor, is gone.
func TestQueryFirstOnBothMinors(t *testing.T) {
	_, srv, addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCustomers(t, c, 5)
	if v := c.ProtocolVersion(); v != wire.Current {
		t.Fatalf("negotiated v%s, want v%s", v, wire.Current)
	}
	st, err := c.Prepare("SELECT id FROM customers ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kept := srv.Stats().CursorsKeptOpen
	var ids []int64
	if n := served(t, srv, func() { ids = queryFirstIDs(t, st, 2) }); n != 1 || !reflect.DeepEqual(ids, []int64{1, 2}) {
		t.Errorf("QueryFirst(2) of 5 rows: %d message(s), ids %v; want 1, ids [1 2]", n, ids)
	}
	if got := srv.Stats().CursorsKeptOpen - kept; got != 0 {
		t.Errorf("CursorsKeptOpen rose by %d, want 0", got)
	}
}
