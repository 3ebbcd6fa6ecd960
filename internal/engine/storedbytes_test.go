package engine_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/types"
)

// TestCursorRowsAreStoredBytes is a generated differential test of the
// stored-bytes path. Each seed fills two tables with every column kind (NULL,
// INT, negative FLOAT, DATE, BOOL, empty TEXT and TEXT holding 0x00, and INT
// values inserted into a FLOAT column), lets other sessions commit updates and
// deletes, holds one transaction's updates and deletes in flight, and then
// opens two readers on one snapshot: a remote one through the wire and a
// local engine session. Once both hold it, more writes commit and the
// in-flight transaction ends, so some versions on every page are invisible to
// both. For each query shape the bytes of every row the server puts in a
// Cursor or Rows frame must equal types.EncodeTuple of the row the local
// Rows.Next returns, in the same order.
//
// SELECT * and the full column list in order, by sequential scan, index
// equality and forward and reverse index range, each with and without LIMIT,
// must take the stored-bytes path (engine.StoredBytes); a residual filter, a
// reordered or partial column list, an alias, an expression column and a
// sort must decode, and still return the same rows.
func TestCursorRowsAreStoredBytes(t *testing.T) {
	for _, seed := range []int64{43001, 43002, 43003} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Logf("seed %d", seed)
			checkStoredBytes(t, rand.New(rand.NewSource(seed)))
		})
	}
}

func checkStoredBytes(t *testing.T, rng *rand.Rand) {
	db := engine.OpenMemory()
	srv := server.New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v", err)
		}
		db.Close()
	}()

	const rows = 300
	writer := db.Session()
	defer writer.Close()
	mustExec(t, writer, "CREATE TABLE g (id INT PRIMARY KEY, k INT, f FLOAT, d DATE, b BOOL, s TEXT, n INT)")
	mustExec(t, writer, "CREATE INDEX g_k ON g (k)")
	mustExec(t, writer, "CREATE TABLE h (s TEXT, id INT PRIMARY KEY, f FLOAT)")
	insG := mustPrepare(t, writer, "INSERT INTO g VALUES (?, ?, ?, ?, ?, ?, ?)")
	insH := mustPrepare(t, writer, "INSERT INTO h VALUES (?, ?, ?)")
	nextID := 0
	insert := func(s *engine.Session) {
		id := types.NewInt(int64(nextID))
		nextID++
		for _, st := range []struct {
			stmt *engine.Stmt
			args []types.Value
		}{
			{insG, []types.Value{id, genKey(rng), genFloat(rng), genDate(rng), genBool(rng), genText(rng), genNullable(rng)}},
			{insH, []types.Value{genText(rng), id, genFloat(rng)}},
		} {
			stmt := st.stmt
			if s != writer {
				stmt = mustPrepare(t, s, stmt.Text())
			}
			if _, err := stmt.Exec(st.args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// change updates or deletes one row of each table through s.
	change := func(s *engine.Session, id int) {
		if rng.Intn(4) == 0 {
			mustExec(t, s, fmt.Sprintf("DELETE FROM g WHERE id = %d", id))
			mustExec(t, s, fmt.Sprintf("DELETE FROM h WHERE id = %d", id))
			return
		}
		upd := mustPrepare(t, s, "UPDATE g SET f = ?, s = ?, k = ?, d = ? WHERE id = ?")
		if _, err := upd.Exec(genFloat(rng), genText(rng), genKey(rng), genDate(rng), types.NewInt(int64(id))); err != nil {
			t.Fatal(err)
		}
		updH := mustPrepare(t, s, "UPDATE h SET s = ?, f = ? WHERE id = ?")
		if _, err := updH.Exec(genText(rng), genFloat(rng), types.NewInt(int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rows; i++ {
		insert(writer)
	}
	// Committed before the readers begin: they see the new versions only.
	for i := 0; i < rows/4; i++ {
		change(writer, rng.Intn(rows))
	}
	// In flight while the readers begin, on ids no other writer touches.
	inFlight := db.Session()
	defer inFlight.Close()
	mustExec(t, inFlight, "BEGIN")
	for id := 1; id < rows; id += 7 {
		change(inFlight, id)
	}

	remote := dialRaw(t, ln.Addr().String())
	defer remote.nc.Close()
	remote.exec("BEGIN")
	local := db.Session()
	defer local.Close()
	mustExec(t, local, "BEGIN")

	// After both snapshots: all invisible to the readers.
	if rng.Intn(2) == 0 {
		mustExec(t, inFlight, "COMMIT")
	} else {
		mustExec(t, inFlight, "ROLLBACK")
	}
	later := db.Session()
	defer later.Close()
	for i := 0; i < rows/4; i++ {
		change(later, rng.Intn(rows))
	}
	for i := 0; i < rows/10; i++ {
		insert(later)
	}

	// The readers' snapshot predates the later writes.
	now, _ := localRows(t, later, "SELECT * FROM g")
	then, _ := localRows(t, local, "SELECT * FROM g")
	if len(now) == len(then) {
		t.Fatalf("the readers see %d rows of g, as a new snapshot does: the later writes did not change the table", len(then))
	}

	compared := 0
	limit := func() string { return fmt.Sprintf(" LIMIT %d OFFSET %d", 1+rng.Intn(40), rng.Intn(5)) }
	for round := 0; round < 4; round++ {
		lo, hi := rng.Intn(rows), rng.Intn(rows)
		if lo > hi {
			lo, hi = hi, lo
		}
		key := rng.Intn(8)
		rangeG := fmt.Sprintf("FROM g WHERE id >= %d AND id < %d", lo, hi)
		shapes := []struct {
			query  string
			stored bool
		}{
			{"SELECT * FROM g", true},
			{"SELECT * FROM h", true},
			{fmt.Sprintf("SELECT * FROM g WHERE k = %d", key), true},
			{fmt.Sprintf("SELECT * %s ORDER BY id", rangeG), true},
			{fmt.Sprintf("SELECT * %s ORDER BY id DESC", rangeG), true},
			{fmt.Sprintf("SELECT * FROM h WHERE id > %d ORDER BY id DESC", lo), true},
			{fmt.Sprintf("SELECT id, k, f, d, b, s, n %s ORDER BY id", rangeG), true},
			{fmt.Sprintf("SELECT * %s AND s <> '' ORDER BY id", rangeG), false},
			{fmt.Sprintf("SELECT * FROM g WHERE k = %d AND b = TRUE", key), false},
			{fmt.Sprintf("SELECT k, id, f, d, b, s, n %s ORDER BY id", rangeG), false},
			{fmt.Sprintf("SELECT id, s FROM g WHERE k = %d", key), false},
			{fmt.Sprintf("SELECT id AS ident, k, f, d, b, s, n %s ORDER BY id DESC", rangeG), false},
			{fmt.Sprintf("SELECT id, k + 1, f, d, b, s, n %s ORDER BY id", rangeG), false},
			{"SELECT * FROM h ORDER BY s, id", false},
		}
		for _, shape := range shapes {
			for _, q := range []string{shape.query, shape.query + limit()} {
				want, stored := localRows(t, local, q)
				if stored != shape.stored {
					t.Errorf("%s: stored-bytes path %v, want %v", q, stored, shape.stored)
				}
				got := remote.rows(q)
				if len(got) != len(want) {
					t.Fatalf("%s: the server sent %d rows, the local cursor read %d", q, len(got), len(want))
				}
				for i := range got {
					if string(got[i]) != string(want[i]) {
						t.Fatalf("%s: row %d is %x over the wire, %x encoded from the local row", q, i, got[i], want[i])
					}
				}
				compared += len(got)
			}
		}
	}
	t.Logf("%d rows compared", compared)
}

// localRows runs q on s and returns each row's types.EncodeTuple bytes, read
// through Rows.Next, and whether the cursor took the stored-bytes path.
func localRows(t *testing.T, s *engine.Session, q string) ([][]byte, bool) {
	t.Helper()
	st := mustPrepare(t, s, q)
	defer st.Close()
	rows, err := st.Query()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer rows.Close()
	stored := engine.StoredBytes(rows)
	var out [][]byte
	for rows.Next() {
		out = append(out, types.EncodeTuple(nil, rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out, stored
}

func mustExec(t *testing.T, s *engine.Session, q string) {
	t.Helper()
	if _, err := s.Execute(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

func mustPrepare(t *testing.T, s *engine.Session, q string) *engine.Stmt {
	t.Helper()
	st, err := s.Prepare(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return st
}

func genKey(rng *rand.Rand) types.Value {
	if rng.Intn(10) == 0 {
		return types.Null()
	}
	return types.NewInt(int64(rng.Intn(8)))
}

// genFloat returns a negative FLOAT, an INT for the FLOAT column to cast,
// negative zero or NULL.
func genFloat(rng *rand.Rand) types.Value {
	switch rng.Intn(6) {
	case 0:
		return types.Null()
	case 1:
		return types.NewInt(int64(rng.Intn(2000) - 1000))
	case 2:
		return types.NewFloat(math.Copysign(0, -1))
	default:
		return types.NewFloat(-rng.Float64() * math.Pow(10, float64(rng.Intn(12))))
	}
}

func genDate(rng *rand.Rand) types.Value {
	if rng.Intn(8) == 0 {
		return types.Null()
	}
	return types.NewDate(1900+rng.Intn(200), time.Month(1+rng.Intn(12)), 1+rng.Intn(28))
}

func genBool(rng *rand.Rand) types.Value {
	switch rng.Intn(3) {
	case 0:
		return types.Null()
	case 1:
		return types.NewBool(true)
	}
	return types.NewBool(false)
}

// genText returns NULL, the empty string, text holding 0x00 bytes, or text
// of up to 300 bytes, some of them multi-byte runes.
func genText(rng *rand.Rand) types.Value {
	switch rng.Intn(6) {
	case 0:
		return types.Null()
	case 1:
		return types.NewString("")
	case 2:
		return types.NewString("a\x00b\x00")
	}
	return types.NewString(strings.Repeat("wé", rng.Intn(100)))
}

func genNullable(rng *rand.Rand) types.Value {
	if rng.Intn(3) > 0 {
		return types.Null()
	}
	return types.NewInt(rng.Int63() - math.MaxInt64/2)
}

// rawConn speaks the wire protocol frame by frame, so a test sees the bytes
// of each row the server sends.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &rawConn{t: t, nc: nc}
	var b wire.Buffer
	wire.Hello{Magic: wire.HelloMagic, Version: wire.Current}.Encode(&b)
	c.roundTrip(wire.MsgHello, b.B, wire.MsgHelloOK)
	return c
}

// roundTrip sends one frame and returns the answer's payload, which must be
// of type want.
func (c *rawConn) roundTrip(msgType byte, payload []byte, want byte) []byte {
	c.t.Helper()
	if err := wire.WriteFrame(c.nc, msgType, payload); err != nil {
		c.t.Fatal(err)
	}
	got, resp, err := wire.ReadFrame(c.nc)
	if err != nil {
		c.t.Fatal(err)
	}
	if got != want {
		msg := ""
		if got == wire.MsgErr {
			msg = wire.NewCursor(resp).String()
		}
		c.t.Fatalf("sent 0x%02x, answered 0x%02x %s; want 0x%02x", msgType, got, msg, want)
	}
	return resp
}

// run prepares q and runs it with a first batch of 7 rows, returning the
// answer's payload.
func (c *rawConn) run(q string, want byte) []byte {
	c.t.Helper()
	var prep wire.Buffer
	prep.String(q)
	stmt := wire.NewCursor(c.roundTrip(wire.MsgPrepare, prep.B, wire.MsgStmt)).Uint32()
	var run wire.Buffer
	run.Uint32(stmt)
	run.Tuple(nil)
	run.Uint32(7)
	run.Bool(false)
	return c.roundTrip(wire.MsgRun, run.B, want)
}

func (c *rawConn) exec(q string) { c.run(q, wire.MsgResult) }

// rows runs q and returns the bytes of every row of its Cursor frame and of
// the Rows frames fetched after it, 7 at a time.
func (c *rawConn) rows(q string) [][]byte {
	c.t.Helper()
	p := c.run(q, wire.MsgCursor)
	cursor := binary.BigEndian.Uint32(p)
	p = p[4:]
	names := binary.BigEndian.Uint32(p)
	for p = p[4:]; names > 0; names-- {
		p = p[4+binary.BigEndian.Uint32(p):]
	}
	var out [][]byte
	for {
		done := p[0] != 0
		count := binary.BigEndian.Uint32(p[1:])
		for p = p[5:]; count > 0; count-- {
			_, n, err := types.ReadTuple(p)
			if err != nil {
				c.t.Fatalf("%s: %v", q, err)
			}
			out = append(out, p[:n:n])
			p = p[n:]
		}
		if done {
			return out
		}
		var fetch wire.Buffer
		fetch.Uint32(cursor)
		fetch.Uint32(7)
		p = c.roundTrip(wire.MsgFetch, fetch.B, wire.MsgRows)
	}
}
