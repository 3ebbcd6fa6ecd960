// Package wire defines the length-prefixed binary protocol spoken between
// the wowserver session manager and its clients. Messages map onto the
// engine's prepared-statement lifecycle, and running a statement is one
// request frame and one response frame:
//
//	Hello       -> version check          -> HelloOK (negotiated version, banner, role)
//	Prepare     -> Session.Prepare        -> Stmt  (statement id, params, columns)
//	Run         -> Stmt.Bind + Query/Exec -> Cursor (first batch inline) or Result
//	Fetch       -> Rows.Next x maxRows    -> Rows (a later batch; done closes the cursor)
//	CloseStmt   -> Stmt.Close             -> OK
//	CloseCursor -> Rows.Close             -> OK
//	Ping        -> liveness check         -> OK      (pool health checks)
//
// Transaction control is SQL: BEGIN, COMMIT and ROLLBACK run through Run like
// any other statement, and so is a bulk write: a multi-row INSERT .. VALUES.
// A Run ends with a one-batch flag: when it is set the server closes the
// cursor after the first batch once that batch holds max rows, so a reader
// that wants no more than those rows — a window's page, a COUNT(*) — pays one
// round trip and never a CloseCursor.
//
// A connection can instead become a replication stream: Subscribe carries a
// start LSN, the server pushes WALSegment frames (raw bytes of the primary's
// CRC-framed log) from there on, and the replica acknowledges progress with
// ReplicaStatus frames. Result, Cursor, Rows and OK frames end with the
// server's durable LSN, so a client can tell how far a replica has applied.
//
// Framing: every message is one frame — a 4-byte big-endian payload length,
// then the payload, whose first byte is the message type. Integers are
// big-endian and fixed width; strings are a uint32 length followed by UTF-8
// bytes. A tuple of values is one record in the row encoding of package types
// (types.EncodeTuple), the bytes the heap and the log store: a varint count,
// then per value a kind byte and a varint, the IEEE bits or length-prefixed
// bytes, so a value is not fixed width.
//
// Versioning: the Hello frame carries a magic word and the client's version;
// the server refuses a major it does not speak (with a *VersionError whose
// versions ride in a structured tail on the error frame) and answers HelloOK
// with the negotiated version otherwise. The major number gates wire
// compatibility; minors may only append fields to existing payloads, which
// decoders tolerate (a Cursor never requires full consumption). The normative
// protocol specification — frame layout, every message payload, error-tail
// encoding, version rules — is docs/WIRE.md in the repository root; this
// package is its reference implementation.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/types"
)

// Message types, client to server.
const (
	MsgPrepare byte = 0x01 // sql string
	// 0x02 was v2's Bind; v3 retired it and the byte is never reused.
	MsgRun         byte = 0x03 // stmt id, all parameter values, max rows of the first batch, one-batch flag
	MsgFetch       byte = 0x04 // cursor id, max rows
	MsgCloseStmt   byte = 0x05 // stmt id
	MsgCloseCursor byte = 0x06 // cursor id
	// 0x07–0x09 were v3's Begin, Commit and Rollback; v4 retired them (transaction
	// control is SQL through Run) and the bytes are never reused.
	MsgHello byte = 0x0a // magic, client version — must be the first frame
	// 0x0b was v4's ExecBatch; v5 retired it (a bulk write is a multi-row
	// INSERT through Run) and the byte is never reused.
	MsgPing byte = 0x0c // liveness probe, answered with OK

	// Replication family. Subscribe turns the connection into a WAL stream:
	// the server pushes WALSegment frames and the request/response discipline
	// ends; the only frame the subscriber may send from then on is
	// ReplicaStatus.
	MsgSubscribe     byte = 0x0d // start LSN
	MsgReplicaStatus byte = 0x0e // applied LSN, acknowledging stream progress
)

// Message types, server to client.
const (
	MsgErr        byte = 0x20 // error text (+ server version tail on handshake refusal)
	MsgStmt       byte = 0x21 // stmt id, param names, columns, returns-rows flag
	MsgResult     byte = 0x22 // rows affected, message, columns, rows
	MsgCursor     byte = 0x23 // cursor id (0 once done), columns, then the first batch as in Rows
	MsgRows       byte = 0x24 // done flag, row batch
	MsgOK         byte = 0x25
	MsgHelloOK    byte = 0x26 // negotiated version, server banner, role
	MsgWALSegment byte = 0x27 // start LSN, raw log bytes — pushed after Subscribe
)

// --- protocol version ---------------------------------------------------------

// HelloMagic is the first word of a Hello payload: it distinguishes a wow
// client's handshake from an arbitrary program that happened to connect.
const HelloMagic uint32 = 0x574f5721 // "WOW!"

// Version is a protocol version. The major number gates compatibility: both
// ends must speak the same major. A higher minor may only append fields to
// existing payloads, which older decoders ignore; a peer sends an appended
// field only when the negotiated minor includes it.
type Version struct {
	Major uint32
	Minor uint32
}

// Current is the protocol version this tree speaks.
//
// v3.0 replaced v2's Bind/Execute pair with Run — bind, execute and the first
// row batch in one round trip — and folded every v2 minor's appended field
// (the Stmt returns-rows flag, the HelloOK role, the LSN tails) into the base
// payloads. v4.0 retired the Begin/Commit/Rollback messages, which repeated
// what SQL through Run already does, and folded 3.1's optional one-batch flag
// into the base Run as a required field. v5.0 retired ExecBatch, which repeated
// what a multi-row INSERT through Run already does, and encodes a tuple as a
// log record instead of in a codec of its own. No behaviour keys off the minor.
var Current = Version{Major: 5, Minor: 0}

// String renders the version as "2.0".
func (v Version) String() string { return fmt.Sprintf("%d.%d", v.Major, v.Minor) }

// IsZero reports whether the version is unset.
func (v Version) IsZero() bool { return v.Major == 0 && v.Minor == 0 }

// Compatible reports whether a peer speaking the other version can be served:
// majors must match exactly.
func (v Version) Compatible(other Version) bool { return v.Major == other.Major }

// VersionError is a handshake refusal: the two ends speak incompatible
// protocol majors (or the client never sent a Hello at all, in which case its
// version is zero — a pre-v2 client). The server encodes both versions into
// the refusal frame, so the client re-types the error instead of pattern
// matching on text.
type VersionError struct {
	Client Version // what the client offered (zero when no Hello was sent)
	Server Version // what the server speaks
}

func (e *VersionError) Error() string {
	if e.Client.IsZero() {
		return fmt.Sprintf("wire: protocol version mismatch: client sent no Hello handshake (pre-v2 protocol or not a wow client); server speaks v%s", e.Server)
	}
	return fmt.Sprintf("wire: protocol version mismatch: client speaks v%s, server speaks v%s (majors must match)", e.Client, e.Server)
}

// Hello is the client's opening frame.
type Hello struct {
	Magic   uint32
	Version Version
}

// Encode appends the Hello payload.
func (h Hello) Encode(b *Buffer) {
	b.Uint32(h.Magic)
	b.Uint32(h.Version.Major)
	b.Uint32(h.Version.Minor)
}

// DecodeHello reads a Hello payload.
func DecodeHello(c *Cursor) Hello {
	return Hello{
		Magic:   c.Uint32(),
		Version: Version{Major: c.Uint32(), Minor: c.Uint32()},
	}
}

// Server roles carried in the HelloOK role byte.
const (
	RolePrimary byte = 0 // accepts writes and replication subscribers
	RoleReplica byte = 1 // read-only: refuses writes and explicit transactions
)

// HelloOK is the server's handshake acceptance.
type HelloOK struct {
	Version Version // the negotiated version the connection will speak
	Banner  string  // a human-readable server identification
	Role    byte    // RolePrimary or RoleReplica
}

// Encode appends the HelloOK payload.
func (h HelloOK) Encode(b *Buffer) {
	b.Uint32(h.Version.Major)
	b.Uint32(h.Version.Minor)
	b.String(h.Banner)
	b.writeByte(h.Role)
}

// DecodeHelloOK reads a HelloOK payload.
func DecodeHelloOK(c *Cursor) HelloOK {
	return HelloOK{
		Version: Version{Major: c.Uint32(), Minor: c.Uint32()},
		Banner:  c.String(),
		Role:    c.readByte(),
	}
}

// Subscribe asks the server to stream its WAL from StartLSN (a byte offset
// into the log; 0 streams the full history). The server refuses an LSN past
// its durable frontier or a log it cannot re-read.
type Subscribe struct {
	StartLSN uint64
}

// Encode appends the Subscribe payload.
func (s Subscribe) Encode(b *Buffer) { b.Uint64(s.StartLSN) }

// DecodeSubscribe reads a Subscribe payload.
func DecodeSubscribe(c *Cursor) Subscribe {
	return Subscribe{StartLSN: c.Uint64()}
}

// WALSegment is one pushed chunk of the primary's log: the raw CRC-framed
// bytes beginning at StartLSN. Segments are contiguous but need not align
// with record frames — the subscriber reassembles the byte stream and
// decodes records out of it, so a log record larger than the wire frame cap
// simply spans segments.
type WALSegment struct {
	StartLSN uint64
	Data     []byte
}

// Encode appends the WALSegment payload.
func (s WALSegment) Encode(b *Buffer) {
	b.Uint64(s.StartLSN)
	b.writeBytes(s.Data)
}

// DecodeWALSegment reads a WALSegment payload.
func DecodeWALSegment(c *Cursor) WALSegment {
	return WALSegment{StartLSN: c.Uint64(), Data: c.readBytes()}
}

// ReplicaStatus is the subscriber's progress acknowledgement: every commit
// whose record ends at or below AppliedLSN is applied and visible to the
// replica's readers.
type ReplicaStatus struct {
	AppliedLSN uint64
}

// Encode appends the ReplicaStatus payload.
func (s ReplicaStatus) Encode(b *Buffer) { b.Uint64(s.AppliedLSN) }

// DecodeReplicaStatus reads a ReplicaStatus payload.
func DecodeReplicaStatus(c *Cursor) ReplicaStatus {
	return ReplicaStatus{AppliedLSN: c.Uint64()}
}

// EncodeVersionError renders a handshake refusal as a MsgErr payload: the
// error text (so a pre-v2 reader still gets a legible message) followed by a
// structured tail — client major/minor, server major/minor — that handshake-aware
// clients decode back into a typed *VersionError.
func EncodeVersionError(e *VersionError) []byte {
	var b Buffer
	b.String(e.Error())
	b.Uint32(e.Client.Major)
	b.Uint32(e.Client.Minor)
	b.Uint32(e.Server.Major)
	b.Uint32(e.Server.Minor)
	return b.B
}

// DecodeVersionTail tries to read the structured version tail from an error
// payload cursor (positioned after the error text). It returns nil when the
// tail is absent — an ordinary error frame.
func DecodeVersionTail(c *Cursor) *VersionError {
	if c.Err() != nil || c.remaining() < 16 {
		return nil
	}
	return &VersionError{
		Client: Version{Major: c.Uint32(), Minor: c.Uint32()},
		Server: Version{Major: c.Uint32(), Minor: c.Uint32()},
	}
}

// MaxFrame bounds one frame's payload so a corrupt or hostile length prefix
// cannot make either end allocate unbounded memory.
const MaxFrame = 16 << 20

// WriteFrame writes one frame: length prefix, type byte, payload.
func WriteFrame(w io.Writer, msgType byte, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", len(payload)+1, MaxFrame)
	}
	var head [5]byte
	binary.BigEndian.PutUint32(head[:4], uint32(len(payload)+1))
	head[4] = msgType
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame and returns its type and payload.
func ReadFrame(r io.Reader) (msgType byte, payload []byte, err error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(head[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("wire: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte limit", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// --- payload building --------------------------------------------------------

// Buffer accumulates a message payload.
type Buffer struct {
	B []byte
}

// Uint32 appends a fixed-width 32-bit integer.
func (b *Buffer) Uint32(v uint32) { b.B = binary.BigEndian.AppendUint32(b.B, v) }

// Uint64 appends a fixed-width 64-bit integer.
func (b *Buffer) Uint64(v uint64) { b.B = binary.BigEndian.AppendUint64(b.B, v) }

// writeByte appends one byte.
func (b *Buffer) writeByte(v byte) { b.B = append(b.B, v) }

// Bool appends a boolean as one byte.
func (b *Buffer) Bool(v bool) {
	if v {
		b.B = append(b.B, 1)
	} else {
		b.B = append(b.B, 0)
	}
}

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.Uint32(uint32(len(s)))
	b.B = append(b.B, s...)
}

// writeBytes appends a length-prefixed byte blob.
func (b *Buffer) writeBytes(p []byte) {
	b.Uint32(uint32(len(p)))
	b.B = append(b.B, p...)
}

// Strings appends a counted list of strings.
func (b *Buffer) Strings(ss []string) {
	b.Uint32(uint32(len(ss)))
	for _, s := range ss {
		b.String(s)
	}
}

// Tuple appends a row in the record encoding (types.EncodeTuple).
func (b *Buffer) Tuple(t types.Tuple) { b.B = types.EncodeTuple(b.B, t) }

// --- payload reading ---------------------------------------------------------

// Cursor reads a message payload sequentially. The first decoding error
// sticks: every later read reports it, so call sites can decode a whole
// message and check the error once.
type Cursor struct {
	b   []byte
	pos int
	err error
}

// NewCursor wraps a payload for reading.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Err returns the first decoding error, if any.
func (c *Cursor) Err() error { return c.err }

// remaining returns how many undecoded bytes are left. Payloads are allowed
// to carry more than a decoder reads (minor versions append fields), so this
// is for optional tails, not validation.
func (c *Cursor) remaining() int {
	if c.err != nil {
		return 0
	}
	return len(c.b) - c.pos
}

func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.pos+n > len(c.b) {
		c.err = fmt.Errorf("wire: truncated message (want %d bytes at offset %d of %d)", n, c.pos, len(c.b))
		return nil
	}
	out := c.b[c.pos : c.pos+n]
	c.pos += n
	return out
}

// Uint32 reads a fixed-width 32-bit integer.
func (c *Cursor) Uint32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a fixed-width 64-bit integer.
func (c *Cursor) Uint64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// readByte reads one byte.
func (c *Cursor) readByte() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean.
func (c *Cursor) Bool() bool { return c.readByte() != 0 }

// String reads a length-prefixed string.
func (c *Cursor) String() string {
	n := c.Uint32()
	if c.err != nil {
		return ""
	}
	b := c.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// readBytes reads a length-prefixed byte blob. The returned slice aliases the
// payload; callers that outlive the frame must copy it.
func (c *Cursor) readBytes() []byte {
	n := c.Uint32()
	if c.err != nil {
		return nil
	}
	return c.take(int(n))
}

// Strings reads a counted list of strings.
func (c *Cursor) Strings() []string {
	n := c.Uint32()
	if c.err != nil {
		return nil
	}
	out := make([]string, 0, min(int(n), 1024))
	for i := 0; i < int(n); i++ {
		out = append(out, c.String())
		if c.err != nil {
			return nil
		}
	}
	return out
}

// Tuple reads a row in the record encoding (types.ReadTuple).
func (c *Cursor) Tuple() types.Tuple {
	if c.err != nil {
		return nil
	}
	t, n, err := types.ReadTuple(c.b[c.pos:])
	if err != nil {
		c.err = fmt.Errorf("wire: tuple at offset %d: %w", c.pos, err)
		return nil
	}
	c.pos += n
	return t
}
