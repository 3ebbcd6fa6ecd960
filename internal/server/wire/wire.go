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
//	ExecBatch   -> Stmt.ExecBatch         -> Result  (array-bind in one round trip)
//	Begin / Commit / Rollback             -> Result
//	Ping        -> liveness check         -> OK      (pool health checks)
//
// A connection can instead become a replication stream: Subscribe carries a
// start LSN, the server pushes WALSegment frames (raw bytes of the primary's
// CRC-framed log) from there on, and the replica acknowledges progress with
// ReplicaStatus frames. Result, Cursor, Rows and OK frames end with the
// server's durable LSN — the lag signal fleet routing steers by.
//
// Framing: every message is one frame — a 4-byte big-endian payload length,
// then the payload, whose first byte is the message type. Integers are
// big-endian and fixed width; strings are a uint32 length followed by UTF-8
// bytes; values are a kind byte followed by the kind's fixed encoding.
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
	"math"

	"repro/internal/types"
)

// Message types, client to server.
const (
	MsgPrepare byte = 0x01 // sql string
	// 0x02 was v2's Bind; v3 retired it and the byte is never reused.
	MsgRun         byte = 0x03 // stmt id, all parameter values, max rows of the first batch
	MsgFetch       byte = 0x04 // cursor id, max rows
	MsgCloseStmt   byte = 0x05 // stmt id
	MsgCloseCursor byte = 0x06 // cursor id
	MsgBegin       byte = 0x07
	MsgCommit      byte = 0x08
	MsgRollback    byte = 0x09
	MsgHello       byte = 0x0a // magic, client version — must be the first frame
	MsgExecBatch   byte = 0x0b // stmt id, row count, parameter rows
	MsgPing        byte = 0x0c // liveness probe, answered with OK

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
// ends must speak the same major. Minors are informational — a higher minor
// may only append fields to existing payloads, which older decoders ignore.
type Version struct {
	Major uint32
	Minor uint32
}

// Current is the protocol version this tree speaks.
//
// v3.0 replaced v2's Bind/Execute pair with Run — bind, execute and the first
// row batch in one round trip — and folded every v2 minor's appended field
// (the Stmt returns-rows flag, the HelloOK role, the LSN tails) into the base
// payloads. A major bump leaves no older peer to interoperate with, so no
// behaviour keys off the negotiated minor.
var Current = Version{Major: 3, Minor: 0}

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
	if c.Err() != nil || c.Remaining() < 16 {
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

// writeValue appends one SQL value: a kind byte, then the kind's encoding.
func (b *Buffer) writeValue(v types.Value) {
	b.writeByte(byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindInt:
		b.Uint64(uint64(v.Int()))
	case types.KindFloat:
		b.Uint64(math.Float64bits(v.Float()))
	case types.KindString:
		b.String(v.Str())
	case types.KindBool:
		b.Bool(v.Bool())
	case types.KindDate:
		b.Uint64(uint64(v.Days()))
	}
}

// Tuple appends a counted list of values.
func (b *Buffer) Tuple(t types.Tuple) {
	b.Uint32(uint32(len(t)))
	for _, v := range t {
		b.writeValue(v)
	}
}

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

// Remaining returns how many undecoded bytes are left. Payloads are allowed
// to carry more than a decoder reads (minor versions append fields), so this
// is for optional tails, not validation.
func (c *Cursor) Remaining() int {
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

// readValue reads one SQL value.
func (c *Cursor) readValue() types.Value {
	kind := types.Kind(c.readByte())
	if c.err != nil {
		return types.Null()
	}
	switch kind {
	case types.KindNull:
		return types.Null()
	case types.KindInt:
		return types.NewInt(int64(c.Uint64()))
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(c.Uint64()))
	case types.KindString:
		return types.NewString(c.String())
	case types.KindBool:
		return types.NewBool(c.Bool())
	case types.KindDate:
		return types.NewDateFromDays(int64(c.Uint64()))
	default:
		c.err = fmt.Errorf("wire: unknown value kind %d", kind)
		return types.Null()
	}
}

// Tuple reads a counted list of values.
func (c *Cursor) Tuple() types.Tuple {
	n := c.Uint32()
	if c.err != nil {
		return nil
	}
	out := make(types.Tuple, 0, min(int(n), 1024))
	for i := 0; i < int(n); i++ {
		out = append(out, c.readValue())
		if c.err != nil {
			return nil
		}
	}
	return out
}
