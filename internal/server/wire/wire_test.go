package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello")
	if err := WriteFrame(&buf, MsgPrepare, payload); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgPrepare || string(got) != "hello" {
		t.Fatalf("got type 0x%02x payload %q", msgType, got)
	}
}

func TestFrameRejectsOversizedLength(t *testing.T) {
	// A hostile length prefix must be rejected before any allocation.
	head := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(head)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want a frame-limit error", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := types.Tuple{
		types.Null(),
		types.NewInt(-42),
		types.NewFloat(3.25),
		types.NewString("naïve — ünïcode"),
		types.NewBool(true),
		types.NewDate(1983, 5, 21),
	}
	var b Buffer
	b.Tuple(vals)
	got := NewCursor(b.B).Tuple()
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if !vals[i].Equal(got[i]) && !(vals[i].IsNull() && got[i].IsNull()) {
			t.Fatalf("value %d: sent %v, got %v", i, vals[i], got[i])
		}
		if vals[i].Kind() != got[i].Kind() {
			t.Fatalf("value %d: kind %s became %s", i, vals[i].Kind(), got[i].Kind())
		}
	}
}

func TestCursorTruncationSticks(t *testing.T) {
	var b Buffer
	b.Uint32(9999) // claims a 9999-byte string that is not there
	c := NewCursor(b.B)
	if s := c.String(); s != "" {
		t.Fatalf("truncated string decoded as %q", s)
	}
	if c.Err() == nil {
		t.Fatal("want a truncation error")
	}
	// Every later read keeps reporting the first error.
	_ = c.Uint64()
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "truncated") {
		t.Fatalf("err = %v", c.Err())
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var b Buffer
	Hello{Magic: HelloMagic, Version: Version{Major: 3, Minor: 1}}.Encode(&b)
	h := DecodeHello(NewCursor(b.B))
	if h.Magic != HelloMagic || h.Version.Major != 3 || h.Version.Minor != 1 {
		t.Fatalf("decoded %+v", h)
	}
	// Minor additions append fields; a decoder must tolerate a longer payload.
	b.Uint32(777)
	h = DecodeHello(NewCursor(b.B))
	if h.Version.Major != 3 {
		t.Fatalf("decoder choked on an appended field: %+v", h)
	}
}

func TestHelloOKRoundTrip(t *testing.T) {
	var b Buffer
	HelloOK{Version: Current, Banner: "wowserver/test"}.Encode(&b)
	ok := DecodeHelloOK(NewCursor(b.B))
	if ok.Version != Current || ok.Banner != "wowserver/test" {
		t.Fatalf("decoded %+v", ok)
	}
}

func TestVersionErrorTail(t *testing.T) {
	ve := &VersionError{Client: Version{Major: 9}, Server: Current}
	payload := EncodeVersionError(ve)
	c := NewCursor(payload)
	msg := c.String()
	if !strings.Contains(msg, "v9.0") || !strings.Contains(msg, "v"+Current.String()) {
		t.Fatalf("refusal text %q", msg)
	}
	got := DecodeVersionTail(c)
	if got == nil || got.Client.Major != 9 || got.Server != Current {
		t.Fatalf("tail decoded as %+v", got)
	}
	// An ordinary error frame has no tail.
	var plain Buffer
	plain.String("some error")
	c = NewCursor(plain.B)
	_ = c.String()
	if tail := DecodeVersionTail(c); tail != nil {
		t.Fatalf("plain error grew a version tail: %+v", tail)
	}
}

func TestVersionCompatibility(t *testing.T) {
	if !Current.Compatible(Version{Major: Current.Major, Minor: 99}) {
		t.Fatal("same major must be compatible regardless of minor")
	}
	if Current.Compatible(Version{Major: Current.Major + 1}) {
		t.Fatal("different major must be incompatible")
	}
	if ve := (&VersionError{Server: Current}); !strings.Contains(ve.Error(), "no Hello") {
		t.Fatalf("zero-client refusal text %q should name the missing handshake", ve.Error())
	}
}

// TestOversizedFrameRefusedBeforeWrite: WriteFrame must reject a payload over
// the frame cap without emitting a single byte, so the statement fails but
// the stream stays in sync. (This is the client-side guard for a Run whose
// parameters outgrew one frame.)
func TestOversizedFrameRefusedBeforeWrite(t *testing.T) {
	var buf bytes.Buffer
	huge := make([]byte, MaxFrame)
	if err := WriteFrame(&buf, MsgRun, huge); err == nil {
		t.Fatal("oversized frame must be refused")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frame leaked %d bytes onto the stream", buf.Len())
	}
}

// TestRowsPayloadTruncation: a Rows payload cut off mid-row decodes into a
// sticky cursor error, never a partial batch.
func TestRowsPayloadTruncation(t *testing.T) {
	var b Buffer
	b.Bool(true) // done
	b.Uint32(2)  // two rows
	b.Tuple(types.Tuple{types.NewInt(1), types.NewString("whole row")})
	b.Tuple(types.Tuple{types.NewInt(2), types.NewString("cut off")})
	for cut := len(b.B) - 1; cut > 6; cut -= 3 {
		c := NewCursor(b.B[:cut])
		_ = c.Bool() // done
		n := c.Uint32()
		decoded := 0
		for i := uint32(0); i < n && c.Err() == nil; i++ {
			if c.Tuple(); c.Err() == nil {
				decoded++
			}
		}
		if c.Err() == nil && decoded == int(n) {
			t.Fatalf("truncation at %d of %d bytes decoded a complete batch", cut, len(b.B))
		}
	}
}
