package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/types"
)

// FuzzFrame round-trips the frame layer and the value codec over arbitrary
// bytes. Two properties must hold for any input:
//
//  1. A frame that reads back cleanly re-encodes to the identical byte
//     stream (framing is canonical), and re-reads to the same type and
//     payload.
//  2. If the payload decodes as a value tuple, one encode normalises it:
//     encoding the decoded tuple and decoding/encoding again must produce
//     identical bytes (the codec reaches a fixed point after one pass, so
//     peers never disagree about a re-encoded message).
func FuzzFrame(f *testing.F) {
	// A well-formed Prepare frame.
	f.Add([]byte("\x00\x00\x00\x09\x01SELECT 1"))
	// A well-formed Hello frame: magic "WOW!", version 5.0.
	f.Add([]byte("\x00\x00\x00\x0d\x0aWOW!\x00\x00\x00\x05\x00\x00\x00\x00"))
	// Truncated length prefix, hostile length, zero length.
	f.Add([]byte("\x00\x00"))
	f.Add([]byte("\xff\xff\xff\xff"))
	f.Add([]byte("\x00\x00\x00\x00"))
	// A Run frame whose tuple claims 2^32-1 values and carries two: the
	// decoder must refuse the count, not allocate for it.
	var hostile Buffer
	hostile.Uint32(1)
	hostile.B = binary.AppendUvarint(hostile.B, 1<<32-1)
	hostile.B = append(hostile.B, 0, 0) // two NULLs
	hostile.Uint32(20)
	hostile.Bool(false)
	var frame bytes.Buffer
	if err := WriteFrame(&frame, MsgRun, hostile.B); err != nil {
		f.Fatal(err)
	}
	f.Add(frame.Bytes())

	// A Run frame — stmt 1, parameters (int 7, NULL, string "x"), first
	// batch of 20 rows, one-batch flag clear — and the Cursor frame that
	// answers it with the whole result inline: cursor id 0, one column, done,
	// one row, the LSN tail. Tuples are log records (types.EncodeTuple).
	var run Buffer
	run.Uint32(1)
	run.Tuple(types.Tuple{types.NewInt(7), types.Null(), types.NewString("x")})
	run.Uint32(20)
	run.Bool(false)
	var runFrame bytes.Buffer
	if err := WriteFrame(&runFrame, MsgRun, run.B); err != nil {
		f.Fatal(err)
	}
	f.Add(runFrame.Bytes())
	var cursor Buffer
	cursor.Uint32(0)
	cursor.Strings([]string{"id"})
	cursor.Bool(true)
	cursor.Uint32(1)
	cursor.Tuple(types.Tuple{types.NewInt(7)})
	cursor.Uint64(4096)
	var cursorFrame bytes.Buffer
	if err := WriteFrame(&cursorFrame, MsgCursor, cursor.B); err != nil {
		f.Fatal(err)
	}
	f.Add(cursorFrame.Bytes())

	// Replication frames. A Subscribe at the hostile maximum LSN, a
	// WALSegment whose declared body runs past the frame, a duplicate pair
	// of Subscribe frames back to back, and a well-formed ReplicaStatus.
	var sub Buffer
	Subscribe{StartLSN: ^uint64(0)}.Encode(&sub)
	var subFrame bytes.Buffer
	if err := WriteFrame(&subFrame, MsgSubscribe, sub.B); err != nil {
		f.Fatal(err)
	}
	f.Add(subFrame.Bytes())
	f.Add(append(subFrame.Bytes(), subFrame.Bytes()...))
	var seg Buffer
	seg.Uint64(4096)
	seg.Uint32(100) // declares 100 body bytes...
	var segFrame bytes.Buffer
	if err := WriteFrame(&segFrame, MsgWALSegment, append(seg.B, "short"...)); err != nil { // ...carries 5
		f.Fatal(err)
	}
	f.Add(segFrame.Bytes())
	var okSeg Buffer
	WALSegment{StartLSN: 8, Data: []byte("\x03\x00\x00\x00\x00rec")}.Encode(&okSeg)
	var okSegFrame bytes.Buffer
	if err := WriteFrame(&okSegFrame, MsgWALSegment, okSeg.B); err != nil {
		f.Fatal(err)
	}
	f.Add(okSegFrame.Bytes())
	var status Buffer
	ReplicaStatus{AppliedLSN: 1 << 40}.Encode(&status)
	var statusFrame bytes.Buffer
	if err := WriteFrame(&statusFrame, MsgReplicaStatus, status.B); err != nil {
		f.Fatal(err)
	}
	f.Add(statusFrame.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		msgType, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, msgType, payload); err != nil {
			t.Fatalf("a frame that read cleanly failed to re-encode: %v", err)
		}
		if want := data[:out.Len()]; !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("re-encoded frame differs from the wire bytes:\n got %x\nwant %x", out.Bytes(), want)
		}
		msgType2, payload2, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-reading a re-encoded frame failed: %v", err)
		}
		if msgType2 != msgType || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame round trip changed the message: type 0x%02x->0x%02x", msgType, msgType2)
		}

		// Replication messages must decode without panicking on any payload,
		// and a payload that decodes cleanly must re-encode canonically —
		// the replica applier trusts these structs to carry exactly what the
		// wire said.
		switch msgType {
		case MsgSubscribe:
			c := NewCursor(payload)
			sub := DecodeSubscribe(c)
			if c.Err() == nil && c.remaining() == 0 {
				var re Buffer
				sub.Encode(&re)
				if !bytes.Equal(re.B, payload) {
					t.Fatalf("Subscribe re-encode differs:\n got %x\nwant %x", re.B, payload)
				}
			}
		case MsgReplicaStatus:
			c := NewCursor(payload)
			st := DecodeReplicaStatus(c)
			if c.Err() == nil && c.remaining() == 0 {
				var re Buffer
				st.Encode(&re)
				if !bytes.Equal(re.B, payload) {
					t.Fatalf("ReplicaStatus re-encode differs:\n got %x\nwant %x", re.B, payload)
				}
			}
		case MsgWALSegment:
			c := NewCursor(payload)
			seg := DecodeWALSegment(c)
			if c.Err() == nil && c.remaining() == 0 {
				var re Buffer
				seg.Encode(&re)
				if !bytes.Equal(re.B, payload) {
					t.Fatalf("WALSegment re-encode differs:\n got %x\nwant %x", re.B, payload)
				}
				if len(seg.Data) > len(payload) {
					t.Fatalf("WALSegment decoded %d body bytes out of a %d-byte payload", len(seg.Data), len(payload))
				}
			}
		}

		// Value-codec fixed point: if the payload parses as a tuple, one
		// encode normalises it.
		c := NewCursor(payload)
		tuple := c.Tuple()
		if c.Err() != nil {
			return
		}
		var enc1 Buffer
		enc1.Tuple(tuple)
		c2 := NewCursor(enc1.B)
		tuple2 := c2.Tuple()
		if c2.Err() != nil {
			t.Fatalf("encoded tuple failed to decode: %v", c2.Err())
		}
		var enc2 Buffer
		enc2.Tuple(tuple2)
		if !bytes.Equal(enc1.B, enc2.B) {
			t.Fatalf("tuple codec has no fixed point:\nfirst  %x\nsecond %x", enc1.B, enc2.B)
		}
	})
}
