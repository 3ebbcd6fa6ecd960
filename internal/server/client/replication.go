// Client side of WAL streaming. Subscribe flips a connection out of
// request/response for good: the server pushes WALSegment frames from the
// requested LSN onward and the subscriber sends back ReplicaStatus acks on
// the same socket. The replica applier (internal/server/replica.go) is the
// real consumer; this file is just the wire choreography.
package client

import (
	"fmt"

	"repro/internal/server/wire"
)

// WALStream is a live replication feed over a dedicated connection. It is
// not safe for concurrent use except that Ack may be called from a
// different goroutine than Next (writes and reads use disjoint halves of
// the socket).
type WALStream struct {
	conn *Conn
}

// Subscribe asks the server to stream its WAL from startLSN (a byte offset
// into the log; 0 means the whole history). The connection belongs to the
// stream afterwards and cannot go back to queries — Close the stream when
// done. A refusal (LSN past the durable frontier, no file-backed WAL,
// subscribing to a replica) surfaces as an *Error from the first Next call.
func (c *Conn) Subscribe(startLSN uint64) (*WALStream, error) {
	if c.closed {
		return nil, fmt.Errorf("client: connection is closed")
	}
	var b wire.Buffer
	wire.Subscribe{StartLSN: startLSN}.Encode(&b)
	if err := wire.WriteFrame(c.w, wire.MsgSubscribe, b.B); err != nil {
		c.broken = true
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		c.broken = true
		return nil, err
	}
	// The connection is a one-way street now; keep the pool and ordinary
	// request helpers away from it.
	c.broken = true
	return &WALStream{conn: c}, nil
}

// Next blocks until the server pushes the next WAL segment. It returns the
// segment's start LSN and raw log bytes; segments are contiguous, so a gap
// between one segment's end and the next one's StartLSN means the stream is
// corrupt. Server refusals and protocol violations come back as errors.
func (ws *WALStream) Next() (wire.WALSegment, error) {
	c := ws.conn
	msgType, payload, err := wire.ReadFrame(c.r)
	if err != nil {
		return wire.WALSegment{}, err
	}
	cur := wire.NewCursor(payload)
	switch msgType {
	case wire.MsgWALSegment:
		seg := wire.DecodeWALSegment(cur)
		if err := cur.Err(); err != nil {
			return wire.WALSegment{}, err
		}
		return seg, nil
	case wire.MsgErr:
		return wire.WALSegment{}, errFromCursor(cur)
	default:
		return wire.WALSegment{}, fmt.Errorf("client: unexpected 0x%02x frame on a replication stream", msgType)
	}
}

// Ack reports the LSN the replica has durably applied through. The primary
// exposes it in its stats; it never blocks the stream, so acking is a
// courtesy with no flow-control teeth.
func (ws *WALStream) Ack(appliedLSN uint64) error {
	var b wire.Buffer
	wire.ReplicaStatus{AppliedLSN: appliedLSN}.Encode(&b)
	if err := wire.WriteFrame(ws.conn.w, wire.MsgReplicaStatus, b.B); err != nil {
		return err
	}
	return ws.conn.w.Flush()
}

// Close tears the stream down by closing the underlying connection.
func (ws *WALStream) Close() error {
	return ws.conn.Close()
}
