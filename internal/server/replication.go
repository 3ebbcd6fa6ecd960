// WAL streaming: the server side of physical replication. A client
// sends Subscribe with a start LSN and the connection stops being
// request/response: the server pushes WALSegment frames — raw bytes of its
// CRC-framed log, chunked without regard to record boundaries — as fast as
// the durable frontier advances, and reads ReplicaStatus acknowledgements
// off the same connection. Only durable bytes are ever streamed, so a
// replica can never apply state the primary could still lose to a crash.
package server

import (
	"fmt"

	"repro/internal/server/wire"
)

// walSegmentChunk bounds one pushed WALSegment's byte payload. It is far
// below wire.MaxFrame on purpose: segments need no relation to record
// frames (the subscriber reassembles the byte stream), so a log record
// bigger than the wire cap simply spans several segments.
const walSegmentChunk = 256 << 10

// handleSubscribe validates a Subscribe frame and, when acceptable, runs the
// push stream until the subscriber disconnects or the server closes. It
// reports whether the connection entered streaming mode; on refusal an Err
// frame has been written and the ordinary message loop continues.
func (c *conn) handleSubscribe(payload []byte) (streamed bool) {
	refuse := func(err error) bool {
		respType, resp := errFrame(err)
		if werr := wire.WriteFrame(c.w, respType, resp); werr == nil {
			c.w.Flush()
		}
		return false
	}
	cur := wire.NewCursor(payload)
	sub := wire.DecodeSubscribe(cur)
	if err := cur.Err(); err != nil {
		return refuse(err)
	}
	if c.srv.readOnly.Load() {
		return refuse(fmt.Errorf("server: cannot subscribe to a replica; stream from the primary"))
	}
	wal := c.srv.db.Transactions().WAL()
	if !wal.FileBacked() {
		return refuse(fmt.Errorf("server: this server has no file-backed WAL to stream (start it with -wal)"))
	}
	if durable := wal.DurableLSN(); sub.StartLSN > uint64(durable) {
		return refuse(fmt.Errorf("server: subscribe LSN %d is past the durable frontier %d", sub.StartLSN, durable))
	}
	c.streamWAL(int64(sub.StartLSN))
	return true
}

// streamWAL pushes log bytes from pos onward until the connection dies. The
// subscriber's ReplicaStatus acks are drained by a side goroutine — the
// stream itself never blocks on them — and any other frame from the
// subscriber is a protocol error that ends the stream.
func (c *conn) streamWAL(pos int64) {
	s := c.srv
	wal := s.db.Transactions().WAL()
	tail, err := wal.OpenTail()
	if err != nil {
		respType, resp := errFrame(err)
		if werr := wire.WriteFrame(c.w, respType, resp); werr == nil {
			c.w.Flush()
		}
		return
	}
	defer tail.Close()
	s.subscribers.Add(1)
	defer s.subscribers.Add(-1)

	// The ack reader owns the connection's read half for the rest of its
	// life. It exits — and wakes the push loop through readerDone — when the
	// subscriber disconnects, which is also how Server.Close (closing the
	// net.Conn) tears a stream down.
	readerDone := make(chan error, 1)
	go func() {
		for {
			msgType, payload, err := wire.ReadFrame(c.r)
			if err != nil {
				readerDone <- err
				return
			}
			switch msgType {
			case wire.MsgReplicaStatus:
				st := wire.DecodeReplicaStatus(wire.NewCursor(payload))
				for {
					prev := s.replicaAckLSN.Load()
					if st.AppliedLSN <= prev || s.replicaAckLSN.CompareAndSwap(prev, st.AppliedLSN) {
						break
					}
				}
			default:
				readerDone <- fmt.Errorf("server: unexpected 0x%02x frame on a replication stream", msgType)
				return
			}
		}
	}()

	buf := make([]byte, walSegmentChunk)
	for {
		select {
		case <-readerDone:
			return
		default:
		}
		n, err := tail.ReadDurable(buf, pos)
		if err != nil {
			return
		}
		if n == 0 {
			// Caught up: sleep until the durable frontier moves. Re-check the
			// frontier after arming the notification — an advance between the
			// read and DurableNotify would otherwise be slept through.
			notify := wal.DurableNotify()
			if wal.DurableLSN() > pos {
				continue
			}
			select {
			case <-notify:
			case <-readerDone:
				return
			}
			continue
		}
		var b wire.Buffer
		b.Uint64(uint64(pos))
		b.Bytes(buf[:n])
		if err := wire.WriteFrame(c.w, wire.MsgWALSegment, b.B); err != nil {
			return
		}
		if err := c.w.Flush(); err != nil {
			return
		}
		pos += int64(n)
		s.walSegments.Add(1)
		s.walBytes.Add(uint64(n))
	}
}
