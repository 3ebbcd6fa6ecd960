// Replica applier: the consumer end of WAL streaming. A Replica dials the
// primary, subscribes from its applied frontier, reassembles the pushed
// segments into the primary's byte-exact log, and feeds every record to the
// local engine's log applier (txn.Applier) — the same code crash recovery
// replays a log tail with, under the primary's transaction ids. The local
// engine serves read-only sessions through the ordinary server path: a
// primary transaction is adopted as a live transaction at its BEGIN and
// becomes visible, whole, when its COMMIT applies, so a reader on the replica
// sees exactly a prefix of the primary's commits.
//
// Progress is one LSN, the applied frontier: every record ending at or below
// it has been applied. The read-only server stamps it on responses, which a
// reader compares with the primary's durable frontier, and a resubscribe
// starts there. The applier outlives the stream, so a transaction still open
// on the primary stays adopted across a reconnect and its remaining records
// apply on top of the ones already applied; nothing is applied twice and
// nothing is buffered. A restarted replica process starts a fresh engine and
// re-streams from LSN 0.
package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/server/client"
	"repro/internal/txn"
)

// Replica streams a primary's WAL into a local engine.
type Replica struct {
	addr    string
	applier *txn.Applier

	mu      sync.Mutex
	stream  *client.WALStream
	stopped bool
	done    chan struct{}

	// applied is the applied frontier; only the streaming loop moves it.
	applied atomic.Uint64

	txnsApplied  atomic.Uint64
	connects     atomic.Uint64
	streamErrors atomic.Uint64
	lastErr      atomic.Value
}

// ReplicaStats is a snapshot of the applier's progress.
type ReplicaStats struct {
	// AppliedLSN is the applied frontier, where the next (re)subscribe starts.
	AppliedLSN uint64
	// TxnsApplied counts primary transactions committed locally. TxnsSkipped
	// is always 0: a resubscribe starts at the applied frontier, so no commit
	// is delivered twice. It stays for the benchmark's counter.
	TxnsApplied uint64
	TxnsSkipped uint64
	// Connects counts successful subscriptions; StreamErrors counts streams
	// that ended in an error (each is followed by a backoff and reconnect).
	Connects     uint64
	StreamErrors uint64
	// LastError is the most recent stream error's text, if any.
	LastError string
}

// NewReplica creates an applier that will stream from the primary at addr
// into db. The database should be fresh (the applier replays from LSN 0) and
// must not take local writes — run the serving Server with SetReadOnly.
func NewReplica(db *engine.Database, primaryAddr string) *Replica {
	return &Replica{addr: primaryAddr, applier: db.Follow(), done: make(chan struct{})}
}

// Start launches the streaming loop. It returns immediately; the replica
// connects (and reconnects, with backoff) in the background until Stop.
func (r *Replica) Start() {
	go r.run()
}

// Stop tears the stream down and waits for the loop to exit.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.stopped = true
	if r.stream != nil {
		r.stream.Close() // unblocks the applier's blocking Next
	}
	r.mu.Unlock()
	<-r.done
}

// AppliedLSN returns the processed-through log position: every commit at or
// below it is visible to local readers. Feed it to Server.SetLSNSource so
// the read-only server stamps it on responses.
func (r *Replica) AppliedLSN() uint64 { return r.applied.Load() }

// Stats returns a snapshot of the applier's counters.
func (r *Replica) Stats() ReplicaStats {
	st := ReplicaStats{
		AppliedLSN:   r.applied.Load(),
		TxnsApplied:  r.txnsApplied.Load(),
		Connects:     r.connects.Load(),
		StreamErrors: r.streamErrors.Load(),
	}
	if v := r.lastErr.Load(); v != nil {
		st.LastError = v.(error).Error()
	}
	return st
}

func (r *Replica) stopping() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

func (r *Replica) setStream(ws *client.WALStream) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return false
	}
	r.stream = ws
	return true
}

func (r *Replica) clearStream() {
	r.mu.Lock()
	if r.stream != nil {
		r.stream.Close()
		r.stream = nil
	}
	r.mu.Unlock()
}

// run is the reconnect loop: stream until the connection dies, back off,
// resubscribe from the applied frontier. Backoff doubles from 50ms to 1s and
// resets whenever a stream made progress.
func (r *Replica) run() {
	defer close(r.done)
	const backoffMin, backoffMax = 50 * time.Millisecond, time.Second
	backoff := backoffMin
	for !r.stopping() {
		progressed, err := r.streamOnce()
		if r.stopping() {
			return
		}
		if err != nil {
			r.streamErrors.Add(1)
			r.lastErr.Store(err)
		}
		if progressed {
			backoff = backoffMin
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// streamOnce runs one subscription to exhaustion. It reports whether any
// record was applied (for backoff reset) and why the stream ended. A record
// the applier refuses ends the stream before the frontier passes it, so the
// next subscription delivers it again.
func (r *Replica) streamOnce() (progressed bool, err error) {
	conn, err := client.Dial(r.addr)
	if err != nil {
		return false, err
	}
	start := r.applied.Load()
	ws, err := conn.Subscribe(start)
	if err != nil {
		conn.Close()
		return false, err
	}
	if !r.setStream(ws) {
		ws.Close()
		return false, nil
	}
	defer r.clearStream()
	r.connects.Add(1)

	sc := txn.NewFrameScanner(&segmentReader{stream: ws, next: int64(start)}, int64(start))
	for {
		rec, end, err := sc.Next()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // a live stream has no clean end
			}
			return progressed, err
		}
		applied, err := r.applier.Apply(rec)
		if err != nil {
			return progressed, err
		}
		progressed = true
		r.applied.Store(uint64(end))
		switch {
		case rec.Kind == txn.RecordCommit && applied:
			r.txnsApplied.Add(1)
			ws.Ack(uint64(end))
		case rec.Kind == txn.RecordCheckpoint:
			ws.Ack(uint64(end))
		}
	}
}

// segmentReader turns the pushed WALSegment frames back into the primary's
// contiguous log byte stream, verifying that each segment starts exactly
// where the previous one ended.
type segmentReader struct {
	stream *client.WALStream
	next   int64
	buf    []byte
}

func (sr *segmentReader) Read(p []byte) (int, error) {
	for len(sr.buf) == 0 {
		seg, err := sr.stream.Next()
		if err != nil {
			return 0, err
		}
		if int64(seg.StartLSN) != sr.next {
			return 0, fmt.Errorf("server: wal stream gap: got segment at %d, expected %d", seg.StartLSN, sr.next)
		}
		sr.buf = seg.Data
		sr.next += int64(len(seg.Data))
	}
	n := copy(p, sr.buf)
	sr.buf = sr.buf[n:]
	return n, nil
}
