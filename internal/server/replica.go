// Replica applier: the consumer end of WAL streaming. A Replica dials the
// primary, subscribes from its resume point, reassembles the pushed
// segments into the primary's byte-exact log, and continuously replays
// committed transactions into a local engine. The local engine serves
// read-only sessions through the ordinary server path; MVCC snapshots make
// each applied transaction visible atomically, so a reader on the replica
// sees exactly the prefix of primary history the applier has reached.
//
// Progress is tracked as two LSNs. applied is the processed-through
// frontier: every commit record ending at or below it has been applied, so
// it is the number the read-only server stamps on responses, which a reader
// compares with the primary's durable frontier. resume is the safe
// resubscribe point — the applied frontier rolled back to the oldest
// still-open transaction's BEGIN, because an open transaction's buffered
// records live only in memory and must be re-streamed after a reconnect.
// Re-received commits are skipped by their end offset, which is what makes
// killing and restarting the stream (or the whole replica process, which
// simply re-streams from LSN 0 into a fresh engine) idempotent.
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
	db   *engine.Database
	addr string

	mu      sync.Mutex
	stream  *client.WALStream
	stopped bool
	done    chan struct{}

	// applied is the processed-through LSN; resume the safe resubscribe
	// point. appliedCommitEnd guards against re-applying a commit that a
	// resubscribe re-delivers; it only ever grows.
	applied          atomic.Uint64
	resume           atomic.Uint64
	appliedCommitEnd int64

	txnsApplied  atomic.Uint64
	txnsSkipped  atomic.Uint64
	recsSeen     atomic.Uint64
	connects     atomic.Uint64
	streamErrors atomic.Uint64
	lastErr      atomic.Value
}

// ReplicaStats is a snapshot of the applier's progress.
type ReplicaStats struct {
	// AppliedLSN is the processed-through log position; ResumeLSN is where
	// the next (re)subscribe would start.
	AppliedLSN uint64
	ResumeLSN  uint64
	// TxnsApplied counts primary transactions replayed locally; TxnsSkipped
	// counts commits a resubscribe re-delivered that were already applied.
	TxnsApplied uint64
	TxnsSkipped uint64
	// RecordsSeen counts log records scanned (including those of
	// transactions still open on the primary).
	RecordsSeen uint64
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
	return &Replica{db: db, addr: primaryAddr, done: make(chan struct{})}
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
		ResumeLSN:    r.resume.Load(),
		TxnsApplied:  r.txnsApplied.Load(),
		TxnsSkipped:  r.txnsSkipped.Load(),
		RecordsSeen:  r.recsSeen.Load(),
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
// resubscribe from the resume point. Backoff doubles from 50ms to 1s and
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
// record was processed (for backoff reset) and why the stream ended.
func (r *Replica) streamOnce() (progressed bool, err error) {
	conn, err := client.Dial(r.addr)
	if err != nil {
		return false, err
	}
	start := r.resume.Load()
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

	// pending buffers each open primary transaction's records; beginOff
	// remembers where its BEGIN frame started, the floor for resume.
	pending := map[uint64][]txn.Record{}
	beginOff := map[uint64]int64{}
	sc := txn.NewFrameScanner(&segmentReader{stream: ws, next: int64(start)}, int64(start))
	for {
		rec, startOff, end, err := sc.Next()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // a live stream has no clean end
			}
			return progressed, err
		}
		progressed = true
		r.recsSeen.Add(1)
		switch rec.Kind {
		case txn.RecordBegin:
			pending[rec.Txn] = nil
			beginOff[rec.Txn] = startOff
			r.advance(end, beginOff)
		case txn.RecordCommit:
			recs := pending[rec.Txn]
			delete(pending, rec.Txn)
			delete(beginOff, rec.Txn)
			if end <= r.appliedCommitEnd {
				r.txnsSkipped.Add(1) // re-delivered by a resubscribe
			} else {
				if len(recs) > 0 {
					if aerr := r.db.ApplyReplicated(recs); aerr != nil {
						return progressed, aerr
					}
				}
				r.appliedCommitEnd = end
				r.txnsApplied.Add(1)
			}
			r.advance(end, beginOff)
			ws.Ack(r.applied.Load())
		case txn.RecordAbort:
			delete(pending, rec.Txn)
			delete(beginOff, rec.Txn)
			r.advance(end, beginOff)
		case txn.RecordCheckpoint:
			// Checkpoints compress recovery for the primary; a replica's
			// state is already live, so the image is pure skip.
			r.advance(end, beginOff)
			ws.Ack(r.applied.Load())
		default:
			if _, ok := pending[rec.Txn]; !ok {
				// A record for a transaction whose BEGIN we never saw can
				// only be one the resume point already covers.
				r.advance(end, beginOff)
				continue
			}
			pending[rec.Txn] = append(pending[rec.Txn], rec)
			r.advance(end, beginOff)
		}
	}
}

// advance publishes the processed-through frontier (end) and recomputes the
// resume point: end itself when no transaction is open, else the oldest
// open transaction's BEGIN offset.
func (r *Replica) advance(end int64, beginOff map[uint64]int64) {
	for {
		prev := r.applied.Load()
		if uint64(end) <= prev || r.applied.CompareAndSwap(prev, uint64(end)) {
			break
		}
	}
	resume := end
	for _, off := range beginOff {
		if off < resume {
			resume = off
		}
	}
	r.resume.Store(uint64(resume))
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
