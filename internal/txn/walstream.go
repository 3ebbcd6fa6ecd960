package txn

// WAL streaming: the replication substrate. An LSN is a byte offset into the
// log file — the same offsets scanLog reports, group commit waits on and a
// checkpoint image records. The primary exposes its durable frontier
// (DurableLSN, published only after the covering fsync) and lets a streamer
// read any byte range below it through an independent file handle
// (OpenTail). A replica replays the framed records out of that byte stream
// with FrameScanner. The log holds only transactions — checkpoint images
// live in their own file and never truncate it — so a replica subscribing
// from LSN 0 can rebuild the full database without snapshot shipping.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrCorruptStream reports a torn or CRC-invalid frame in a live WAL stream.
// Unlike recovery — where a torn tail is the expected signature of a crash —
// a subscriber only ever receives durable bytes, so corruption means the
// transport mangled them: the subscriber drops the connection and
// resubscribes rather than truncating anything.
var ErrCorruptStream = errors.New("txn: corrupt wal stream")

// DurableLSN returns the byte offset of the log below which every record is
// on stable storage. Only bytes below this frontier may be streamed to a
// replica: anything above could still be lost to a crash, and a replica must
// never apply state its primary can forget.
func (w *WAL) DurableLSN() int64 {
	if w == nil {
		return 0
	}
	return w.durableOff.Load()
}

// DurableNotify returns a channel that is closed the next time the durable
// frontier advances. Streamers wait on it instead of polling; after a wake
// they re-read DurableLSN and call DurableNotify again for a fresh channel.
func (w *WAL) DurableNotify() <-chan struct{} {
	w.notifyMu.Lock()
	defer w.notifyMu.Unlock()
	if w.notify == nil {
		w.notify = make(chan struct{})
	}
	return w.notify
}

// publishDurable advances the durable frontier to off (monotonically) after
// a successful fsync, and wakes every waiting streamer.
func (w *WAL) publishDurable(off int64) {
	advanced := false
	for {
		cur := w.durableOff.Load()
		if off <= cur {
			break
		}
		if w.durableOff.CompareAndSwap(cur, off) {
			advanced = true
			break
		}
	}
	if !advanced {
		return
	}
	w.notifyMu.Lock()
	if w.notify != nil {
		close(w.notify)
		w.notify = nil
	}
	w.notifyMu.Unlock()
}

// FileBacked reports whether the log lives in a re-readable file. Only a
// file-backed log can serve subscribers: streaming re-reads history through
// a second handle, which an in-memory or test medium cannot provide.
func (w *WAL) FileBacked() bool {
	return w != nil && w.file != nil
}

// WALTail is an independent read handle on the log file, serving byte ranges
// below the durable frontier to a streamer. It never touches the appender's
// handle or locks, so streaming a slow replica costs writers nothing.
type WALTail struct {
	f *os.File
	w *WAL
}

// OpenTail opens a read-only handle on the log file for streaming.
func (w *WAL) OpenTail() (*WALTail, error) {
	if !w.FileBacked() {
		return nil, errors.New("txn: wal is not file-backed; cannot stream it")
	}
	f, err := os.Open(w.path)
	if err != nil {
		return nil, fmt.Errorf("txn: open wal tail: %w", err)
	}
	return &WALTail{f: f, w: w}, nil
}

// ReadDurable fills buf with log bytes starting at offset pos, reading only
// below the durable frontier. It returns 0 (and no error) when pos has
// caught up to the frontier; the caller waits on DurableNotify and retries.
func (t *WALTail) ReadDurable(buf []byte, pos int64) (int, error) {
	durable := t.w.DurableLSN()
	if pos >= durable {
		return 0, nil
	}
	if max := durable - pos; int64(len(buf)) > max {
		buf = buf[:max]
	}
	n, err := t.f.ReadAt(buf, pos)
	if err != nil {
		return n, fmt.Errorf("txn: wal tail read at %d: %w", pos, err)
	}
	return n, nil
}

// Close releases the tail's file handle.
func (t *WALTail) Close() error {
	return t.f.Close()
}

// FrameScanner decodes framed records incrementally from a live byte stream
// whose first byte sits at log offset base. Segment boundaries need not
// align with frame boundaries: the scanner buffers across reads, so a
// streamer may chop the log anywhere (in particular, below the wire-protocol
// frame cap even when a single record exceeds it).
type FrameScanner struct {
	br  *bufio.Reader
	off int64
}

// NewFrameScanner scans framed records from r, which carries the log bytes
// starting at offset base.
func NewFrameScanner(r io.Reader, base int64) *FrameScanner {
	return &FrameScanner{br: bufio.NewReader(r), off: base}
}

// Next returns the next record together with the log offset its frame ends
// at. It returns io.EOF when the stream ends cleanly at a record boundary,
// and ErrCorruptStream for a torn or CRC-invalid frame — including a stream
// cut mid-frame.
func (s *FrameScanner) Next() (rec Record, end int64, err error) {
	body, n, err := readFrame(s.br)
	if err != nil {
		return Record{}, s.off, err
	}
	if body == nil {
		return Record{}, s.off, ErrCorruptStream
	}
	rec, derr := decodeRecord(body)
	if derr != nil {
		return Record{}, s.off, fmt.Errorf("%w: %v", ErrCorruptStream, derr)
	}
	s.off += int64(n)
	return rec, s.off, nil
}
