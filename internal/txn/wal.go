package txn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// RecordKind distinguishes write-ahead log records.
type RecordKind uint8

// Log record kinds.
const (
	RecordBegin RecordKind = iota + 1
	RecordCommit
	RecordAbort
	RecordInsert
	RecordDelete
	RecordUpdate
	RecordDDL
	// Kind 8 is retired: it framed a checkpoint image inside the log, before
	// checkpoints moved to their own file. Such a frame still decodes, as a
	// record of no transaction that nothing applies. Never reuse it.
)

func (k RecordKind) String() string {
	switch k {
	case RecordBegin:
		return "BEGIN"
	case RecordCommit:
		return "COMMIT"
	case RecordAbort:
		return "ABORT"
	case RecordInsert:
		return "INSERT"
	case RecordDelete:
		return "DELETE"
	case RecordUpdate:
		return "UPDATE"
	case RecordDDL:
		return "DDL"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
}

// Record is one logical log entry. DML records carry the affected table and
// the before/after images of the row; DDL records carry the statement text.
type Record struct {
	Kind  RecordKind
	Txn   uint64
	Table string
	// Old is the before image (DELETE, UPDATE).
	Old types.Tuple
	// New is the after image (INSERT, UPDATE).
	New types.Tuple
	// DDL is the statement text for RecordDDL.
	DDL string
}

// maxRecordBody bounds a decoded record frame. A length prefix larger than
// this is treated as corruption (a torn or bit-flipped tail), not as a real
// record — it keeps a flipped length byte from demanding a giant allocation.
const maxRecordBody = 1 << 28 // 256 MiB

// walBufferSize is how many framed bytes the log buffer holds before the
// append that fills it writes them to the medium.
const walBufferSize = 256 << 10

// WAL is an append-only logical log. Writes are serialised; Append is safe
// for concurrent use.
//
// Record wire format:
//
//	frame  := bodyLen:uvarint crc32:4 body
//	body   := kind:byte txn:uvarint tableLen:uvarint table
//	          oldLen:uvarint old newLen:uvarint new ddlLen:uvarint ddl
//
// where old/new are types.EncodeTuple images (length 0 means absent) and the
// CRC is IEEE CRC-32 over body. Bytes after the ddl field are ignored: the
// retired kind 8 carried an image there. The CRC is what lets recovery
// distinguish "the log ends in a torn frame from a crash mid-append"
// (truncate and continue) from a complete record. The log holds only
// transactions; a checkpoint image is one frame in its own file beside it
// (see checkpoint.go).
//
// An append frames its record in place at the end of one log buffer, its
// length and CRC filled in there, and returns; the buffer reaches the medium
// in one write when a group-commit leader flushes it before choosing its
// fsync target, when Sync or Close is called, or when an append leaves it
// holding walBufferSize bytes or more. So a transaction's records cost no
// write of their own: its commit's leader writes them together with every
// other record appended since the last flush.
//
// Durability is leader/follower group commit: AppendDurable appends the
// record and rides a shared fsync until the durable frontier passes the
// record's end offset — the first blocked committer becomes the leader,
// writes the buffer, flushes everything appended up to that point with one
// Sync, and wakes the cohort (see groupcommit.go). A failed write or fsync
// poisons the log permanently: after a failure nothing later can claim
// durability, so every subsequent append or commit fails fast with the
// original error.
type WAL struct {
	mu     sync.Mutex
	w      io.Writer
	file   *os.File // non-nil when backed by a file (enables Sync, Truncate)
	path   string   // file path when file-backed (the checkpoint file sits beside it)
	syncer interface{ Sync() error }
	failed error // sticky: a torn write or failed fsync poisons the log
	writes uint64
	off    int64 // byte offset the next frame lands at
	// buf holds the frames appended but not yet written to w: the log's
	// bytes [off-len(buf), off).
	buf []byte

	// pending counts appends in flight: committers that have entered
	// AppendDurable but whose record is not yet in the log (so not yet
	// below appendedOff). A sync leader that sees pending > 0 holds the
	// barrier open for up to groupCommitWindow so those records land under
	// its fsync. Committers already parked at the barrier are not counted —
	// their records are appended and waiting on them would waste the window.
	pending atomic.Int64

	// Durability frontiers, in byte offsets of the log (the LSN space group
	// commit, checkpoints and the streaming protocol all speak). appendedOff
	// mirrors off: it is stored under w.mu so the sync leader can load it
	// lock-free. durableOff is published only after the write and the fsync
	// covering those bytes succeeded — a commit is durable once it passes
	// the commit's end offset, and a replica may be streamed anything below
	// it and nothing above it (see walstream.go).
	appendedOff atomic.Int64
	durableOff  atomic.Int64

	// notify is closed and replaced each time durableOff advances, waking
	// WAL streamers blocked waiting for new durable bytes.
	notifyMu sync.Mutex
	notify   chan struct{}

	gc groupCommit
}

// OpenWALFile opens (creating or appending to) a log file at path.
func OpenWALFile(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txn: open wal %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		err = fmt.Errorf("txn: stat wal %s: %w", path, err)
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%w (and close failed: %v)", err, cerr)
		}
		return nil, err
	}
	w := &WAL{w: f, file: f, path: path, syncer: f, off: info.Size()}
	// engine.Open truncates a torn tail before reopening the log, so the
	// file size is the end of valid, fsynced history: the durable frontier
	// starts there.
	w.appendedOff.Store(info.Size())
	w.durableOff.Store(info.Size())
	w.gc.init()
	return w, nil
}

// Size returns the byte offset the next record will be appended at.
func (w *WAL) Size() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// WALStats counts log traffic and the group-commit economy.
type WALStats struct {
	// Writes is the number of records appended.
	Writes uint64
	// GroupCommitBatches is the number of fsyncs issued by durable appends;
	// each batch made every record appended up to that point durable.
	GroupCommitBatches uint64
	// FsyncsSaved is the number of durable appends that rode another
	// committer's fsync instead of issuing their own.
	FsyncsSaved uint64
}

// Stats returns the log's counters.
func (w *WAL) Stats() WALStats {
	if w == nil {
		return WALStats{}
	}
	batches, saved := w.gc.stats()
	w.mu.Lock()
	writes := w.writes
	w.mu.Unlock()
	return WALStats{Writes: writes, GroupCommitBatches: batches, FsyncsSaved: saved}
}

// appendFrame appends one framed record to dst: the body's length, its CRC,
// then the body, built in place, with old and new the images as stored
// (types.EncodeTuple records; nil is absent). It is the one framing of a
// log record: a transaction frames the payloads its table stored, and
// Append frames a Record's tuples once they are encoded (encodeRecord).
func appendFrame(dst []byte, kind RecordKind, txn uint64, table string, old, new []byte, ddl string) []byte {
	bodyLen := 1 + uvarintLen(txn) +
		uvarintLen(uint64(len(table))) + len(table) +
		uvarintLen(uint64(len(old))) + len(old) +
		uvarintLen(uint64(len(new))) + len(new) +
		uvarintLen(uint64(len(ddl))) + len(ddl)
	dst, body := beginFrame(dst, bodyLen)
	dst = append(dst, byte(kind))
	dst = binary.AppendUvarint(dst, txn)
	dst = binary.AppendUvarint(dst, uint64(len(table)))
	dst = append(dst, table...)
	dst = binary.AppendUvarint(dst, uint64(len(old)))
	dst = append(dst, old...)
	dst = binary.AppendUvarint(dst, uint64(len(new)))
	dst = append(dst, new...)
	dst = binary.AppendUvarint(dst, uint64(len(ddl)))
	dst = append(dst, ddl...)
	return sealFrame(dst, body)
}

// beginFrame appends the header of a frame whose body will be bodyLen bytes
// long, its CRC left zero, with room for the body, and returns where the
// body starts. The caller appends the body and seals the frame.
func beginFrame(dst []byte, bodyLen int) (grown []byte, body int) {
	dst = slices.Grow(dst, binary.MaxVarintLen64+4+bodyLen)
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	dst = append(dst, 0, 0, 0, 0)
	return dst, len(dst)
}

// sealFrame fills in the CRC of the frame whose body starts at body and
// runs to the end of dst.
func sealFrame(dst []byte, body int) []byte {
	binary.LittleEndian.PutUint32(dst[body-4:], crc32.ChecksumIEEE(dst[body:]))
	return dst
}

// uvarintLen returns how many bytes binary.AppendUvarint takes for v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// encodeRecord appends r's frame to dst, its tuples encoded first.
func encodeRecord(dst []byte, r Record) []byte {
	var old, new []byte
	if r.Old != nil {
		old = types.EncodeTuple(nil, r.Old)
	}
	if r.New != nil {
		new = types.EncodeTuple(nil, r.New)
	}
	return appendFrame(dst, r.Kind, r.Txn, r.Table, old, new, r.DDL)
}

// encodeFrame frames body whole: the checkpoint file's image, which is not a
// log record but is framed as one is.
func encodeFrame(body []byte) []byte {
	frame, start := beginFrame(nil, len(body))
	return sealFrame(append(frame, body...), start)
}

// appendLocked frames one record at the end of the log buffer and returns
// the byte offset its frame ends at; w.mu must be held.
func (w *WAL) appendLocked(kind RecordKind, txn uint64, table string, old, new []byte, ddl string) (end int64, err error) {
	if w.failed != nil {
		return 0, w.failed
	}
	start := len(w.buf)
	w.buf = appendFrame(w.buf, kind, txn, table, old, new, ddl)
	return w.framedLocked(start)
}

// framedLocked accounts for the frame the buffer holds from start on and
// returns the offset it ends at; w.mu must be held. An append that leaves
// the buffer holding walBufferSize bytes or more writes it.
func (w *WAL) framedLocked(start int) (end int64, err error) {
	w.off += int64(len(w.buf) - start)
	w.writes++
	w.appendedOff.Store(w.off)
	if len(w.buf) >= walBufferSize {
		if err := w.flushLocked(); err != nil {
			return 0, err
		}
	}
	return w.off, nil
}

// flushLocked writes the log buffer to the medium; w.mu must be held.
func (w *WAL) flushLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.w.Write(w.buf); err != nil {
		// The frames may be half on disk: everything after them would be
		// unreadable, so nothing later may claim durability either.
		w.failed = fmt.Errorf("txn: wal append: %w", err)
		return w.failed
	}
	w.buf = w.buf[:0]
	return nil
}

// flush writes the log buffer and returns the offset the medium now holds
// the log up to: every record appended before the call.
func (w *WAL) flush() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off, w.flushLocked()
}

// appendRow appends a row record, old and new the payloads as stored.
func (w *WAL) appendRow(kind RecordKind, txn uint64, table string, old, new []byte) error {
	if w == nil {
		return nil // logging disabled
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.appendLocked(kind, txn, table, old, new, "")
	return err
}

// append appends r and returns the byte offset its frame ends at. The
// caller must not hold w.mu.
func (w *WAL) append(r Record) (end int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	start := len(w.buf)
	w.buf = encodeRecord(w.buf, r)
	return w.framedLocked(start)
}

// Append appends one record without forcing it to stable storage. It
// becomes durable when a later durable append's fsync covers it.
func (w *WAL) Append(r Record) error {
	if w == nil {
		return nil // logging disabled
	}
	_, err := w.append(r)
	return err
}

// AppendDurable appends r and blocks until it is on stable storage: the
// caller rides a shared fsync with every other concurrent durable append.
func (w *WAL) AppendDurable(r Record) error {
	if w == nil {
		return nil
	}
	w.pending.Add(1)
	end, err := w.append(r)
	w.pending.Add(-1)
	if err != nil {
		return err
	}
	return w.gc.syncTo(w, end)
}

// syncMedium flushes the underlying medium, if it has a durability barrier.
func (w *WAL) syncMedium() error {
	if w.syncer == nil {
		return nil
	}
	if err := w.syncer.Sync(); err != nil {
		return fmt.Errorf("txn: wal fsync: %w", err)
	}
	return nil
}

// Sync makes everything appended so far durable.
func (w *WAL) Sync() error {
	if w == nil {
		return nil
	}
	return w.gc.syncTo(w, w.appendedOff.Load())
}

// Close writes the log buffer, without an fsync, and closes the underlying
// file when file-backed.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	var err error
	w.mu.Lock()
	if w.failed == nil {
		// A poisoned log writes nothing more.
		err = w.flushLocked()
	}
	w.mu.Unlock()
	if w.file == nil {
		return err
	}
	return errors.Join(err, w.file.Close())
}

// --- reading ----------------------------------------------------------------

// LogScan is the result of scanning a log stream: the complete, CRC-valid
// records found, the byte offset at which each record's frame starts, the
// offset where valid data ends, and how many bytes after that point were
// discarded as a torn tail.
type LogScan struct {
	Records []Record
	Offsets []int64
	// End is the offset one past the last complete valid record. A crash
	// mid-append leaves a torn final frame; recovery truncates the file here.
	End int64
	// Discarded is how many bytes past End were dropped (0 for a clean log).
	Discarded int64
}

// scanLog reads framed records from r, whose first byte sits at byte offset
// base of the log file. It stops at the first torn or corrupt frame: a crash
// mid-append tears exactly the tail, and once framing is lost nothing later
// can be trusted, so everything from the first bad frame on is discarded.
func scanLog(r io.Reader, base int64) (*LogScan, error) {
	br := bufio.NewReader(r)
	scan := &LogScan{End: base}
	off := base
	for {
		body, n, err := readFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return scan, err
		}
		if body == nil {
			// Torn or corrupt: count the rest of the stream as discarded.
			rest, err := io.Copy(io.Discard, br)
			if err != nil {
				return scan, fmt.Errorf("txn: wal scan: %w", err)
			}
			scan.Discarded = int64(n) + rest
			return scan, nil
		}
		rec, derr := decodeRecord(body)
		if derr != nil {
			rest, err := io.Copy(io.Discard, br)
			if err != nil {
				return scan, fmt.Errorf("txn: wal scan: %w", err)
			}
			scan.Discarded = int64(n) + rest
			return scan, nil
		}
		scan.Records = append(scan.Records, rec)
		scan.Offsets = append(scan.Offsets, off)
		off += int64(n)
		scan.End = off
	}
	return scan, nil
}

// readFrame reads one frame. It returns body == nil (with the bytes it
// consumed) when the frame is torn or fails its CRC, and io.EOF only at a
// clean record boundary.
func readFrame(br *bufio.Reader) (body []byte, consumed int, err error) {
	var length uint64
	first := true
	n := 0
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			if first {
				return nil, 0, io.EOF
			}
			return nil, n, nil // torn mid-varint
		}
		if err != nil {
			return nil, n, err
		}
		n++
		length |= uint64(b&0x7f) << (7 * (n - 1))
		first = false
		if b < 0x80 {
			break
		}
		if n >= binary.MaxVarintLen64 {
			return nil, n, nil // malformed varint: corrupt
		}
	}
	if length > maxRecordBody {
		return nil, n, nil // implausible length: corrupt
	}
	var crcBuf [4]byte
	m, err := io.ReadFull(br, crcBuf[:])
	n += m
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, n, nil // torn mid-CRC
	}
	if err != nil {
		return nil, n, err
	}
	body = make([]byte, length)
	m, err = io.ReadFull(br, body)
	n += m
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, n, nil // torn mid-body
	}
	if err != nil {
		return nil, n, err
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, n, nil // bit-flipped
	}
	return body, n, nil
}

func decodeRecord(body []byte) (Record, error) {
	if len(body) < 1 {
		return Record{}, fmt.Errorf("txn: empty wal record")
	}
	d := decoder{b: body[1:]}
	rec := Record{Kind: RecordKind(body[0]), Txn: d.uvarint(), Table: string(d.bytes()),
		Old: d.tuple(), New: d.tuple(), DDL: string(d.bytes())}
	return rec, d.err
}

// decoder reads the fields of a record or image body in order. The first
// malformed field sticks in err, and every read after it returns zero.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("txn: corrupt wal varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bytes reads a length-prefixed field.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err == nil && uint64(len(d.b)) < n {
		d.err = fmt.Errorf("txn: truncated wal field")
	}
	if d.err != nil {
		return nil
	}
	field := d.b[:n]
	d.b = d.b[n:]
	return field
}

// tuple reads a length-prefixed types.EncodeTuple image; length 0 is absent.
func (d *decoder) tuple() types.Tuple {
	image := d.bytes()
	if len(image) == 0 {
		return nil
	}
	t, err := types.DecodeTuple(image)
	if err != nil {
		d.err = err
	}
	return t
}
