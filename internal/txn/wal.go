package txn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
	// RecordCheckpoint carries a CheckpointImage: a snapshot-consistent copy
	// of the database (DDL history + visible row versions) plus the replay
	// start offset. Recovery that finds a durable checkpoint applies the
	// image and replays only the log tail after its start offset.
	RecordCheckpoint
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
	case RecordCheckpoint:
		return "CHECKPOINT"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
}

// Record is one logical log entry. DML records carry the affected table and
// the before/after images of the row; DDL records carry the statement text;
// checkpoint records carry an encoded CheckpointImage.
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
	// Image is the encoded CheckpointImage for RecordCheckpoint.
	Image []byte
}

// maxRecordBody bounds a decoded record frame. A length prefix larger than
// this is treated as corruption (a torn or bit-flipped tail), not as a real
// record — it keeps a flipped length byte from demanding a giant allocation.
const maxRecordBody = 1 << 28 // 256 MiB

// WAL is an append-only logical log. Writes are serialised; Append is safe
// for concurrent use.
//
// Record wire format:
//
//	frame  := bodyLen:uvarint crc32:4 body
//	body   := kind:byte txn:uvarint tableLen:uvarint table
//	          oldLen:uvarint old newLen:uvarint new ddlLen:uvarint ddl
//	          [imageLen:uvarint image]
//
// where old/new are types.EncodeTuple images (length 0 means absent), the
// CRC is IEEE CRC-32 over body, and the trailing image field is present only
// on checkpoint records. The CRC is what lets recovery distinguish "the log
// ends in a torn frame from a crash mid-append" (truncate and continue) from
// a complete record.
//
// Durability is leader/follower group commit: AppendDurable enqueues the
// record and rides a shared fsync — the first blocked committer becomes the
// leader, flushes everything appended up to that point with one Sync, and
// wakes the cohort (see groupcommit.go). A failed write or fsync poisons the
// log permanently: after a failure nothing later can claim durability, so
// every subsequent append or commit fails fast with the original error.
type WAL struct {
	mu     sync.Mutex
	w      io.Writer
	file   *os.File // non-nil when backed by a file (enables Sync, Truncate)
	path   string   // file path when file-backed (for the checkpoint pointer)
	syncer interface{ Sync() error }
	failed error // sticky: a torn write or failed fsync poisons the log
	writes uint64
	off    int64 // byte offset the next frame lands at

	// seq numbers appended records; group commit tracks durability in seq
	// space. Atomic so the sync leader can read it without taking mu.
	seq atomic.Uint64

	// pending counts appends in flight: committers that have entered
	// AppendDurable but whose record is not yet in the log (so not yet
	// covered by w.seq). A sync leader that sees pending > 0 holds the
	// barrier open for up to groupCommitWindow so those records land under
	// its fsync. Committers already parked at the barrier are not counted —
	// their records are in w.seq and waiting on them would waste the window.
	pending atomic.Int64

	// Replication frontiers, in byte offsets of the log (the LSN space the
	// streaming protocol speaks). appendedOff mirrors off: it is stored under
	// w.mu so the sync leader can load it lock-free together with w.seq.
	// durableOff is published only after the fsync covering those bytes
	// succeeded — a replica may be streamed anything below it and nothing
	// above it (see walstream.go).
	appendedOff atomic.Int64
	durableOff  atomic.Int64

	// notify is closed and replaced each time durableOff advances, waking
	// WAL streamers blocked waiting for new durable bytes.
	notifyMu sync.Mutex
	notify   chan struct{}

	gc groupCommit
}

// NewWAL creates a log writing to w. If w implements `Sync() error` it is
// used as the durability barrier (tests inject failing or gated media this
// way); otherwise Sync is a no-op and the log is only as durable as w.
func NewWAL(w io.Writer) *WAL {
	wal := &WAL{w: w}
	if s, ok := w.(interface{ Sync() error }); ok {
		wal.syncer = s
	}
	wal.gc.init()
	return wal
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

func encodeRecord(r Record) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(r.Kind))
	buf = binary.AppendUvarint(buf, r.Txn)
	buf = binary.AppendUvarint(buf, uint64(len(r.Table)))
	buf = append(buf, r.Table...)
	oldImage := []byte(nil)
	if r.Old != nil {
		oldImage = types.EncodeTuple(nil, r.Old)
	}
	buf = binary.AppendUvarint(buf, uint64(len(oldImage)))
	buf = append(buf, oldImage...)
	newImage := []byte(nil)
	if r.New != nil {
		newImage = types.EncodeTuple(nil, r.New)
	}
	buf = binary.AppendUvarint(buf, uint64(len(newImage)))
	buf = append(buf, newImage...)
	buf = binary.AppendUvarint(buf, uint64(len(r.DDL)))
	buf = append(buf, r.DDL...)
	if len(r.Image) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(r.Image)))
		buf = append(buf, r.Image...)
	}
	return buf
}

// append writes one framed record and returns its sequence number and the
// byte offset its frame starts at. The caller must not hold w.mu.
func (w *WAL) append(r Record) (seq uint64, off int64, err error) {
	frame := encodeFrame(r)
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeLocked(frame)
}

// encodeFrame frames r: its body's length, the body's checksum, the body.
func encodeFrame(r Record) []byte {
	body := encodeRecord(r)
	frame := binary.AppendUvarint(nil, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// writeLocked writes one frame at the end of the log; w.mu must be held.
func (w *WAL) writeLocked(frame []byte) (seq uint64, off int64, err error) {
	if w.failed != nil {
		return 0, 0, w.failed
	}
	off = w.off
	if _, err := w.w.Write(frame); err != nil {
		// The frame may be half on disk: everything after it would be
		// unreadable, so nothing later may claim durability either.
		w.failed = fmt.Errorf("txn: wal append: %w", err)
		return 0, 0, w.failed
	}
	w.off += int64(len(frame))
	w.writes++
	w.appendedOff.Store(w.off)
	return w.seq.Add(1), off, nil
}

// Append writes one record without forcing it to stable storage. It becomes
// durable when a later durable append's fsync covers it.
func (w *WAL) Append(r Record) error {
	if w == nil {
		return nil // logging disabled
	}
	_, _, err := w.append(r)
	return err
}

// AppendDurable appends r and blocks until it is on stable storage: the
// caller rides a shared fsync with every other concurrent durable append.
func (w *WAL) AppendDurable(r Record) error {
	if w == nil {
		return nil
	}
	w.pending.Add(1)
	seq, _, err := w.append(r)
	w.pending.Add(-1)
	if err != nil {
		return err
	}
	return w.gc.syncTo(w, seq)
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
	return w.gc.syncTo(w, w.seq.Load())
}

// Close closes the underlying file when file-backed.
func (w *WAL) Close() error {
	if w == nil || w.file == nil {
		return nil
	}
	return w.file.Close()
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
	var rec Record
	if len(body) < 1 {
		return rec, fmt.Errorf("txn: empty wal record")
	}
	rec.Kind = RecordKind(body[0])
	body = body[1:]
	var err error
	if rec.Txn, body, err = readUvarint(body); err != nil {
		return rec, err
	}
	var table []byte
	if table, body, err = readBytes(body); err != nil {
		return rec, err
	}
	rec.Table = string(table)
	var oldImage, newImage, ddl []byte
	if oldImage, body, err = readBytes(body); err != nil {
		return rec, err
	}
	if newImage, body, err = readBytes(body); err != nil {
		return rec, err
	}
	if ddl, body, err = readBytes(body); err != nil {
		return rec, err
	}
	if len(body) > 0 {
		var image []byte
		if image, _, err = readBytes(body); err != nil {
			return rec, err
		}
		rec.Image = image
	}
	if len(oldImage) > 0 {
		if rec.Old, err = types.DecodeTuple(oldImage); err != nil {
			return rec, err
		}
	}
	if len(newImage) > 0 {
		if rec.New, err = types.DecodeTuple(newImage); err != nil {
			return rec, err
		}
	}
	rec.DDL = string(ddl)
	return rec, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("txn: corrupt wal varint")
	}
	return v, b[n:], nil
}

func readBytes(b []byte) ([]byte, []byte, error) {
	length, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(rest)) < length {
		return nil, nil, fmt.Errorf("txn: truncated wal field")
	}
	return rest[:length], rest[length:], nil
}
