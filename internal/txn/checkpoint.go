package txn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/catalog"
)

// CheckpointImage is a snapshot-consistent copy of the database, the one
// frame of the checkpoint file beside the log (checkpointPath): the DDL
// history that rebuilds the catalog, every row version visible to the
// checkpoint's snapshot (with its creating transaction id), the log offset
// recovery must replay the tail from, and the durable log frontier the image
// is valid against.
//
// The image is logical, like the log itself: the catalog lives in memory and
// data pages are rebuilt on restart, so a checkpoint preserves what a
// snapshot can see, not what the disk pages happen to hold. Each row is its
// stored heap payload, byte for byte: the checkpoint copies it out of the heap
// and recovery puts it back without decoding it. Transactions the
// snapshot could NOT see (in flight at checkpoint time, or begun after) are
// exactly the ones whose records the tail replay applies; Start is chosen so
// all of their records lie at or after it.
type CheckpointImage struct {
	// Xmax is one past the newest transaction id assigned at checkpoint time.
	Xmax uint64
	// Active lists the transactions in flight at checkpoint time; their
	// effects are excluded from the image even where stamps survive.
	Active []uint64
	// Start is the byte offset tail replay begins at: the minimum of the log
	// size before the snapshot was taken and the Begin offsets of the active
	// transactions.
	Start int64
	// End is the log's durable frontier when the image was written: at or
	// past Start and past every COMMIT the image's snapshot sees. Recovery
	// uses the image only when the log's valid data reaches End.
	End int64
	// EndSum binds the image to the log it was taken from: the CRC-32 of
	// the log's last endSumWindow bytes below End (logSum). A different log
	// that happens to reach End almost never matches it.
	EndSum uint32
	// DDL is the committed schema history, in execution order.
	DDL []string
	// Tables holds the visible rows of each non-empty table.
	Tables []CheckpointTable
}

// CheckpointTable is one table's visible rows: Rows[i] is a stored heap
// payload (a types.EncodeTuple record) and Xmins[i] the id of the transaction
// that created it (0 for frozen rows), preserved so version metadata survives
// the restart. A decoded image's rows are slices of the frame body it was
// read from.
type CheckpointTable struct {
	Name  string
	Xmins []uint64
	Rows  [][]byte
}

// sees reports whether transaction x's effects are captured in the image.
// Mirrors Snapshot.sees with no owner: tail replay adopts a BEGIN only when
// the image does not already carry its transaction's effects.
func (img *CheckpointImage) sees(x uint64) bool {
	return x == 0 || x < img.Xmax && !slices.Contains(img.Active, x)
}

// rowCount returns the total number of rows captured in the image.
func (img *CheckpointImage) rowCount() int {
	n := 0
	for _, t := range img.Tables {
		n += len(t.Rows)
	}
	return n
}

// encodeCheckpointImage serialises the image:
//
//	image := xmax:uvarint start:uvarint end:uvarint endSum:uvarint
//	         nActive:uvarint active...
//	         nDDL:uvarint (len:uvarint text)...
//	         nTables:uvarint table...
//	table := nameLen:uvarint name nRows:uvarint (xmin:uvarint len:uvarint tuple)...
//
// A tuple is a stored heap payload, byte for byte: a types.EncodeTuple record
// the checkpoint copied out of the heap without decoding it.
func encodeCheckpointImage(img *CheckpointImage) []byte {
	size := 1024
	for _, t := range img.Tables {
		for _, row := range t.Rows {
			size += len(row) + 2*binary.MaxVarintLen64
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, img.Xmax)
	buf = binary.AppendUvarint(buf, uint64(img.Start))
	buf = binary.AppendUvarint(buf, uint64(img.End))
	buf = binary.AppendUvarint(buf, uint64(img.EndSum))
	buf = binary.AppendUvarint(buf, uint64(len(img.Active)))
	for _, id := range img.Active {
		buf = binary.AppendUvarint(buf, id)
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.DDL)))
	for _, ddl := range img.DDL {
		buf = binary.AppendUvarint(buf, uint64(len(ddl)))
		buf = append(buf, ddl...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.Tables)))
	for _, t := range img.Tables {
		buf = binary.AppendUvarint(buf, uint64(len(t.Name)))
		buf = append(buf, t.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(t.Rows)))
		for i, row := range t.Rows {
			buf = binary.AppendUvarint(buf, t.Xmins[i])
			buf = binary.AppendUvarint(buf, uint64(len(row)))
			buf = append(buf, row...)
		}
	}
	return buf
}

func decodeCheckpointImage(data []byte) (*CheckpointImage, error) {
	d := decoder{b: data}
	img := &CheckpointImage{Xmax: d.uvarint(), Start: int64(d.uvarint()),
		End: int64(d.uvarint()), EndSum: uint32(d.uvarint())}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		img.Active = append(img.Active, d.uvarint())
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		img.DDL = append(img.DDL, string(d.bytes()))
	}
	for n := d.uvarint(); n > 0 && d.err == nil; n-- {
		t := CheckpointTable{Name: string(d.bytes())}
		rows := d.uvarint()
		// Every row takes at least two bytes, so a hostile count allocates
		// no more than the body already holds.
		size := min(rows, uint64(len(d.b)/2))
		t.Xmins, t.Rows = make([]uint64, 0, size), make([][]byte, 0, size)
		for ; rows > 0 && d.err == nil; rows-- {
			t.Xmins = append(t.Xmins, d.uvarint())
			t.Rows = append(t.Rows, d.bytes())
		}
		img.Tables = append(img.Tables, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	return img, nil
}

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	Tables int   // tables captured in the image
	Rows   int   // rows captured in the image
	Bytes  int   // encoded image size
	Start  int64 // tail-replay start offset recorded in the image
	End    int64 // durable log frontier the image requires (CheckpointImage.End)
}

// Checkpoint captures a snapshot-consistent image of the catalog and writes
// it to the checkpoint file beside the log (checkpointPath), so the next
// recovery installs it and replays only the log from its Start offset. It
// appends nothing to the log. Concurrent transactions keep running: the
// image simply excludes what its snapshot cannot see, and Start covers
// everything the tail replay will need. A log without a file has nothing to
// recover from, so there Checkpoint does nothing and returns zero stats.
func (m *Manager) Checkpoint(cat *catalog.Catalog) (CheckpointStats, error) {
	if m.wal == nil || m.wal.path == "" {
		return CheckpointStats{}, nil
	}
	// Checkpoints share the temporary file, and one at a time also lands
	// the images in the order they were taken.
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()

	// The log size must be read before the snapshot: a transaction invisible
	// to the snapshot either was active (its Begin offset bounds Start) or
	// got its id after this read, in which case all its records land at or
	// past this offset. Either way the tail starting at Start sees it.
	logSize := m.wal.Size()

	m.mu.Lock()
	snap := m.acquireSnapshotLocked(0)
	img := &CheckpointImage{Xmax: snap.xmax, Start: logSize}
	for id, t := range m.active {
		img.Active = append(img.Active, id)
		if t.beginOff >= 0 && t.beginOff < img.Start {
			img.Start = t.beginOff
		}
	}
	img.DDL = append([]string(nil), m.ddlHistory...)
	m.mu.Unlock()
	defer snap.Release()

	for _, name := range cat.TableNames() {
		table, err := cat.GetTable(name)
		if err != nil {
			return CheckpointStats{}, err
		}
		ct := CheckpointTable{Name: name}
		it := table.VersionIterator()
		for {
			_, meta, payload, ok, err := it.Next()
			if err != nil {
				return CheckpointStats{}, fmt.Errorf("txn: checkpoint scan of %s: %w", name, err)
			}
			if !ok {
				break
			}
			if !snap.Visible(meta) {
				continue
			}
			ct.Xmins = append(ct.Xmins, meta.Xmin)
			ct.Rows = append(ct.Rows, payload)
		}
		// Empty tables are carried by the DDL history alone; a table with a
		// visible row always has its CREATE in the history already (the row's
		// committed insert finished after the DDL did).
		if len(ct.Rows) > 0 {
			img.Tables = append(img.Tables, ct)
		}
	}

	// Every COMMIT the snapshot sees was durable before it became visible;
	// after this sync the durable frontier is also at or past Start.
	if err := m.wal.Sync(); err != nil {
		return CheckpointStats{}, err
	}
	img.End = m.wal.DurableLSN()
	sum, err := logSum(m.wal.file, img.End)
	if err != nil {
		return CheckpointStats{}, fmt.Errorf("txn: checkpoint: %w", err)
	}
	img.EndSum = sum
	encoded := encodeCheckpointImage(img)
	if err := writeCheckpointFile(checkpointPath(m.wal.path), encoded); err != nil {
		return CheckpointStats{}, err
	}

	m.mu.Lock()
	m.checkpoints++
	m.mu.Unlock()

	return CheckpointStats{
		Tables: len(img.Tables),
		Rows:   img.rowCount(),
		Bytes:  len(encoded),
		Start:  img.Start,
		End:    img.End,
	}, nil
}

// Checkpoints returns how many checkpoints this manager has taken.
func (m *Manager) Checkpoints() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpoints
}

// --- checkpoint file ---------------------------------------------------------

// checkpointPath names the checkpoint file of the log at walPath. It holds
// one frame in the log's own framing whose body is an encoded
// CheckpointImage. The log keeps every record from offset 0, so losing or
// corrupting the file costs replay time, never data.
func checkpointPath(walPath string) string { return walPath + ".ckpt" }

// writeCheckpointFile replaces the checkpoint file with one framed image:
// write a temporary file, fsync it, rename it into place. A crash before the
// rename is persisted leaves the previous image, which still describes a
// prefix of the log, so the directory needs no fsync.
func writeCheckpointFile(path string, image []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("txn: checkpoint file: %w", err)
	}
	_, err = f.Write(encodeFrame(image))
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("txn: checkpoint file: %w", err)
	}
	return nil
}

// readCheckpointFile returns the image in the checkpoint file at path, or
// nil when the file cannot be used: it is unreadable, torn, fails its CRC,
// is not exactly one image frame (the text pointer of older releases is
// not), or its offsets are inconsistent. present reports whether the file
// exists at all.
func readCheckpointFile(path string) (img *CheckpointImage, present bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, !os.IsNotExist(err)
	}
	br := bufio.NewReader(f)
	body, _, err := readFrame(br)
	_, rest := br.ReadByte()
	if errors.Join(err, f.Close()) != nil || body == nil || rest != io.EOF {
		return nil, true
	}
	img, err = decodeCheckpointImage(body)
	if err != nil || img.Start < 0 || img.Start > img.End {
		return nil, true
	}
	return img, true
}

// endSumWindow is how many log bytes below an image's End its EndSum covers:
// enough to span several whole frames, little enough to read on every
// checkpoint and recovery.
const endSumWindow = 4096

// logSum returns the CRC-32 of the log's bytes in
// [max(0, end-endSumWindow), end).
func logSum(log io.ReaderAt, end int64) (uint32, error) {
	from := max(0, end-endSumWindow)
	buf := make([]byte, end-from)
	if _, err := log.ReadAt(buf, from); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(buf), nil
}

// removeDurably removes the file at path and fsyncs its directory, so the
// removal survives a crash.
func removeDurably(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("txn: remove %s: %w", path, err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = errors.Join(dir.Sync(), dir.Close())
	}
	if err != nil {
		return fmt.Errorf("txn: sync directory of %s: %w", path, err)
	}
	return nil
}

// --- recovery ---------------------------------------------------------------

// LogLoad is everything recovery needs from a log file: the newest usable
// checkpoint image (nil when there is none) and the record tail that must be
// replayed on top of it.
type LogLoad struct {
	Image *CheckpointImage
	// Tail holds the records from TailStart to the end of valid data.
	Tail      []Record
	TailStart int64
	// End is the offset valid data stops at; bytes past it (Discarded) are a
	// torn tail from a crash mid-append and must be truncated before the log
	// is appended to again.
	End       int64
	Discarded int64
}

// LoadLog reads the log at path, and its checkpoint file, for recovery. It
// returns (nil, nil) when the log does not exist. An image is used only when
// it was taken from this log (its EndSum matches the log's bytes below End)
// and the log's valid data reaches the image's End; then only the tail from
// the image's Start is read. Otherwise the whole log is scanned from offset
// zero. A checkpoint file that was not used, also one left beside a missing
// log, is removed durably before LoadLog returns: the log will grow past the
// point the file was checked against, and a stale image must never be
// matched against it later.
func LoadLog(path string) (load *LogLoad, err error) {
	ckpt := checkpointPath(path)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			if _, err := os.Lstat(ckpt); err == nil {
				return nil, removeDurably(ckpt)
			}
			return nil, nil
		}
		return nil, fmt.Errorf("txn: open wal %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			load, err = nil, fmt.Errorf("txn: close wal %s: %w", path, cerr)
		}
	}()

	img, present := readCheckpointFile(ckpt)
	if img != nil {
		// The image must come from this log: its bytes below End give
		// EndSum. No log shorter than End can be read there, which also
		// keeps a Start past the file's end from scanning as an empty,
		// valid tail.
		if sum, err := logSum(f, img.End); err != nil || sum != img.EndSum {
			img = nil
		}
	}
	load, err = scanFrom(f, img)
	if err == nil && img != nil && load.End < img.End {
		// The log's valid data stops short of what the image requires.
		load, err = scanFrom(f, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("txn: scan wal %s: %w", path, err)
	}
	if present && load.Image == nil {
		if err := removeDurably(ckpt); err != nil {
			return nil, err
		}
	}
	return load, nil
}

// scanFrom scans f from img's Start (from offset zero when img is nil).
func scanFrom(f *os.File, img *CheckpointImage) (*LogLoad, error) {
	load := &LogLoad{Image: img}
	if img != nil {
		load.TailStart = img.Start
	}
	if _, err := f.Seek(load.TailStart, io.SeekStart); err != nil {
		return nil, err
	}
	scan, err := scanLog(f, load.TailStart)
	if err != nil {
		return nil, err
	}
	load.Tail = scan.Records
	load.End = scan.End
	load.Discarded = scan.Discarded
	return load, nil
}

// ReplayStats describes what one recovery replay did.
type ReplayStats struct {
	// ImageRows is the number of rows installed from the checkpoint image.
	ImageRows int
	// TailRecords is the number of log records scanned after the image.
	TailRecords int
	// TailApplied is how many of those changed the database: the DDL and row
	// records of transactions whose effects the image did not already carry.
	TailApplied int
}

// ReplayLog rebuilds a database from a checkpoint image (may be nil), as
// LoadLog read it from the checkpoint file, plus the log tail from the
// image's Start, through a's manager and catalog. The image is applied first
// — DDL history through the applier's DDL function, then each table's stored
// payloads in one bulk install (Table.InstallImage), stamped with their
// original creating transaction — and the id sequence and schema history
// resume from it. Then the tail goes through the applier in log order, record by record,
// except that a BEGIN whose transaction the image already carries adopts
// nothing, so that transaction's records are skipped; a record of no
// transaction (the retired kind 8 of older logs) applies nothing. Applying
// the image first matters: a tail UPDATE or DELETE finds its target row by
// before-image among the rows the image installed. Transactions the tail
// leaves open stay adopted; AbortOpen closes them.
func ReplayLog(a *Applier, image *CheckpointImage, tail []Record) (ReplayStats, error) {
	var st ReplayStats
	if image != nil {
		for _, ddl := range image.DDL {
			if err := a.applyDDL(ddl); err != nil {
				return st, fmt.Errorf("txn: checkpoint DDL %q: %w", ddl, err)
			}
		}
		for _, t := range image.Tables {
			table, err := a.cat.GetTable(t.Name)
			if err != nil {
				return st, fmt.Errorf("txn: checkpoint table %s: %w", t.Name, err)
			}
			if err := table.InstallImage(t.Rows, t.Xmins); err != nil {
				return st, fmt.Errorf("txn: checkpoint rows into %s: %w", t.Name, err)
			}
			st.ImageRows += len(t.Rows)
		}
		// The next checkpoint's image carries the history that rebuilt this
		// catalog, and no id an image row carries is issued again.
		a.mgr.mu.Lock()
		a.mgr.ddlHistory = append([]string(nil), image.DDL...)
		if image.Xmax > a.mgr.lastID {
			a.mgr.lastID = image.Xmax - 1
		}
		a.mgr.mu.Unlock()
	}

	for _, r := range tail {
		st.TailRecords++
		if r.Kind == RecordBegin && image != nil && image.sees(r.Txn) {
			continue // the image already carries this transaction's effects
		}
		applied, err := a.Apply(r)
		if err != nil {
			return st, err
		}
		if applied && (r.Kind == RecordDDL || r.Kind == RecordInsert || r.Kind == RecordUpdate || r.Kind == RecordDelete) {
			st.TailApplied++
		}
	}
	return st, nil
}
