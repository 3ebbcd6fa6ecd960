package txn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// CheckpointImage is a snapshot-consistent copy of the database embedded in
// a single RecordCheckpoint frame: the DDL history that rebuilds the catalog,
// every row version visible to the checkpoint's snapshot (with its creating
// transaction id), and the log offset recovery must replay the tail from.
//
// The image is logical, like the log itself: the catalog lives in memory and
// data pages are rebuilt on restart, so a checkpoint preserves what a
// snapshot can see, not what the disk pages happen to hold. Transactions the
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
	// DDL is the committed schema history, in execution order.
	DDL []string
	// Tables holds the visible rows of each non-empty table.
	Tables []CheckpointTable

	activeSet map[uint64]struct{}
}

// CheckpointTable is one table's visible rows: Xmins[i] is the creating
// transaction id of Rows[i] (0 for frozen rows), preserved so version
// metadata survives the restart.
type CheckpointTable struct {
	Name  string
	Xmins []uint64
	Rows  []types.Tuple
}

// sees reports whether transaction x's effects are captured in the image.
// Mirrors Snapshot.sees with no owner: tail replay applies a record iff its
// transaction committed and the image does not already carry its effects.
func (img *CheckpointImage) sees(x uint64) bool {
	if x == 0 {
		return true
	}
	if x >= img.Xmax {
		return false
	}
	_, inFlight := img.activeSet[x]
	return !inFlight
}

func (img *CheckpointImage) buildActiveSet() {
	img.activeSet = make(map[uint64]struct{}, len(img.Active))
	for _, id := range img.Active {
		img.activeSet[id] = struct{}{}
	}
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
//	image := xmax:uvarint start:uvarint
//	         nActive:uvarint active...
//	         nDDL:uvarint (len:uvarint text)...
//	         nTables:uvarint table...
//	table := nameLen:uvarint name nRows:uvarint (xmin:uvarint len:uvarint tuple)...
func encodeCheckpointImage(img *CheckpointImage) []byte {
	buf := make([]byte, 0, 1024)
	buf = binary.AppendUvarint(buf, img.Xmax)
	buf = binary.AppendUvarint(buf, uint64(img.Start))
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
			image := types.EncodeTuple(nil, row)
			buf = binary.AppendUvarint(buf, uint64(len(image)))
			buf = append(buf, image...)
		}
	}
	return buf
}

func decodeCheckpointImage(data []byte) (*CheckpointImage, error) {
	img := &CheckpointImage{}
	var err error
	var v uint64
	if img.Xmax, data, err = readUvarint(data); err != nil {
		return nil, err
	}
	if v, data, err = readUvarint(data); err != nil {
		return nil, err
	}
	img.Start = int64(v)
	if v, data, err = readUvarint(data); err != nil {
		return nil, err
	}
	for i := uint64(0); i < v; i++ {
		var id uint64
		if id, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		img.Active = append(img.Active, id)
	}
	if v, data, err = readUvarint(data); err != nil {
		return nil, err
	}
	for i := uint64(0); i < v; i++ {
		var text []byte
		if text, data, err = readBytes(data); err != nil {
			return nil, err
		}
		img.DDL = append(img.DDL, string(text))
	}
	if v, data, err = readUvarint(data); err != nil {
		return nil, err
	}
	for i := uint64(0); i < v; i++ {
		var name []byte
		if name, data, err = readBytes(data); err != nil {
			return nil, err
		}
		t := CheckpointTable{Name: string(name)}
		var rows uint64
		if rows, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		for j := uint64(0); j < rows; j++ {
			var xmin uint64
			if xmin, data, err = readUvarint(data); err != nil {
				return nil, err
			}
			var image []byte
			if image, data, err = readBytes(data); err != nil {
				return nil, err
			}
			row, err := types.DecodeTuple(image)
			if err != nil {
				return nil, err
			}
			t.Xmins = append(t.Xmins, xmin)
			t.Rows = append(t.Rows, row)
		}
		img.Tables = append(img.Tables, t)
	}
	img.buildActiveSet()
	return img, nil
}

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	Tables int   // tables captured in the image
	Rows   int   // rows captured in the image
	Bytes  int   // encoded image size
	Start  int64 // tail-replay start offset recorded in the image
	Offset int64 // log offset of the checkpoint record itself
}

// Checkpoint captures a snapshot-consistent image of the catalog, appends it
// to the log as a single durable RecordCheckpoint, and publishes its offset
// in the pointer file so the next recovery seeks to it instead of replaying
// from offset zero. Concurrent transactions keep running: the image simply
// excludes what its snapshot cannot see, and Start covers everything the
// tail replay will need.
func (m *Manager) Checkpoint(cat *catalog.Catalog) (CheckpointStats, error) {
	if m.wal == nil {
		return CheckpointStats{}, nil // nothing to recover from, nothing to do
	}

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
			_, meta, row, ok, err := it.Next()
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
			ct.Rows = append(ct.Rows, row)
		}
		// Empty tables are carried by the DDL history alone; a table with a
		// visible row always has its CREATE in the history already (the row's
		// committed insert finished after the DDL did).
		if len(ct.Rows) > 0 {
			img.Tables = append(img.Tables, ct)
		}
	}

	encoded := encodeCheckpointImage(img)
	off, err := m.wal.appendCheckpointDurable(Record{Kind: RecordCheckpoint, Image: encoded})
	if err != nil {
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
		Offset: off,
	}, nil
}

// Checkpoints returns how many checkpoints this manager has taken.
func (m *Manager) Checkpoints() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpoints
}

// SeedDDL installs the recovered schema history, so the next checkpoint's
// image carries the statements that rebuilt this catalog.
func (m *Manager) SeedDDL(history []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ddlHistory = append([]string(nil), history...)
}

// appendCheckpointDurable appends the checkpoint record, waits for it to
// reach stable storage, and then (for file-backed logs) publishes its offset
// in the pointer file. The pointer is written only after the fsync: a
// pointer must never name a frame that a crash could erase.
func (w *WAL) appendCheckpointDurable(r Record) (int64, error) {
	seq, off, err := w.append(r)
	if err != nil {
		return 0, err
	}
	if err := w.gc.syncTo(w, seq); err != nil {
		return 0, err
	}
	if w.path != "" {
		if err := writeCheckpointPointer(w.path, off); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// --- checkpoint pointer file -------------------------------------------------

const checkpointPointerMagic = "wowckpt1"

func checkpointPointerPath(walPath string) string { return walPath + ".ckpt" }

// writeCheckpointPointer durably records the offset of the newest checkpoint
// frame next to the log (write temp, fsync, rename). Losing or corrupting
// the pointer is safe: recovery falls back to a full replay from offset zero,
// slower but identical in outcome.
func writeCheckpointPointer(walPath string, off int64) error {
	path := checkpointPointerPath(walPath)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("txn: checkpoint pointer: %w", err)
	}
	_, werr := fmt.Fprintf(f, "%s %d\n", checkpointPointerMagic, off)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("txn: checkpoint pointer: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("txn: checkpoint pointer: %w", err)
	}
	return nil
}

// readCheckpointPointer returns the recorded checkpoint offset, or ok=false
// when the pointer is absent or malformed.
func readCheckpointPointer(walPath string) (int64, bool) {
	data, err := os.ReadFile(checkpointPointerPath(walPath))
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) != 2 || fields[0] != checkpointPointerMagic {
		return 0, false
	}
	off, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || off < 0 {
		return 0, false
	}
	return off, true
}

// --- recovery ---------------------------------------------------------------

// LogLoad is everything recovery needs from a log file: the newest durable
// checkpoint image (nil when none is reachable) and the record tail that
// must be replayed on top of it.
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
	// FromCheckpoint reports whether the tail starts at a checkpoint's Start
	// offset rather than offset zero.
	FromCheckpoint bool
}

// LoadLog reads the log at path for recovery. It returns (nil, nil) when the
// file does not exist. When a valid checkpoint pointer names a readable
// checkpoint frame, only the tail from the image's Start offset is read;
// otherwise the whole log is scanned from offset zero (every record is still
// in the log — a checkpoint adds an image, it removes nothing — so losing
// the pointer only costs time, never data).
func LoadLog(path string) (load *LogLoad, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("txn: open wal %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			load, err = nil, fmt.Errorf("txn: close wal %s: %w", path, cerr)
		}
	}()

	load = &LogLoad{}
	if off, ok := readCheckpointPointer(path); ok {
		if img := readCheckpointFrame(f, off); img != nil {
			load.Image = img
			load.TailStart = img.Start
			load.FromCheckpoint = true
		}
	}

	if _, err := f.Seek(load.TailStart, 0); err != nil {
		return nil, fmt.Errorf("txn: seek wal %s: %w", path, err)
	}
	scan, err := scanLog(f, load.TailStart)
	if err != nil {
		return nil, fmt.Errorf("txn: scan wal %s: %w", path, err)
	}
	load.Tail = scan.Records
	load.End = scan.End
	load.Discarded = scan.Discarded
	return load, nil
}

// readCheckpointFrame reads and validates the frame at off, returning its
// decoded image or nil when anything about it is off — the caller then falls
// back to a full scan.
func readCheckpointFrame(f *os.File, off int64) *CheckpointImage {
	if _, err := f.Seek(off, 0); err != nil {
		return nil
	}
	body, _, err := readFrame(bufio.NewReader(f))
	if err != nil || body == nil {
		return nil
	}
	rec, err := decodeRecord(body)
	if err != nil || rec.Kind != RecordCheckpoint {
		return nil
	}
	img, err := decodeCheckpointImage(rec.Image)
	if err != nil || img.Start > off {
		return nil
	}
	return img
}

// ReplayStats describes what one recovery replay did.
type ReplayStats struct {
	// MaxID is the highest transaction id seen; the caller must feed it to
	// Manager.AdvanceTo before starting new transactions.
	MaxID uint64
	// ImageRows is the number of rows installed from the checkpoint image.
	ImageRows int
	// TailRecords is the number of log records scanned after the image.
	TailRecords int
	// TailApplied is how many of those were applied (committed transactions
	// whose effects the image did not already carry).
	TailApplied int
	// DDL is the full committed schema history after replay, in order —
	// image history first, then tail statements. Feed it to Manager.SeedDDL.
	DDL []string
}

// ReplayLog rebuilds the catalog from a checkpoint image (may be nil) plus a
// record tail. The image is applied first — DDL history through applyDDL,
// then each table's rows in one bulk install (Table.InstallImage), stamped
// with their original creating transaction — and then the tail is replayed
// in log order, record by record, applying only records of committed
// transactions whose effects the image does not already capture. Applying
// the image first matters: a tail UPDATE or DELETE finds its target row by
// before-image among the rows the image installed.
func ReplayLog(image *CheckpointImage, tail []Record, cat *catalog.Catalog, applyDDL func(string) error) (ReplayStats, error) {
	var st ReplayStats
	if image != nil {
		if image.activeSet == nil {
			image.buildActiveSet()
		}
		if image.Xmax > 0 {
			st.MaxID = image.Xmax - 1
		}
		for _, ddl := range image.DDL {
			if err := applyDDL(ddl); err != nil {
				return st, fmt.Errorf("txn: checkpoint DDL %q: %w", ddl, err)
			}
			st.DDL = append(st.DDL, ddl)
		}
		for _, t := range image.Tables {
			table, err := cat.GetTable(t.Name)
			if err != nil {
				return st, fmt.Errorf("txn: checkpoint table %s: %w", t.Name, err)
			}
			if err := table.InstallImage(t.Rows, t.Xmins); err != nil {
				return st, fmt.Errorf("txn: checkpoint rows into %s: %w", t.Name, err)
			}
			st.ImageRows += len(t.Rows)
		}
	}

	committed := committedTransactions(tail)
	for _, r := range tail {
		if r.Kind == RecordCheckpoint {
			continue // images are only entered through the pointer file
		}
		if r.Txn > st.MaxID {
			st.MaxID = r.Txn
		}
		st.TailRecords++
		if !committed[r.Txn] {
			continue
		}
		if image != nil && image.sees(r.Txn) {
			continue // the image already carries this transaction's effects
		}
		switch r.Kind {
		case RecordDDL:
			if err := applyDDL(r.DDL); err != nil {
				return st, fmt.Errorf("txn: recovery DDL %q: %w", r.DDL, err)
			}
			st.DDL = append(st.DDL, r.DDL)
			st.TailApplied++
		case RecordInsert, RecordUpdate, RecordDelete:
			if err := replayRow(cat, r); err != nil {
				return st, fmt.Errorf("txn: recovery %s on %s: %w", r.Kind, r.Table, err)
			}
			st.TailApplied++
		}
	}
	return st, nil
}

// replayRow applies one committed row record physically. An UPDATE or DELETE
// names its row by before-image: Table.Locate resolves it among the live
// versions (replay leaves no dead ones), and a miss is an error — the log
// says a committed change happened to a row this catalog does not hold, and
// dropping the change would hand back a database that never existed. A
// DELETE removes that version; an UPDATE removes it and installs the new row
// stamped with the updating transaction's id, as the live update did.
func replayRow(cat *catalog.Catalog, r Record) error {
	table, err := cat.GetTable(r.Table)
	if err != nil {
		return err
	}
	if r.Kind == RecordInsert {
		_, err = table.InstallVersion(r.New, r.Txn)
		return err
	}
	rid, err := table.Locate(r.Old, func(m storage.VersionMeta) bool { return m.Xmax == 0 })
	if err != nil {
		return err
	}
	if err := table.RemoveVersion(rid); err != nil || r.Kind == RecordDelete {
		return err
	}
	_, err = table.InstallVersion(r.New, r.Txn)
	return err
}
