package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The checkpoint file contract: one image frame beside the log, used only
// when the log reaches the image's End, and removed by Open when unusable.
// The log keeps every record, so an unusable file costs a full replay and
// never a row.

// insertLedger commits one ledger row per id in [from, to).
func insertLedger(t *testing.T, db *Database, from, to int) {
	t.Helper()
	if err := commitLedger(db, from, to); err != nil {
		t.Fatal(err)
	}
}

func commitLedger(db *Database, from, to int) error {
	s := db.Session()
	defer s.Close()
	ins, err := s.Prepare("INSERT INTO ledger (id, owner, amount) VALUES (?, ?, ?)")
	if err != nil {
		return err
	}
	defer ins.Close()
	for id := from; id < to; id++ {
		if _, err := ins.Exec(intv(id), strv("o"), intv(id)); err != nil {
			return err
		}
	}
	return nil
}

// ledgerIDs returns the count and the sum of the ledger's ids.
func ledgerIDs(t *testing.T, db *Database) (count, sum int64) {
	t.Helper()
	s := db.Session()
	defer s.Close()
	res, err := s.Query("SELECT COUNT(*), SUM(id) FROM ledger")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].IsNull() {
		return res.Rows[0][0].Int(), 0
	}
	return res.Rows[0][0].Int(), res.Rows[0][1].Int()
}

// wantLedger checks that db holds exactly the ids [0, n).
func wantLedger(t *testing.T, db *Database, n int, when string) {
	t.Helper()
	wantIDs(t, db, 0, n, when)
}

// wantIDs checks that db holds exactly the ids [from, to).
func wantIDs(t *testing.T, db *Database, from, to int, when string) {
	t.Helper()
	count, sum := ledgerIDs(t, db)
	if count != int64(to-from) || sum != int64((from+to-1)*(to-from)/2) {
		t.Errorf("%s: ledger holds %d rows summing to %d, want ids %d..%d", when, count, sum, from, to-1)
	}
}

func openLedger(t *testing.T, walPath string) *Database {
	t.Helper()
	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustNotExist(t *testing.T, path, when string) {
	t.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("%s: %s still exists (stat: %v)", when, filepath.Base(path), err)
	}
}

// TestCheckpointFileNewerThanTheLogIsIgnored: a crash image may pair a log
// copied below one durable LSN with a checkpoint file copied after a later
// checkpoint. Its End lies past the log, so Open replays the log in full and
// removes the file; the log then grows past that End, and a later reopen
// still finds exactly the committed rows.
func TestCheckpointFileNewerThanTheLogIsIgnored(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db := openLedger(t, walPath)
	defer db.Close()
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	insertLedger(t, db, 0, 50)
	lsn := db.Transactions().WAL().DurableLSN()
	insertLedger(t, db, 50, 80)
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.End <= lsn {
		t.Fatalf("checkpoint End %d not past the earlier durable LSN %d", st.End, lsn)
	}

	crashDir := t.TempDir()
	crashWAL := filepath.Join(crashDir, "db.wal")
	copyPrefix(t, walPath, crashWAL, lsn)
	copyPrefix(t, walPath+".ckpt", crashWAL+".ckpt", -1)

	recovered := openLedger(t, crashWAL)
	if rec := recovered.Recovery(); !rec.Recovered || rec.FromCheckpoint || rec.ImageRows != 0 {
		t.Errorf("recovery = %+v, want a full replay", rec)
	}
	mustNotExist(t, crashWAL+".ckpt", "after Open")
	wantLedger(t, recovered, 50, "full replay")
	insertLedger(t, recovered, 50, 120)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	recovered = openLedger(t, crashWAL)
	defer recovered.Close()
	wantLedger(t, recovered, 120, "reopen after more commits")
}

// TestCheckpointFileBesideAMissingLogIsRemoved: deleting the log but not its
// checkpoint file starts an empty database, and Open removes the file. The
// new log then grows past the old image's End, and a reopen replays it in
// full: the new rows only, never the old database's.
func TestCheckpointFileBesideAMissingLogIsRemoved(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "db.wal")
	db := openLedger(t, walPath)
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	insertLedger(t, db, 0, 50)
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}

	db = openLedger(t, walPath)
	if rec := db.Recovery(); rec.Recovered {
		t.Errorf("recovery = %+v, want a new database", rec)
	}
	mustNotExist(t, walPath+".ckpt", "after Open")
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	insertLedger(t, db, 1000, 1200)
	if size := db.Transactions().WAL().Size(); size <= st.End {
		t.Fatalf("new log is %d bytes, want it past the old image's End %d", size, st.End)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openLedger(t, walPath)
	defer db.Close()
	if rec := db.Recovery(); !rec.Recovered || rec.FromCheckpoint {
		t.Errorf("recovery = %+v, want a full replay", rec)
	}
	wantIDs(t, db, 1000, 1200, "reopen")
	mustNotExist(t, walPath+".ckpt", "after the reopen")
}

// TestCheckpointFileOfAnotherLogIsIgnored: a checkpoint file placed beside a
// log of another database that reaches the image's End does not match that
// log's bytes below End, so Open replays the log in full and removes the
// file.
func TestCheckpointFileOfAnotherLogIsIgnored(t *testing.T) {
	walA := filepath.Join(t.TempDir(), "db.wal")
	db := openLedger(t, walA)
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	insertLedger(t, db, 0, 50)
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	walB := filepath.Join(t.TempDir(), "db.wal")
	db = openLedger(t, walB)
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	insertLedger(t, db, 1000, 1200)
	if size := db.Transactions().WAL().Size(); size <= st.End {
		t.Fatalf("log B is %d bytes, want it past image A's End %d", size, st.End)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	copyPrefix(t, walA+".ckpt", walB+".ckpt", -1)

	db = openLedger(t, walB)
	defer db.Close()
	if rec := db.Recovery(); !rec.Recovered || rec.FromCheckpoint {
		t.Errorf("recovery = %+v, want a full replay", rec)
	}
	mustNotExist(t, walB+".ckpt", "after Open")
	wantIDs(t, db, 1000, 1200, "full replay")
}

// TestUnusableCheckpointFileFallsBackToFullReplay: a flipped byte, a
// truncated file and the text pointer of older releases each make Open
// replay the whole log, recover the same rows, and remove the file.
func TestUnusableCheckpointFileFallsBackToFullReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"flipped byte", func(data []byte) []byte {
			data[len(data)/2] ^= 0x40
			return data
		}},
		{"truncated", func(data []byte) []byte { return data[:len(data)-3] }},
		{"old pointer", func([]byte) []byte { return []byte("wowckpt1 0\n") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "db.wal")
			db := openLedger(t, walPath)
			if _, err := db.Session().Execute(replLedgerDDL); err != nil {
				t.Fatal(err)
			}
			insertLedger(t, db, 0, 60)
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			insertLedger(t, db, 60, 70)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(walPath + ".ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath+".ckpt", tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			db = openLedger(t, walPath)
			defer db.Close()
			if rec := db.Recovery(); !rec.Recovered || rec.FromCheckpoint {
				t.Errorf("recovery = %+v, want a full replay", rec)
			}
			mustNotExist(t, walPath+".ckpt", "after Open")
			wantLedger(t, db, 70, "full replay")
		})
	}
}

// TestOldLogWithCheckpointFrameReplays: a log written before checkpoints
// moved out of it holds kind-8 frames whose body carries a trailing image,
// and a text pointer to one. The frame applies nothing, the pointer is
// removed, and the first Open replays from offset 0 past the frame.
func TestOldLogWithCheckpointFrameReplays(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "db.wal")
	db := openLedger(t, walPath)
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	insertLedger(t, db, 0, 40)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// kind 8, txn 0, empty table/old/new/ddl fields, then the image field.
	image := []byte("an image the new code never decodes")
	body := []byte{8, 0, 0, 0, 0, 0}
	body = binary.AppendUvarint(body, uint64(len(image)))
	body = append(body, image...)
	frame := binary.AppendUvarint(nil, uint64(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	frame = append(frame, body...)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	pointer := fmt.Sprintf("wowckpt1 %d\n", info.Size())
	if err := os.WriteFile(walPath+".ckpt", []byte(pointer), 0o644); err != nil {
		t.Fatal(err)
	}

	db = openLedger(t, walPath)
	if rec := db.Recovery(); rec.FromCheckpoint || rec.BytesDiscarded != 0 || rec.TailRecords == 0 {
		t.Errorf("recovery = %+v, want a full replay that keeps the old frame", rec)
	}
	mustNotExist(t, walPath+".ckpt", "after Open")
	wantLedger(t, db, 40, "first open")
	insertLedger(t, db, 40, 55)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The old frame now sits mid-log: a full replay passes it.
	db = openLedger(t, walPath)
	if rec := db.Recovery(); rec.FromCheckpoint || rec.TailApplied != 1+55 {
		t.Errorf("recovery = %+v, want a full replay applying the CREATE and 55 rows", rec)
	}
	wantLedger(t, db, 55, "second open")
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openLedger(t, walPath)
	defer db.Close()
	if rec := db.Recovery(); !rec.FromCheckpoint {
		t.Errorf("recovery = %+v, want the new checkpoint image", rec)
	}
	wantLedger(t, db, 55, "reopen")
}

// TestConcurrentCheckpoints: checkpoints share one temporary file, so they
// run one at a time. Two goroutines checkpointing alongside committers all
// succeed, and a reopen recovers from the last image with every committed
// row.
func TestConcurrentCheckpoints(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "db.wal")
	db := openLedger(t, walPath)
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	insertLedger(t, db, 0, 500)
	const committers, rowsEach, checkpointers, checkpointsEach = 4, 100, 2, 25
	var wg sync.WaitGroup
	errs := make(chan error, committers+checkpointers*checkpointsEach)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			from := 500 + c*rowsEach
			if err := commitLedger(db, from, from+rowsEach); err != nil {
				errs <- err
			}
		}(c)
	}
	for c := 0; c < checkpointers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < checkpointsEach; i++ {
				if _, err := db.Checkpoint(); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	const total = 500 + committers*rowsEach
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	mustNotExist(t, walPath+".ckpt.tmp", "after the checkpoints")
	db = openLedger(t, walPath)
	defer db.Close()
	if rec := db.Recovery(); !rec.FromCheckpoint || rec.ImageRows < 500 {
		t.Errorf("recovery = %+v, want a checkpoint image of at least 500 rows", rec)
	}
	wantLedger(t, db, total, "reopen")
}

// copyPrefix copies the first n bytes of src (all of it when n < 0) to dst.
func copyPrefix(t *testing.T, src, dst string, n int64) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var r io.Reader = in
	if n >= 0 {
		r = io.LimitReader(in, n)
	}
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(out, r); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}
