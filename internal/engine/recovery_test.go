package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

func intv(i int) types.Value    { return types.NewInt(int64(i)) }
func strv(s string) types.Value { return types.NewString(s) }

func countCustomers(t *testing.T, db *Database) int64 {
	t.Helper()
	s := db.Session()
	defer s.Close()
	res, err := s.Query("SELECT COUNT(*) FROM customers")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

// TestRestartTwiceIdempotent is the replay-re-logging satellite: the seed's
// recovery replayed DDL through the normal Execute path, appending a second
// copy of every schema statement to the log being recovered — so the SECOND
// restart found duplicate CREATEs and refused to start. Recovery must leave
// the log byte-identical and survive any number of restarts.
func TestRestartTwiceIdempotent(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wow.wal")

	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("INSERT INTO customers (id, name) VALUES (100, 'Restart')"); err != nil {
		t.Fatal(err)
	}
	want := countCustomers(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	size1, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		db, err = Open(Options{WALPath: walPath})
		if err != nil {
			t.Fatalf("restart %d: %v", i+1, err)
		}
		if got := countCustomers(t, db); got != want {
			t.Fatalf("restart %d: %d customers, want %d", i+1, got, want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		size, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if size.Size() != size1.Size() {
			t.Fatalf("restart %d grew the log %d -> %d bytes: recovery is re-logging",
				i+1, size1.Size(), size.Size())
		}
	}
}

// TestCheckpointFastRestart: after a checkpoint, a restart must load the
// image and replay only the records written after it.
func TestCheckpointFastRestart(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wow.wal")

	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO customers (id, name) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ins.Exec(intv(1000+i), strv("pre")); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Rows < 50 || ckpt.Tables == 0 {
		t.Fatalf("checkpoint captured %d rows / %d tables", ckpt.Rows, ckpt.Tables)
	}
	if _, err := os.Stat(walPath + ".ckpt"); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ins.Exec(intv(2000+i), strv("post")); err != nil {
			t.Fatal(err)
		}
	}
	want := countCustomers(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rec := db2.Recovery()
	if !rec.Recovered || !rec.FromCheckpoint {
		t.Fatalf("recovery = %+v, want FromCheckpoint", rec)
	}
	if rec.ImageRows < 50 {
		t.Errorf("image rows = %d, want >= 50", rec.ImageRows)
	}
	// Only the 5 post-checkpoint inserts are applied from the tail.
	if rec.TailApplied != 5 {
		t.Errorf("tail applied = %d, want 5", rec.TailApplied)
	}
	if got := db2.Stats().RecoveryRecordsReplayed; got != uint64(rec.TailApplied) {
		t.Errorf("Stats.RecoveryRecordsReplayed = %d, want %d", got, rec.TailApplied)
	}
	if got := countCustomers(t, db2); got != want {
		t.Errorf("recovered %d customers, want %d", got, want)
	}
	// Indexes were rebuilt through the recovered DDL history: a point query
	// planned through the primary index must find image-installed rows.
	s2 := db2.Session()
	defer s2.Close()
	res, err := s2.Query("SELECT name FROM customers WHERE id = 1025")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].String() != "pre" {
		t.Errorf("index lookup of image row = %v, %v", res, err)
	}
}

// TestTornWALTailTruncatedOnOpen: garbage after the last complete record —
// a crash mid-append — must not block startup; the tail is truncated and
// later appends produce a clean log.
func TestTornWALTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wow.wal")

	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("INSERT INTO customers (id, name) VALUES (7, 'Torn')"); err != nil {
		t.Fatal(err)
	}
	want := countCustomers(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: half a frame of garbage on the tail.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{0x19, 0xde, 0xad, 0xbe, 0xef, 0x01}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if got := db2.Recovery().BytesDiscarded; got != int64(len(garbage)) {
		t.Errorf("BytesDiscarded = %d, want %d", got, len(garbage))
	}
	if got := countCustomers(t, db2); got != want {
		t.Errorf("recovered %d customers, want %d", got, want)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() < clean.Size() {
		t.Errorf("log shrank past the valid prefix: %d < %d", after.Size(), clean.Size())
	}
	// Write through the truncated log, restart again: still clean.
	s2 := db2.Session()
	if _, err := s2.Execute("INSERT INTO customers (id, name) VALUES (8, 'After')"); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := countCustomers(t, db3); got != want+1 {
		t.Errorf("after truncate+append: %d customers, want %d", got, want+1)
	}
	if db3.Recovery().BytesDiscarded != 0 {
		t.Errorf("second recovery discarded %d bytes from a clean log", db3.Recovery().BytesDiscarded)
	}
}

// TestPeriodicCheckpointer: Open with an interval must checkpoint on its own
// and recover from the checkpoint after Close.
func TestPeriodicCheckpointer(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wow.wal")

	db, err := Open(Options{WALPath: walPath, CheckpointInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().CheckpointsTaken == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint taken within 5s at a 5ms interval")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if db.Stats().CheckpointFailures != 0 {
		t.Errorf("checkpoint failures = %d", db.Stats().CheckpointFailures)
	}
	want := countCustomers(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Recovery().FromCheckpoint {
		t.Error("restart did not recover from the periodic checkpoint")
	}
	if got := countCustomers(t, db2); got != want {
		t.Errorf("recovered %d customers, want %d", got, want)
	}
}

// TestFailedOpenLeaksNoDescriptors: an Open that fails closes every file it
// opened. A server restarting in a loop against a bad log used to leak the
// data file on each attempt, and the log file as well when replay failed.
func TestFailedOpenLeaksNoDescriptors(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	openFDs := func() int {
		t.Helper()
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()

	// A log whose committed UPDATE names a row nothing inserted: replay fails
	// with catalog.ErrNoMatchingRow once the data file and the log are open.
	diverged := filepath.Join(dir, "diverged.wal")
	w, err := txn.OpenWALFile(diverged)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []txn.Record{
		{Kind: txn.RecordBegin, Txn: 1},
		{Kind: txn.RecordDDL, Txn: 1, DDL: replLedgerDDL},
		{Kind: txn.RecordCommit, Txn: 1},
		{Kind: txn.RecordBegin, Txn: 2},
		{Kind: txn.RecordUpdate, Txn: 2, Table: "ledger", Old: ledgerRow(1, "ada", 100), New: ledgerRow(1, "ada", 150)},
		{Kind: txn.RecordCommit, Txn: 2},
	} {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, wal string
		want      error // nil: any error
	}{
		{"replay of an unmatched UPDATE", diverged, catalog.ErrNoMatchingRow},
		{"log path is a directory", dir, nil},
	}
	for _, c := range cases {
		before := openFDs()
		for i := 0; i < 20; i++ {
			db, err := Open(Options{DataPath: filepath.Join(dir, "db.data"), WALPath: c.wal})
			if err == nil {
				db.Close()
				t.Fatalf("%s: Open succeeded", c.name)
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("%s: Open = %v, want %v", c.name, err, c.want)
			}
		}
		if after := openFDs(); after != before {
			t.Errorf("%s: 20 failed opens left %d descriptors open", c.name, after-before)
		}
	}
}

// TestRecoverFilesCopiedWhileOpen: the files as they stand after the last
// acknowledged commit — copied with the database still open, no clean
// shutdown — recover every row concurrent committers committed, from the
// checkpoint image plus the log tail. Only the log and its checkpoint file
// are copied: the page file is a spill cache nothing recovers from. (That
// those committers share fsyncs is txn's
// TestGroupCommitBatchesConcurrentCommitters.)
func TestRecoverFilesCopiedWhileOpen(t *testing.T) {
	const committers, rowsEach = 8, 30
	files := []string{"ledger.wal", "ledger.wal.ckpt"}
	options := func(dir string) Options {
		return Options{DataPath: filepath.Join(dir, "ledger.db"), WALPath: filepath.Join(dir, files[0])}
	}
	dir := t.TempDir()
	db, err := Open(options(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Session().Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}

	// commitPhase runs the committers once; phase numbers keep ids unique.
	commitPhase := func(phase int) {
		var wg sync.WaitGroup
		errs := make(chan error, committers)
		for w := 0; w < committers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := db.Session()
				defer s.Close()
				ins, err := s.Prepare("INSERT INTO ledger (id, owner, amount) VALUES (?, ?, ?)")
				if err != nil {
					errs <- err
					return
				}
				defer ins.Close()
				for i := 0; i < rowsEach; i++ {
					id := (phase*committers+w)*rowsEach + i + 1
					if _, err := ins.Exec(intv(id), strv("committer"), intv(i)); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	commitPhase(0)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitPhase(1) // lives only in the log tail

	crashDir := t.TempDir()
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := Open(options(crashDir))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	res, err := recovered.Session().Query("SELECT COUNT(*) FROM ledger")
	if err != nil {
		t.Fatal(err)
	}
	const perPhase = committers * rowsEach
	if got := res.Rows[0][0].Int(); got != 2*perPhase {
		t.Errorf("recovered %d rows from the copied files, want %d: committed rows lost", got, 2*perPhase)
	}
	if info := recovered.Recovery(); !info.FromCheckpoint || info.ImageRows != perPhase {
		t.Errorf("recovery = %+v, want replay from the checkpoint image of %d rows", info, perPhase)
	}
}

// TestRestartFootprintIsFlat: the log is the only durable state. After every
// close the database's directory holds the log and its checkpoint file and
// nothing else, and a restart that writes nothing leaves it byte for byte the
// size it was. A page file flushed at checkpoint and close, and appended
// after its own orphans on every reopen, grew on each restart.
func TestRestartFootprintIsFlat(t *testing.T) {
	dir := t.TempDir()
	// A pool smaller than the data, so pages do spill while the database is
	// open.
	const poolPages = 8
	opts := Options{DataPath: filepath.Join(dir, "db.data"), WALPath: filepath.Join(dir, "db.wal")}
	footprint := func(when string) int64 {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() != "db.wal" && e.Name() != "db.wal.ckpt" {
				t.Errorf("%s: %s (%d bytes) left beside the log", when, e.Name(), info.Size())
			}
			total += info.Size()
		}
		return total
	}
	const rowsPerRound = 300
	for round := 0; round < 5; round++ {
		db, err := open(opts, poolPages)
		if err != nil {
			t.Fatal(err)
		}
		s := db.Session()
		if round == 0 {
			if _, err := s.Execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)"); err != nil {
				t.Fatal(err)
			}
		}
		ins, err := s.Prepare("INSERT INTO notes (id, body) VALUES (?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rowsPerRound; i++ {
			if _, err := ins.Exec(intv(round*rowsPerRound+i), strv(strings.Repeat("n", 400))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st := db.pool.Stats(); st.Evictions == 0 {
			t.Fatalf("round %d: no page spilled (%+v); the pool is too large for the test", round, st)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		written := footprint(fmt.Sprintf("round %d", round))

		// Reopen, recover, close: nothing written, nothing grown.
		db, err = open(opts, poolPages)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Session().Query("SELECT COUNT(*) FROM notes")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Rows[0][0].Int(), int64((round+1)*rowsPerRound); got != want {
			t.Fatalf("round %d: recovered %d rows, want %d", round, got, want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if again := footprint(fmt.Sprintf("round %d restart", round)); again != written {
			t.Fatalf("round %d: a restart that wrote nothing grew the directory %d -> %d bytes", round, written, again)
		}
	}
}

// TestImageInstallFetchesEachPageOnce counts the bulk install of a
// checkpoint image. Recovering 24 000 image rows into a table with two
// indexes must cost the buffer pool one fetch per heap page it fills, plus a
// small constant, where installing row by row fetched the last page once per
// row.
func TestImageInstallFetchesEachPageOnce(t *testing.T) {
	const rows = 24000
	walPath := filepath.Join(t.TempDir(), "wow.wal")
	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	for _, q := range []string{
		"CREATE TABLE big (id INT PRIMARY KEY, grp INT, pad TEXT)",
		"CREATE INDEX big_grp ON big (grp)",
	} {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	ins, err := s.Prepare("INSERT INTO big VALUES (?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]types.Value, 0, 1000)
	for i := 0; i < rows; i++ {
		batch = append(batch, []types.Value{intv(i), intv(i % 97), strv(strings.Repeat("p", i%40))})
		if len(batch) == cap(batch) {
			if _, err := ins.ExecBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(s.Close(), db.Close()); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fetches := db.Stats().BufferPool
	if rec := db.Recovery(); rec.ImageRows != rows || rec.TailApplied != 0 {
		t.Fatalf("recovery = %+v, want %d image rows and no tail", rec, rows)
	}
	table, err := db.Catalog().GetTable("big")
	if err != nil {
		t.Fatal(err)
	}
	pages := map[storage.PageID]bool{}
	for it := table.VersionIterator(); ; {
		rid, _, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pages[rid.Page] = true
	}
	if got, limit := fetches.Hits+fetches.Misses, uint64(len(pages)+4); got > limit {
		t.Errorf("recovering %d rows on %d heap pages fetched %d pages, want at most %d", rows, len(pages), got, limit)
	}
	for _, idx := range table.Indexes() {
		if n := idx.Tree.CountRange(btree.Range{}); n != rows {
			t.Errorf("index %s holds %d entries after recovery, want %d", idx.Name, n, rows)
		}
	}
}

// TestCheckpointAndCloseWriteNoPages: a checkpoint and a clean shutdown write
// no page, however many dirty frames the pool holds. A page reaches the disk
// only when the pool evicts it.
func TestCheckpointAndCloseWriteNoPages(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataPath: filepath.Join(dir, "db.data"), WALPath: filepath.Join(dir, "db.wal")})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.ExecuteScript(seedSchema); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO customers (id, name) VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := ins.Exec(intv(1000+i), strv("dirty")); err != nil {
			t.Fatal(err)
		}
	}
	// Every page the inserts allocated is a dirty frame, and none has left
	// the pool.
	before := db.pool.Stats()
	if before.Evictions != 0 || before.Writes != 0 {
		t.Fatalf("pages left the pool before the checkpoint: %+v", before)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.pool.Stats().Writes; got != before.Writes {
		t.Errorf("Checkpoint wrote %d pages, want none", got-before.Writes)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := db.pool.Stats().Writes; got != before.Writes {
		t.Errorf("Checkpoint and Close wrote %d pages, want none", got-before.Writes)
	}
}

// TestOpenClosesTransactionsTheLogLeftOpen: a crash image whose log holds a
// BEGIN with no COMMIT or ABORT — a transaction cut short — reopens with an
// ABORT for it appended, so the log closes every transaction it opens. A
// second reopen finds nothing open and writes nothing, and an applier fed the
// whole log from offset 0, as a replica is, ends with nothing adopted and no
// unsettled version.
func TestOpenClosesTransactionsTheLogLeftOpen(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "db.wal")
	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	for _, stmt := range []string{
		replLedgerDDL,
		"INSERT INTO ledger VALUES (1, 'ada', 100)",
		"INSERT INTO ledger VALUES (2, 'bob', 100)",
		"BEGIN",
		"INSERT INTO ledger VALUES (3, 'eve', 5)",
		"UPDATE ledger SET amount = 0 WHERE id = 1",
	} {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	// The crash image: the log as it stands with the transaction open, its
	// records written as another transaction's commit would write them.
	if err := db.Transactions().WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	crashPath := filepath.Join(t.TempDir(), "db.wal")
	if err := os.WriteFile(crashPath, image, 0o644); err != nil {
		t.Fatal(err)
	}
	openID := lastBegin(t, crashPath)

	want := []string{"1:ada:100", "2:bob:100"}
	reopen := func(when string) int64 {
		t.Helper()
		rdb, err := Open(Options{WALPath: crashPath})
		if err != nil {
			t.Fatal(err)
		}
		rs := rdb.Session()
		if got := ledgerRows(t, rs); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: ledger reads %v, want %v", when, got, want)
		}
		rs.Close()
		if n := rdb.Stats().UnsettledVersions; n != 0 {
			t.Errorf("%s: %d unsettled versions", when, n)
		}
		if err := rdb.Close(); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(crashPath)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	first := reopen("first reopen")
	load, err := txn.LoadLog(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if last := load.Tail[len(load.Tail)-1]; last.Kind != txn.RecordAbort || last.Txn != openID {
		t.Errorf("the reopened log ends in %s of transaction %d, want ABORT of %d", last.Kind, last.Txn, openID)
	}
	if second := reopen("second reopen"); second != first {
		t.Errorf("a reopen with nothing open grew the log %d -> %d bytes", first, second)
	}

	replica := OpenMemory()
	defer replica.Close()
	a := replica.Follow()
	if err := apply(a, load.Tail...); err != nil {
		t.Fatal(err)
	}
	if open, err := a.AbortOpen(nil); err != nil || len(open) != 0 {
		t.Errorf("the applier fed the reopened log keeps %v adopted (%v)", open, err)
	}
	if n := replica.Stats().UnsettledVersions; n != 0 {
		t.Errorf("the applier fed the reopened log left %d unsettled versions", n)
	}
	rs := replica.Session()
	defer rs.Close()
	if got := ledgerRows(t, rs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the applier's ledger reads %v, want %v", got, want)
	}
}

// TestUncommittedDDLIsNotRecovered: a crash between a DDL record's append and
// its COMMIT leaves BEGIN + DDL with no COMMIT in the log. The statement did
// not commit, so recovery must not run it: a CREATE leaves no table behind
// (rows committed into it would reach a checkpoint image that has no CREATE
// for them), and a DROP loses no committed row. A checkpoint after the
// reopen, and the reopen after it, succeed.
func TestUncommittedDDLIsNotRecovered(t *testing.T) {
	for _, ddl := range []string{"CREATE TABLE x (id INT PRIMARY KEY)", "DROP TABLE ledger"} {
		t.Run(ddl, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "db.wal")
			db, err := Open(Options{WALPath: walPath})
			if err != nil {
				t.Fatal(err)
			}
			s := db.Session()
			for _, stmt := range []string{replLedgerDDL, "INSERT INTO ledger VALUES (1, 'ada', 100)"} {
				if _, err := s.Execute(stmt); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			// The crash image: the DDL's BEGIN and record, and no COMMIT.
			id := lastBegin(t, walPath) + 1
			w, err := txn.OpenWALFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []txn.Record{{Kind: txn.RecordBegin, Txn: id}, {Kind: txn.RecordDDL, Txn: id, DDL: ddl}} {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			want := []string{"1:ada:100"}
			for _, when := range []string{"reopen", "reopen after a checkpoint"} {
				rdb, err := Open(Options{WALPath: walPath})
				if err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				rs := rdb.Session()
				if got := ledgerRows(t, rs); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: ledger reads %v, want %v", when, got, want)
				}
				if _, err := rs.Query("SELECT COUNT(*) FROM x"); err == nil {
					t.Errorf("%s: table x exists", when)
				}
				rs.Close()
				if _, err := rdb.Checkpoint(); err != nil {
					t.Fatalf("%s: checkpoint: %v", when, err)
				}
				if err := rdb.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// lastBegin returns the id of the last BEGIN in the log at path.
func lastBegin(t *testing.T, path string) uint64 {
	t.Helper()
	load, err := txn.LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	for _, r := range load.Tail {
		if r.Kind == txn.RecordBegin {
			id = r.Txn
		}
	}
	return id
}

// TestDDLRefusedInsideATransaction: a schema statement changes the catalog at
// once and commits on its own, so inside an explicit transaction it is
// refused with ErrDDLInTransaction before it changes anything — the catalog
// and the log stay as they were, and a ROLLBACK leaves no table behind that
// a restart would lose.
func TestDDLRefusedInsideATransaction(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "db.wal")
	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.Execute(replLedgerDDL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	tables, logSize := db.cat.TableNames(), db.wal.Size()
	for _, ddl := range []string{
		"CREATE TABLE x (id INT PRIMARY KEY)",
		"CREATE INDEX ledger_owner ON ledger (owner)",
		"CREATE VIEW rich AS SELECT id FROM ledger WHERE amount > 100",
		"DROP TABLE ledger",
	} {
		if _, err := s.Execute(ddl); !errors.Is(err, ErrDDLInTransaction) {
			t.Errorf("%s inside BEGIN = %v, want ErrDDLInTransaction", ddl, err)
		}
	}
	if got := db.cat.TableNames(); fmt.Sprint(got) != fmt.Sprint(tables) {
		t.Errorf("tables %v after the refusals, want %v", got, tables)
	}
	ledger, err := db.cat.GetTable("ledger")
	if err != nil || len(ledger.Indexes()) != 1 {
		t.Errorf("ledger after the refusals: %v, err %v; want it with its primary key alone", ledger, err)
	}
	if _, err := db.cat.GetView("rich"); err == nil {
		t.Error("the refused CREATE VIEW registered the view")
	}
	if got := db.wal.Size(); got != logSize {
		t.Errorf("the refusals grew the log %d -> %d bytes", logSize, got)
	}
	if _, err := s.Execute("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT COUNT(*) FROM x"); err == nil {
		t.Error("table x exists after its CREATE was refused")
	}
	if _, err := s.Execute("CREATE TABLE x (id INT PRIMARY KEY)"); err != nil {
		t.Errorf("CREATE TABLE outside a transaction = %v", err)
	}
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
