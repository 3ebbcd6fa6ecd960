package txn

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// crashMedium is a WAL sink with an explicit durability line: Write appends
// to written, Sync advances synced to cover it. written[:synced] is what a
// crash at any moment is guaranteed to preserve — replaying prefixes of
// written between synced and its full length models every possible kill
// point before, inside and after an fsync.
type crashMedium struct {
	mu       sync.Mutex
	written  []byte
	synced   int
	syncs    int
	failSync error
	// syncEntered (when non-nil) is signalled once when a Sync begins, and
	// syncGate (when non-nil) blocks Sync until closed — for tests that need
	// to observe the world while a commit's fsync is in flight.
	syncEntered chan struct{}
	syncGate    chan struct{}
	syncDelay   time.Duration
}

func (c *crashMedium) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.written = append(c.written, p...)
	return len(p), nil
}

func (c *crashMedium) Sync() error {
	c.mu.Lock()
	entered, gate := c.syncEntered, c.syncGate
	c.syncEntered = nil
	delay, fail := c.syncDelay, c.failSync
	c.mu.Unlock()
	if entered != nil {
		close(entered)
	}
	if gate != nil {
		<-gate
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return fail
	}
	c.mu.Lock()
	c.synced = len(c.written)
	c.syncs++
	c.mu.Unlock()
	return nil
}

func (c *crashMedium) snapshot() (written []byte, synced int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.written...), c.synced
}

// replayBytes recovers a fresh catalog from raw log bytes and returns the
// recovered accounts table.
func replayBytes(t *testing.T, data []byte) *catalog.Table {
	t.Helper()
	records := readLog(t, bytes.NewReader(data))
	// The schema is created up front (not every scenario logs DDL), so the
	// replayed DDL callback is a no-op.
	cat, _ := newCatalogWithAccounts(t)
	a := NewApplier(NewManager(nil), cat, func(string) error { return nil })
	if _, err := ReplayLog(a, nil, records); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AbortOpen(nil); err != nil {
		t.Fatal(err)
	}
	table, err := cat.GetTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func accountIDs(t *testing.T, table *catalog.Table) map[int64]bool {
	t.Helper()
	ids := map[int64]bool{}
	for _, row := range liveTuples(t, table) {
		ids[row[0].Int()] = true
	}
	return ids
}

func mustInsert(t *testing.T, tx *Txn, table *catalog.Table, id int64) {
	t.Helper()
	_, err := tx.Insert(table, types.Tuple{types.NewInt(id), types.NewString("x"), types.NewFloat(1)})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommitNotDurableReleasesEverything is the failing-fsync satellite: a
// commit whose durability fails must report ErrCommitNotDurable, physically
// undo its changes, and release its locks, snapshot and active-set entry —
// the seed leaked all of them forever and reported the txn committed.
func TestCommitNotDurableReleasesEverything(t *testing.T) {
	boom := errors.New("disk on fire")
	medium := &crashMedium{failSync: boom}
	mgr := NewManager(NewWAL(medium))
	_, accounts := newCatalogWithAccounts(t)

	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tx, accounts, 1)

	err = tx.Commit()
	if !errors.Is(err, ErrCommitNotDurable) {
		t.Fatalf("Commit error = %v, want ErrCommitNotDurable", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("Commit error %v does not wrap the fsync cause", err)
	}
	if stateOf(tx) != StateAborted {
		t.Errorf("state after failed commit = %v, want aborted", stateOf(tx))
	}
	if activeCount(mgr) != 0 {
		t.Errorf("active transactions = %d after failed commit, want 0", activeCount(mgr))
	}
	if len(liveTuples(t, accounts)) != 0 {
		t.Errorf("row survived a failed commit: RowCount = %d", len(liveTuples(t, accounts)))
	}
	if h := mgr.horizon(); h != mgr.lastID+1 {
		t.Errorf("GC horizon %d pinned after failed commit (want %d)", h, mgr.lastID+1)
	}

	// The locks and unique-key claims must be gone: a new transaction can
	// take the same primary key. Its commit fails too — fsync failure is
	// sticky, nothing may claim durability after it — but fast and typed.
	tx2, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tx2, accounts, 1)
	if err := tx2.Commit(); !errors.Is(err, ErrCommitNotDurable) {
		t.Fatalf("commit after poisoned log = %v, want ErrCommitNotDurable", err)
	}
}

// TestCommitVisibleOnlyAfterDurable is the visible-before-durable satellite:
// while a commit's fsync is still in flight, no snapshot may see its rows.
func TestCommitVisibleOnlyAfterDurable(t *testing.T) {
	medium := &crashMedium{
		syncEntered: make(chan struct{}),
		syncGate:    make(chan struct{}),
	}
	mgr := NewManager(NewWAL(medium))
	_, accounts := newCatalogWithAccounts(t)

	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, tx, accounts, 1)

	entered := medium.syncEntered
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	<-entered // the commit record is appended, its fsync is in flight

	if st := stateOf(tx); st != StateCommitting {
		t.Errorf("state during fsync = %v, want committing", st)
	}
	snap := mgr.AcquireSnapshot()
	visible := 0
	it := accounts.VersionIterator()
	for {
		_, meta, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if snap.Visible(meta) {
			visible++
		}
	}
	snap.Release()
	if visible != 0 {
		t.Errorf("%d rows visible while the commit fsync is in flight, want 0", visible)
	}

	close(medium.syncGate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stateOf(tx) != StateCommitted {
		t.Errorf("state after durable commit = %v", stateOf(tx))
	}
	snap = mgr.AcquireSnapshot()
	defer snap.Release()
	it = accounts.VersionIterator()
	visible = 0
	for {
		_, meta, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if snap.Visible(meta) {
			visible++
		}
	}
	if visible != 1 {
		t.Errorf("%d rows visible after durable commit, want 1", visible)
	}
}

// TestCrashRecoveryMatrix kills the database at every byte between the last
// acknowledged fsync and the end of the log buffer — covering kill points
// before, inside and after the commit fsync — and asserts the recovery
// invariant at each: acknowledged commits survive, unacknowledged
// transactions never appear, and torn tails never block recovery.
func TestCrashRecoveryMatrix(t *testing.T) {
	medium := &crashMedium{}
	mgr := NewManager(NewWAL(medium))
	_, accounts := newCatalogWithAccounts(t)

	// t1 commits and is acknowledged: it must survive every kill point.
	t1, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.LogDDL("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)"); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, t1, accounts, 1)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	_, ackedLine := medium.snapshot()

	// t2 writes but never reaches its commit fsync: whatever prefix of its
	// records a crash preserves, recovery must not apply them.
	t2, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, t2, accounts, 2)

	// t3 commits after t2's dangling writes; its fsync also covers them
	// physically, but only t3 gains a commit record.
	t3, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, t3, accounts, 3)
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}

	written, synced := medium.snapshot()
	if synced != len(written) {
		t.Fatalf("synced %d != written %d after final commit", synced, len(written))
	}

	sawT3 := false
	for cut := ackedLine; cut <= len(written); cut++ {
		table := replayBytes(t, written[:cut])
		ids := accountIDs(t, table)
		if !ids[1] {
			t.Fatalf("cut %d: acknowledged commit t1 lost (ids %v)", cut, ids)
		}
		if ids[2] {
			t.Fatalf("cut %d: uncommitted t2 row resurrected (ids %v)", cut, ids)
		}
		if ids[3] {
			sawT3 = true
		}
	}
	if !sawT3 {
		t.Error("t3 never recovered even from the full log")
	}
	// At the full log every acknowledged commit is present.
	ids := accountIDs(t, replayBytes(t, written))
	if !ids[1] || !ids[3] || ids[2] {
		t.Errorf("full-log recovery ids = %v, want {1,3}", ids)
	}
}

// TestGroupCommitBatchesConcurrentCommitters: N concurrent committers must
// complete with far fewer fsyncs than commits, every commit durable.
func TestGroupCommitBatchesConcurrentCommitters(t *testing.T) {
	medium := &crashMedium{syncDelay: time.Millisecond}
	wal := NewWAL(medium)
	mgr := NewManager(wal)
	_, accounts := newCatalogWithAccounts(t)

	const workers = 8
	const perWorker = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx, err := mgr.Begin()
				if err != nil {
					errs <- err
					return
				}
				if _, err := tx.Insert(accounts, types.Tuple{
					types.NewInt(int64(w*perWorker + i + 1)), types.NewString("w"), types.NewFloat(1),
				}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
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

	const commits = workers * perWorker
	stats := wal.Stats()
	if stats.GroupCommitBatches+stats.FsyncsSaved != commits {
		t.Errorf("batches %d + saved %d != %d commits",
			stats.GroupCommitBatches, stats.FsyncsSaved, commits)
	}
	if stats.FsyncsSaved == 0 {
		t.Errorf("no commit rode a shared fsync across %d concurrent commits", commits)
	}
	if stats.GroupCommitBatches >= commits {
		t.Errorf("group commit issued %d fsyncs for %d commits", stats.GroupCommitBatches, commits)
	}

	// Every acknowledged commit is durable: the synced prefix replays all rows.
	written, synced := medium.snapshot()
	table := replayBytes(t, written[:synced])
	if got := len(liveTuples(t, table)); got != commits {
		t.Errorf("recovered %d rows from the durable prefix, want %d", got, commits)
	}
}

// TestCheckpointImageRoundTrip exercises the image codec.
func TestCheckpointImageRoundTrip(t *testing.T) {
	img := &CheckpointImage{
		Xmax:   42,
		Active: []uint64{7, 9},
		Start:  12345,
		DDL:    []string{"CREATE TABLE a (id INT PRIMARY KEY)", "CREATE INDEX a_idx ON a (id)"},
		Tables: []CheckpointTable{{
			Name:  "a",
			Xmins: []uint64{3, 0},
			Rows: []types.Tuple{
				{types.NewInt(1), types.NewString("x")},
				{types.NewInt(2), types.NewString("y")},
			},
		}},
	}
	decoded, err := decodeCheckpointImage(encodeCheckpointImage(img))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Xmax != img.Xmax || decoded.Start != img.Start {
		t.Errorf("xmax/start = %d/%d", decoded.Xmax, decoded.Start)
	}
	if len(decoded.Active) != 2 || decoded.Active[0] != 7 || decoded.Active[1] != 9 {
		t.Errorf("active = %v", decoded.Active)
	}
	if len(decoded.DDL) != 2 || decoded.DDL[0] != img.DDL[0] || decoded.DDL[1] != img.DDL[1] {
		t.Errorf("ddl = %v", decoded.DDL)
	}
	if len(decoded.Tables) != 1 || decoded.Tables[0].Name != "a" || len(decoded.Tables[0].Rows) != 2 {
		t.Fatalf("tables = %+v", decoded.Tables)
	}
	if decoded.Tables[0].Xmins[0] != 3 || decoded.Tables[0].Xmins[1] != 0 {
		t.Errorf("xmins = %v", decoded.Tables[0].Xmins)
	}
	if !decoded.Tables[0].Rows[1].Equal(img.Tables[0].Rows[1]) {
		t.Error("row image mismatch")
	}
	if decoded.sees(7) || decoded.sees(42) || !decoded.sees(8) || !decoded.sees(0) {
		t.Error("sees() wrong on decoded image")
	}
}

// TestCheckpointAndTailReplay: a checkpoint taken mid-stream must let
// recovery rebuild the same state from image + tail that a full replay
// produces — including a transaction that was still in flight at checkpoint
// time and committed after.
func TestCheckpointAndTailReplay(t *testing.T) {
	medium := &crashMedium{}
	wal := NewWAL(medium)
	mgr := NewManager(wal)
	cat, accounts := newCatalogWithAccounts(t)

	ddl := "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)"
	t1, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.LogDDL(ddl); err != nil {
		t.Fatal(err)
	}
	mustInsert(t, t1, accounts, 1)
	mustInsert(t, t1, accounts, 2)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	// t2 is mid-flight across the checkpoint: one row before, one after.
	t2, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, t2, accounts, 10)

	st, err := mgr.Checkpoint(cat)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 2 || st.Tables != 1 {
		t.Errorf("checkpoint captured %d rows / %d tables, want 2 / 1", st.Rows, st.Tables)
	}

	mustInsert(t, t2, accounts, 11)
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// t3 begins and commits entirely after the checkpoint.
	t3, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustInsert(t, t3, accounts, 20)
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}

	written, _ := medium.snapshot()
	scan, err := scanLog(bytes.NewReader(written), 0)
	if err != nil {
		t.Fatal(err)
	}
	var image *CheckpointImage
	var imageOff int64
	for i, r := range scan.Records {
		if r.Kind == RecordCheckpoint {
			image, err = decodeCheckpointImage(r.Image)
			if err != nil {
				t.Fatal(err)
			}
			imageOff = scan.Offsets[i]
		}
	}
	if image == nil {
		t.Fatal("no checkpoint record in log")
	}
	if image.Start > imageOff {
		t.Fatalf("image start %d past its own frame %d", image.Start, imageOff)
	}
	// t2 was active: the tail must start at or before its Begin record.
	if len(image.Active) != 1 {
		t.Fatalf("image active = %v, want exactly t2", image.Active)
	}

	// Replay image + tail into a fresh catalog.
	var tail []Record
	for i, r := range scan.Records {
		if scan.Offsets[i] >= image.Start {
			tail = append(tail, r)
		}
	}
	fresh := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 256))
	applyDDL := func(string) error {
		_, err := fresh.CreateTable("accounts", types.NewSchema(
			types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
			types.Column{Name: "owner", Type: types.KindString},
			types.Column{Name: "balance", Type: types.KindFloat},
		))
		return err
	}
	mgr2 := NewManager(nil)
	stats, err := ReplayLog(NewApplier(mgr2, fresh, applyDDL), image, tail)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ImageRows != 2 {
		t.Errorf("image rows applied = %d, want 2", stats.ImageRows)
	}
	table, err := fresh.GetTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	ids := accountIDs(t, table)
	for _, want := range []int64{1, 2, 10, 11, 20} {
		if !ids[want] {
			t.Errorf("row %d missing after image+tail replay (ids %v)", want, ids)
		}
	}
	if len(ids) != 5 {
		t.Errorf("replay produced %d rows, want 5: %v", len(ids), ids)
	}
	if mgr2.lastID != 3 {
		t.Errorf("recovered id sequence at %d, want 3", mgr2.lastID)
	}
	if len(mgr2.ddlHistory) != 1 || mgr2.ddlHistory[0] != ddl {
		t.Errorf("recovered DDL history = %v", mgr2.ddlHistory)
	}
}
