package txn

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

func newCatalogWithAccounts(t testing.TB) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 256))
	accounts, err := cat.CreateTable("accounts", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "owner", Type: types.KindString},
		types.Column{Name: "balance", Type: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	return cat, accounts
}

func TestLockManagerRowLocksAreIndependent(t *testing.T) {
	lm := NewLockManager()
	r1 := storage.RecordID{Page: 1, Slot: 0}
	r2 := storage.RecordID{Page: 1, Slot: 1}
	if err := lm.LockRow(1, "t", r1); err != nil {
		t.Fatal(err)
	}
	// A different row never blocks: locks are per version, not per table.
	if err := lm.LockRow(2, "t", r2); err != nil {
		t.Fatalf("different rows must not conflict: %v", err)
	}
	// Re-acquiring an already-held lock is a no-op.
	if err := lm.LockRow(1, "t", r1); err != nil {
		t.Fatalf("re-entrant lock: %v", err)
	}
	if got := lm.HeldCount(1); got != 1 {
		t.Errorf("HeldCount(1) = %d, want 1", got)
	}
	lm.ReleaseAll(1)
	if got := lm.HeldCount(1); got != 0 {
		t.Errorf("HeldCount(1) after release = %d, want 0", got)
	}
}

func TestLockManagerWaitsForRelease(t *testing.T) {
	lm := NewLockManager()
	rid := storage.RecordID{Page: 1, Slot: 0}
	if err := lm.LockRow(1, "t", rid); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- lm.LockRow(2, "t", rid)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("waiter acquired a held lock: %v", err)
	default:
	}
	lm.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter should acquire after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke up")
	}
	waits, _ := lm.Stats()
	if waits == 0 {
		t.Errorf("waits = %d, want > 0", waits)
	}
}

func TestLockManagerKeyLocks(t *testing.T) {
	lm := NewLockManager()
	if err := lm.LockKey(1, "t", "t_pk", []byte("k")); err != nil {
		t.Fatal(err)
	}
	// A different key on the same index never blocks.
	if err := lm.LockKey(2, "t", "t_pk", []byte("other")); err != nil {
		t.Fatalf("different keys must not conflict: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- lm.LockKey(2, "t", "t_pk", []byte("k"))
	}()
	time.Sleep(10 * time.Millisecond)
	lm.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatalf("key waiter after release: %v", err)
	}
}

// TestLockManagerDetectsDeadlock is the acceptance check for the waits-for
// graph: a two-transaction cycle must fail one of the requests with
// ErrDeadlock well under 100ms — there is no timeout to ride out.
func TestLockManagerDetectsDeadlock(t *testing.T) {
	lm := NewLockManager()
	rA := storage.RecordID{Page: 1, Slot: 0}
	rB := storage.RecordID{Page: 1, Slot: 1}
	if err := lm.LockRow(1, "t", rA); err != nil {
		t.Fatal(err)
	}
	if err := lm.LockRow(2, "t", rB); err != nil {
		t.Fatal(err)
	}
	// Txn 2 blocks on A (held by 1). Then txn 1 requesting B closes the cycle.
	go func() {
		if err := lm.LockRow(2, "t", rA); err != nil {
			t.Errorf("victim should be the cycle-closing requester, not the sleeper: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let txn 2 publish its wait edge
	start := time.Now()
	err := lm.LockRow(1, "t", rB)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cycle-closing request = %v, want ErrDeadlock", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("deadlock detected in %v, want < 100ms", elapsed)
	}
	_, deadlocks := lm.Stats()
	if deadlocks != 1 {
		t.Errorf("deadlocks = %d, want 1", deadlocks)
	}
	// Unblock the sleeping waiter so the goroutine exits.
	lm.ReleaseAll(1)
}

func TestTxnCommitAndStats(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(nil)
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if tx.State() != StateActive || tx.ID() == 0 {
		t.Errorf("fresh txn state = %v id = %d", tx.State(), tx.ID())
	}
	if _, err := tx.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("ada"), types.NewFloat(100)}); err != nil {
		t.Fatal(err)
	}
	if mgr.ActiveCount() != 1 {
		t.Errorf("ActiveCount = %d", mgr.ActiveCount())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != StateCommitted {
		t.Errorf("state = %v", tx.State())
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Errorf("double commit = %v", err)
	}
	if accounts.RowCount() != 1 {
		t.Errorf("RowCount = %d", accounts.RowCount())
	}
	committed, aborted := mgr.Stats()
	if committed != 1 || aborted != 0 {
		t.Errorf("stats = %d, %d", committed, aborted)
	}
}

func TestTxnRollbackUndoesEverything(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(nil)

	// Seed one committed row.
	seed, _ := mgr.Begin()
	seedRID, err := seed.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("ada"), types.NewFloat(100)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, _ := mgr.Begin()
	// Insert a row, update the seeded row, delete the seeded row... then roll
	// it all back.
	if _, err := tx.Insert(accounts, types.Tuple{types.NewInt(2), types.NewString("bob"), types.NewFloat(50)}); err != nil {
		t.Fatal(err)
	}
	newRID, err := tx.Update(accounts, seedRID, types.Tuple{types.NewInt(1), types.NewString("ada"), types.NewFloat(999)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(accounts, newRID); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != StateAborted {
		t.Errorf("state = %v", tx.State())
	}

	// The table must contain exactly the seeded row with its original balance.
	if accounts.RowCount() != 1 {
		t.Fatalf("RowCount after rollback = %d", accounts.RowCount())
	}
	var got types.Tuple
	_ = accounts.Scan(func(_ storage.RecordID, tuple catalog.Tuple) error {
		got = tuple
		return nil
	})
	if got[0].Int() != 1 || got[2].Float() != 100 {
		t.Errorf("row after rollback = %v", got)
	}
	_, aborted := mgr.Stats()
	if aborted != 1 {
		t.Errorf("aborted = %d", aborted)
	}
}

// TestConcurrentInsertsDoNotBlock: the scenario that timed out under table
// locks. Two transactions inserting different keys into the same table
// proceed concurrently; only a duplicate unique key would make them touch.
func TestConcurrentInsertsDoNotBlock(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(nil)
	t1, _ := mgr.Begin()
	t2, _ := mgr.Begin()
	if _, err := t1.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Insert(accounts, types.Tuple{types.NewInt(2), types.NewString("b"), types.NewFloat(2)}); err != nil {
		t.Fatalf("inserts of different keys must not conflict: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if accounts.RowCount() != 2 {
		t.Errorf("RowCount = %d", accounts.RowCount())
	}
}

// TestTxnWriteConflict: first-updater-wins. A transaction that sets out to
// change a version already superseded by a committed transaction fails with
// ErrWriteConflict instead of silently losing the other update.
func TestTxnWriteConflict(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(nil)
	seed, _ := mgr.Begin()
	rid, err := seed.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(100)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	t1, _ := mgr.Begin()
	t2, _ := mgr.Begin() // t2's snapshot still sees the seed version
	if _, err := t1.Update(accounts, rid, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(150)}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Update(accounts, rid, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(50)}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second updater = %v, want ErrWriteConflict", err)
	}
	if err := t2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.MVCC().WriteConflicts; got != 1 {
		t.Errorf("WriteConflicts = %d, want 1", got)
	}
	// Deleting the superseded version conflicts the same way.
	t3, _ := mgr.Begin()
	if err := t3.Delete(accounts, rid); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("delete of superseded version = %v, want ErrWriteConflict", err)
	}
	_ = t3.Rollback()
}

// findVisible scans for the live row with the given id as seen by the
// transaction's snapshot, returning its record id and tuple.
func findVisible(tx *Txn, table *catalog.Table, id int64) (storage.RecordID, types.Tuple, bool, error) {
	it := table.VersionIterator()
	for {
		rid, meta, tuple, ok, err := it.Next()
		if err != nil || !ok {
			return storage.RecordID{}, nil, false, err
		}
		if !tx.Snapshot().Visible(meta) {
			continue
		}
		if tuple[0].Int() == id {
			return rid, tuple, true, nil
		}
	}
}

// TestConcurrentTransfersPreserveTotal is the classic bank-transfer invariant
// under MVCC: workers read their snapshot, claim the versions they change,
// and retry on write conflicts or deadlocks. No transfer may be lost or
// duplicated, so the total is conserved.
func TestConcurrentTransfersPreserveTotal(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(NewWAL(&bytes.Buffer{}))
	seed, _ := mgr.Begin()
	if _, err := seed.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(1000)}); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Insert(accounts, types.Tuple{types.NewInt(2), types.NewString("b"), types.NewFloat(1000)}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	workers := 8
	transfers := 20
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				// Retry until the transfer commits: a conflicting writer that
				// got to a version first aborts us, never blocks us forever.
				for {
					tx, err := mgr.Begin()
					if err != nil {
						t.Error(err)
						return
					}
					ridA, a, okA, errA := findVisible(tx, accounts, 1)
					ridB, b, okB, errB := findVisible(tx, accounts, 2)
					if errA != nil || errB != nil || !okA || !okB {
						_ = tx.Rollback()
						continue
					}
					// Move 10 from a to b.
					newA := types.Tuple{a[0], a[1], types.NewFloat(a[2].Float() - 10)}
					newB := types.Tuple{b[0], b[1], types.NewFloat(b[2].Float() + 10)}
					if _, err := tx.Update(accounts, ridA, newA); err != nil {
						_ = tx.Rollback()
						continue
					}
					if _, err := tx.Update(accounts, ridB, newB); err != nil {
						_ = tx.Rollback()
						continue
					}
					if err := tx.Commit(); err != nil {
						t.Error(err)
						return
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	total := 0.0
	if err := accounts.Scan(func(_ storage.RecordID, tuple catalog.Tuple) error {
		total += tuple[2].Float()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 2000 {
		t.Errorf("total = %v, want 2000 (money must be conserved)", total)
	}
	// Every transfer committed exactly once.
	committed, _ := mgr.Stats()
	if want := uint64(workers*transfers + 1); committed != want {
		t.Errorf("committed = %d, want %d", committed, want)
	}
}

// TestVacuumReclaimsDeadVersions: superseded versions stay for live snapshots
// and are physically reclaimed once no snapshot can see them.
func TestVacuumReclaimsDeadVersions(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(nil)
	seed, _ := mgr.Begin()
	rid, err := seed.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(100)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	reader := mgr.AcquireSnapshot() // pins the seed version
	t1, _ := mgr.Begin()
	if _, err := t1.Update(accounts, rid, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(200)}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}

	// The old version is dead but pinned by the reader's snapshot.
	if n, err := mgr.Sweep(accounts, true); err != nil || n != 0 {
		t.Fatalf("sweep under a pinning snapshot reclaimed %d versions (%v), want 0", n, err)
	}
	if _, _, err := accounts.GetVersion(rid); err != nil {
		t.Fatalf("pinned version must survive: %v", err)
	}

	reader.Release()
	if n, err := mgr.Sweep(accounts, true); err != nil || n != 1 {
		t.Fatalf("sweep after release reclaimed %d versions (%v), want 1", n, err)
	}
	if _, _, err := accounts.GetVersion(rid); !errors.Is(err, storage.ErrRecordNotFound) {
		t.Fatalf("reclaimed version still readable: %v", err)
	}
	if got := mgr.MVCC().VersionsGCed; got != 1 {
		t.Errorf("VersionsGCed = %d, want 1", got)
	}
	if accounts.RowCount() != 1 {
		t.Errorf("RowCount = %d, want 1", accounts.RowCount())
	}
}

// TestSnapshotIsolationAcrossManagers: a snapshot taken before a concurrent
// commit keeps seeing the old state; a snapshot taken after sees the new one.
func TestSnapshotIsolation(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(nil)
	seed, _ := mgr.Begin()
	rid, _ := seed.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(100)})
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	old := mgr.AcquireSnapshot()
	defer old.Release()

	writer, _ := mgr.Begin()
	if _, err := writer.Update(accounts, rid, types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(999)}); err != nil {
		t.Fatal(err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still sees the 100 version, not the 999 one.
	balances := map[float64]bool{}
	it := accounts.VersionIterator()
	for {
		_, meta, tuple, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if old.Visible(meta) {
			balances[tuple[2].Float()] = true
		}
	}
	if !balances[100] || balances[999] || len(balances) != 1 {
		t.Errorf("old snapshot sees balances %v, want exactly {100}", balances)
	}

	fresh := mgr.AcquireSnapshot()
	defer fresh.Release()
	balances = map[float64]bool{}
	it = accounts.VersionIterator()
	for {
		_, meta, tuple, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if fresh.Visible(meta) {
			balances[tuple[2].Float()] = true
		}
	}
	if !balances[999] || balances[100] || len(balances) != 1 {
		t.Errorf("fresh snapshot sees balances %v, want exactly {999}", balances)
	}
}

func TestWALRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	records := []Record{
		{Kind: RecordBegin, Txn: 1},
		{Kind: RecordDDL, Txn: 1, DDL: "CREATE TABLE t (id INT PRIMARY KEY)"},
		{Kind: RecordInsert, Txn: 1, Table: "t", New: types.Tuple{types.NewInt(1)}},
		{Kind: RecordUpdate, Txn: 1, Table: "t", Old: types.Tuple{types.NewInt(1)}, New: types.Tuple{types.NewInt(2)}},
		{Kind: RecordDelete, Txn: 1, Table: "t", Old: types.Tuple{types.NewInt(2)}},
		{Kind: RecordCommit, Txn: 1},
	}
	for _, r := range records {
		if err := wal.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if wal.Writes() != uint64(len(records)) {
		t.Errorf("Writes = %d", wal.Writes())
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, want %d", len(got), len(records))
	}
	for i, r := range records {
		if got[i].Kind != r.Kind || got[i].Txn != r.Txn || got[i].Table != r.Table || got[i].DDL != r.DDL {
			t.Errorf("record %d = %+v, want %+v", i, got[i], r)
		}
		if r.New != nil && !got[i].New.Equal(r.New) {
			t.Errorf("record %d new image mismatch", i)
		}
		if r.Old != nil && !got[i].Old.Equal(r.Old) {
			t.Errorf("record %d old image mismatch", i)
		}
	}
	committed := CommittedTransactions(got)
	if !committed[1] || len(committed) != 1 {
		t.Errorf("committed = %v", committed)
	}
}

func TestWALNilIsSafe(t *testing.T) {
	var wal *WAL
	if err := wal.Append(Record{Kind: RecordBegin, Txn: 1}); err != nil {
		t.Error(err)
	}
	if err := wal.Sync(); err != nil {
		t.Error(err)
	}
	if err := wal.Close(); err != nil {
		t.Error(err)
	}
}

// TestReadLogTornTail: a crash mid-append leaves an incomplete final frame.
// ReadLog must return every record before the tear and no error — refusing
// to start on a torn tail was the old behaviour, and it turned every unclean
// shutdown into a database that would not open.
func TestReadLogTornTail(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	_ = wal.Append(Record{Kind: RecordBegin, Txn: 1})
	_ = wal.Append(Record{Kind: RecordInsert, Txn: 1, Table: "t", New: types.Tuple{types.NewInt(1)}})
	_ = wal.Append(Record{Kind: RecordCommit, Txn: 1})
	whole := append([]byte(nil), buf.Bytes()...)

	// Chop the log at every prefix length: the scan must never error, never
	// return more records than were fully written, and the final byte counts
	// (End + Discarded) must account for the whole prefix.
	for cut := 0; cut <= len(whole); cut++ {
		scan, err := scanLog(bytes.NewReader(whole[:cut]), 0)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(scan.Records) > 3 {
			t.Fatalf("cut %d: %d records from a 3-record log", cut, len(scan.Records))
		}
		if scan.End+scan.Discarded != int64(cut) {
			t.Fatalf("cut %d: End %d + Discarded %d != %d", cut, scan.End, scan.Discarded, cut)
		}
		// Re-reading the valid prefix must be clean and identical.
		again, err := scanLog(bytes.NewReader(whole[:scan.End]), 0)
		if err != nil || again.Discarded != 0 || len(again.Records) != len(scan.Records) {
			t.Fatalf("cut %d: re-scan of valid prefix: %d records, discarded %d, err %v",
				cut, len(again.Records), again.Discarded, err)
		}
	}

	// A complete log reads back whole.
	records, err := ReadLog(bytes.NewReader(whole))
	if err != nil || len(records) != 3 {
		t.Fatalf("full read: %d records, err %v", len(records), err)
	}

	// A bit flip in a record body fails that record's CRC; the log is cut
	// there, not rejected.
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0x40
	records, err = ReadLog(bytes.NewReader(flipped))
	if err != nil {
		t.Fatalf("bit-flipped tail: %v", err)
	}
	if len(records) != 2 {
		t.Fatalf("bit-flipped tail: %d records, want 2 (corrupt commit dropped)", len(records))
	}
}

func TestRecoverReplaysOnlyCommitted(t *testing.T) {
	var buf bytes.Buffer
	wal := NewWAL(&buf)
	srcCat, srcAccounts := newCatalogWithAccounts(t)
	_ = srcCat
	mgr := NewManager(wal)

	// Committed transaction: two inserts and an update.
	t1, _ := mgr.Begin()
	_ = t1.LogDDL("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance FLOAT)")
	rid, _ := t1.Insert(srcAccounts, types.Tuple{types.NewInt(1), types.NewString("ada"), types.NewFloat(10)})
	_, _ = t1.Insert(srcAccounts, types.Tuple{types.NewInt(2), types.NewString("bob"), types.NewFloat(20)})
	_, _ = t1.Update(srcAccounts, rid, types.Tuple{types.NewInt(1), types.NewString("ada"), types.NewFloat(15)})
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Uncommitted transaction: must not survive recovery.
	t2, _ := mgr.Begin()
	_, _ = t2.Insert(srcAccounts, types.Tuple{types.NewInt(3), types.NewString("eve"), types.NewFloat(1000000)})
	// (no commit)

	records, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh catalog. The DDL callback creates the table.
	freshCat := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 256))
	applyDDL := func(text string) error {
		_, err := freshCat.CreateTable("accounts", types.NewSchema(
			types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
			types.Column{Name: "owner", Type: types.KindString},
			types.Column{Name: "balance", Type: types.KindFloat},
		))
		return err
	}
	maxID, err := Recover(records, freshCat, applyDDL)
	if err != nil {
		t.Fatal(err)
	}
	if maxID != 2 {
		t.Errorf("recovered maxID = %d, want 2", maxID)
	}
	recovered, err := freshCat.GetTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if recovered.RowCount() != 2 {
		t.Fatalf("recovered rows = %d, want 2", recovered.RowCount())
	}
	var balances []float64
	_ = recovered.Scan(func(_ storage.RecordID, tuple catalog.Tuple) error {
		balances = append(balances, tuple[2].Float())
		return nil
	})
	sum := 0.0
	for _, b := range balances {
		sum += b
	}
	if sum != 35 {
		t.Errorf("recovered balances = %v (sum %v), want sum 35", balances, sum)
	}
}

// TestReplayFailsOnMissingBeforeImage: a committed UPDATE or DELETE whose
// before-image matches no live row means the catalog being rebuilt is not the
// one the log describes. Replay used to skip the record and hand back a
// database missing a committed change; it must fail with the sentinel the
// replica applier fails with, naming the record kind and the table.
func TestReplayFailsOnMissingBeforeImage(t *testing.T) {
	row := func(balance float64) types.Tuple {
		return types.Tuple{types.NewInt(1), types.NewString("ada"), types.NewFloat(balance)}
	}
	for _, diverged := range []Record{
		{Kind: RecordUpdate, Txn: 2, Table: "accounts", Old: row(99), New: row(15)},
		{Kind: RecordDelete, Txn: 2, Table: "accounts", Old: row(99)},
	} {
		cat, accounts := newCatalogWithAccounts(t)
		st, err := ReplayLog(nil, []Record{
			{Kind: RecordBegin, Txn: 1},
			{Kind: RecordInsert, Txn: 1, Table: "accounts", New: row(10)},
			{Kind: RecordCommit, Txn: 1},
			{Kind: RecordBegin, Txn: 2},
			diverged,
			{Kind: RecordCommit, Txn: 2},
		}, cat, func(string) error { return nil })
		if !errors.Is(err, catalog.ErrNoMatchingRow) {
			t.Fatalf("replay of a diverged %s = %v, want catalog.ErrNoMatchingRow", diverged.Kind, err)
		}
		if msg := err.Error(); !strings.Contains(msg, diverged.Kind.String()) || !strings.Contains(msg, "accounts") {
			t.Errorf("error %q does not name the record kind and the table", msg)
		}
		if st.TailApplied != 1 || accounts.RowCount() != 1 {
			t.Errorf("replay applied %d records and left %d rows, want the insert alone", st.TailApplied, accounts.RowCount())
		}
	}
}

func TestRecordKindString(t *testing.T) {
	for kind, want := range map[RecordKind]string{
		RecordBegin: "BEGIN", RecordCommit: "COMMIT", RecordAbort: "ABORT",
		RecordInsert: "INSERT", RecordDelete: "DELETE", RecordUpdate: "UPDATE",
		RecordDDL: "DDL", RecordCheckpoint: "CHECKPOINT",
	} {
		if kind.String() != want {
			t.Errorf("RecordKind(%d).String() = %q", kind, kind.String())
		}
	}
	if StateActive.String() != "active" || StateCommitted.String() != "committed" ||
		StateAborted.String() != "aborted" || StateCommitting.String() != "committing" {
		t.Error("State.String wrong")
	}
}

func BenchmarkCommitSmallTransaction(b *testing.B) {
	_, accounts := newCatalogWithAccounts(b)
	mgr := NewManager(NewWAL(&bytes.Buffer{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx, err := mgr.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Insert(accounts, types.Tuple{types.NewInt(int64(i)), types.NewString("x"), types.NewFloat(1)}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	wal := NewWAL(&bytes.Buffer{})
	rec := Record{Kind: RecordInsert, Txn: 1, Table: "accounts", New: types.Tuple{types.NewInt(1), types.NewString("name"), types.NewFloat(3.5)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wal.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleManager() {
	cat := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 64))
	table, _ := cat.CreateTable("t", types.NewSchema(types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true}))
	mgr := NewManager(nil)
	tx, _ := mgr.Begin()
	_, _ = tx.Insert(table, types.Tuple{types.NewInt(1)})
	_ = tx.Rollback()
	fmt.Println(table.RowCount())
	// Output: 0
}
