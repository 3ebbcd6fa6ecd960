package txn

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	lm := newLockManager()
	r1 := storage.RecordID{Page: 1, Slot: 0}
	r2 := storage.RecordID{Page: 1, Slot: 1}
	if err := lm.lockRow(1, "t", r1); err != nil {
		t.Fatal(err)
	}
	// A different row never blocks: locks are per version, not per table.
	if err := lm.lockRow(2, "t", r2); err != nil {
		t.Fatalf("different rows must not conflict: %v", err)
	}
	// Re-acquiring an already-held lock is a no-op.
	if err := lm.lockRow(1, "t", r1); err != nil {
		t.Fatalf("re-entrant lock: %v", err)
	}
	if got := heldCount(lm, 1); got != 1 {
		t.Errorf("HeldCount(1) = %d, want 1", got)
	}
	lm.releaseAll(1)
	if got := heldCount(lm, 1); got != 0 {
		t.Errorf("HeldCount(1) after release = %d, want 0", got)
	}
}

func TestLockManagerWaitsForRelease(t *testing.T) {
	lm := newLockManager()
	rid := storage.RecordID{Page: 1, Slot: 0}
	if err := lm.lockRow(1, "t", rid); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- lm.lockRow(2, "t", rid)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("waiter acquired a held lock: %v", err)
	default:
	}
	lm.releaseAll(1)
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
	lm := newLockManager()
	if err := lm.lockKey(1, "t", "t_pk", []byte("k")); err != nil {
		t.Fatal(err)
	}
	// A different key on the same index never blocks.
	if err := lm.lockKey(2, "t", "t_pk", []byte("other")); err != nil {
		t.Fatalf("different keys must not conflict: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- lm.lockKey(2, "t", "t_pk", []byte("k"))
	}()
	time.Sleep(10 * time.Millisecond)
	lm.releaseAll(1)
	if err := <-done; err != nil {
		t.Fatalf("key waiter after release: %v", err)
	}
}

// TestLockManagerDetectsDeadlock is the acceptance check for the waits-for
// graph: a two-transaction cycle must fail one of the requests with
// ErrDeadlock well under 100ms — there is no timeout to ride out.
func TestLockManagerDetectsDeadlock(t *testing.T) {
	lm := newLockManager()
	rA := storage.RecordID{Page: 1, Slot: 0}
	rB := storage.RecordID{Page: 1, Slot: 1}
	if err := lm.lockRow(1, "t", rA); err != nil {
		t.Fatal(err)
	}
	if err := lm.lockRow(2, "t", rB); err != nil {
		t.Fatal(err)
	}
	// Txn 2 blocks on A (held by 1). Then txn 1 requesting B closes the cycle.
	go func() {
		if err := lm.lockRow(2, "t", rA); err != nil {
			t.Errorf("victim should be the cycle-closing requester, not the sleeper: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let txn 2 publish its wait edge
	start := time.Now()
	err := lm.lockRow(1, "t", rB)
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
	lm.releaseAll(1)
}

func TestTxnCommitAndStats(t *testing.T) {
	_, accounts := newCatalogWithAccounts(t)
	mgr := NewManager(nil)
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if stateOf(tx) != StateActive || tx.id == 0 {
		t.Errorf("fresh txn state = %v id = %d", stateOf(tx), tx.id)
	}
	if _, err := tx.Insert(accounts, types.Tuple{types.NewInt(1), types.NewString("ada"), types.NewFloat(100)}); err != nil {
		t.Fatal(err)
	}
	if activeCount(mgr) != 1 {
		t.Errorf("ActiveCount = %d", activeCount(mgr))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if stateOf(tx) != StateCommitted {
		t.Errorf("state = %v", stateOf(tx))
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Errorf("double commit = %v", err)
	}
	if len(liveTuples(t, accounts)) != 1 {
		t.Errorf("RowCount = %d", len(liveTuples(t, accounts)))
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
	if stateOf(tx) != StateAborted {
		t.Errorf("state = %v", stateOf(tx))
	}

	// The table must contain exactly the seeded row with its original balance.
	if len(liveTuples(t, accounts)) != 1 {
		t.Fatalf("RowCount after rollback = %d", len(liveTuples(t, accounts)))
	}
	got := liveTuples(t, accounts)[0]
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
	if len(liveTuples(t, accounts)) != 2 {
		t.Errorf("RowCount = %d", len(liveTuples(t, accounts)))
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
	for _, tuple := range liveTuples(t, accounts) {
		total += tuple[2].Float()
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
	if len(liveTuples(t, accounts)) != 1 {
		t.Errorf("RowCount = %d, want 1", len(liveTuples(t, accounts)))
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
	if wal.Stats().Writes != uint64(len(records)) {
		t.Errorf("Writes = %d", wal.Stats().Writes)
	}
	got := readLog(t, &buf)
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
// The log scan must return every record before the tear and no error — refusing
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
	if records := readLog(t, bytes.NewReader(whole)); len(records) != 3 {
		t.Fatalf("full read: %d records", len(records))
	}

	// A bit flip in a record body fails that record's CRC; the log is cut
	// there, not rejected.
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0x40
	if records := readLog(t, bytes.NewReader(flipped)); len(records) != 2 {
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

	records := readLog(t, bytes.NewReader(buf.Bytes()))

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
	freshMgr := NewManager(nil)
	a := NewApplier(freshMgr, freshCat, applyDDL)
	if _, err := ReplayLog(a, nil, records); err != nil {
		t.Fatal(err)
	}
	if freshMgr.lastID != 2 {
		t.Errorf("recovered id sequence at %d, want 2", freshMgr.lastID)
	}
	if open, err := a.AbortOpen(nil); err != nil || len(open) != 1 || open[0] != t2.id {
		t.Errorf("aborted %v, %v; want the uncommitted transaction alone", open, err)
	}
	recovered, err := freshCat.GetTable("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if len(liveTuples(t, recovered)) != 2 {
		t.Fatalf("recovered rows = %d, want 2", len(liveTuples(t, recovered)))
	}
	var balances []float64
	for _, tuple := range liveTuples(t, recovered) {
		balances = append(balances, tuple[2].Float())
	}
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
		st, err := ReplayLog(NewApplier(NewManager(nil), cat, func(string) error { return nil }), nil, []Record{
			{Kind: RecordBegin, Txn: 1},
			{Kind: RecordInsert, Txn: 1, Table: "accounts", New: row(10)},
			{Kind: RecordCommit, Txn: 1},
			{Kind: RecordBegin, Txn: 2},
			diverged,
			{Kind: RecordCommit, Txn: 2},
		})
		if !errors.Is(err, catalog.ErrNoMatchingRow) {
			t.Fatalf("replay of a diverged %s = %v, want catalog.ErrNoMatchingRow", diverged.Kind, err)
		}
		if msg := err.Error(); !strings.Contains(msg, diverged.Kind.String()) || !strings.Contains(msg, "accounts") {
			t.Errorf("error %q does not name the record kind and the table", msg)
		}
		if st.TailApplied != 1 || len(liveTuples(t, accounts)) != 1 {
			t.Errorf("replay applied %d records and left %d rows, want the insert alone", st.TailApplied, len(liveTuples(t, accounts)))
		}
	}
}

// TestApplierRefusesALiveID: a BEGIN naming an id a live transaction holds
// cannot be adopted — the two would share every version stamp — so the
// applier fails it with ErrDiverged and adopts nothing. Recovery's manager
// follows no other log, so an id below the sequence is adopted: a checkpoint
// image's in-flight transactions are.
func TestApplierRefusesALiveID(t *testing.T) {
	mgr := NewManager(nil)
	cat, _ := newCatalogWithAccounts(t)
	live, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	a := NewApplier(mgr, cat, func(string) error { return nil })
	if _, err := a.Apply(Record{Kind: RecordBegin, Txn: live.id}); !errors.Is(err, ErrDiverged) {
		t.Errorf("adopting a live id = %v, want ErrDiverged", err)
	}
	mgr.lastID = 9
	if _, err := a.Apply(Record{Kind: RecordBegin, Txn: 5}); err != nil {
		t.Errorf("adopting an id below the sequence = %v, want it adopted", err)
	}
	if a.adopted[5] == nil || len(a.adopted) != 1 || activeCount(mgr) != 2 {
		t.Errorf("adopted %v with %d active, want 5 alone beside the live transaction", a.adopted, activeCount(mgr))
	}
	if err := live.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayInsertLoggedBeforeTheDeleteThatFreedItsKey: a DELETE stamps its
// version before it appends its record, so a concurrent INSERT of the freed
// key can reach the log first. Replaying that order must reproduce the
// history, not fail the INSERT as a duplicate of a row the log deletes next.
func TestReplayInsertLoggedBeforeTheDeleteThatFreedItsKey(t *testing.T) {
	row := func(owner string) types.Tuple {
		return types.Tuple{types.NewInt(1), types.NewString(owner), types.NewFloat(10)}
	}
	cat, accounts := newCatalogWithAccounts(t)
	a := NewApplier(NewManager(nil), cat, func(string) error { return nil })
	if _, err := ReplayLog(a, nil, []Record{
		{Kind: RecordBegin, Txn: 1},
		{Kind: RecordInsert, Txn: 1, Table: "accounts", New: row("ada")},
		{Kind: RecordCommit, Txn: 1},
		{Kind: RecordBegin, Txn: 2},
		{Kind: RecordBegin, Txn: 3},
		{Kind: RecordInsert, Txn: 3, Table: "accounts", New: row("bob")},
		{Kind: RecordDelete, Txn: 2, Table: "accounts", Old: row("ada")},
		{Kind: RecordCommit, Txn: 2},
		{Kind: RecordCommit, Txn: 3},
	}); err != nil {
		t.Fatal(err)
	}
	if live := liveTuples(t, accounts); len(live) != 1 || live[0][1].String() != "bob" {
		t.Errorf("replay left %v, want bob's row alone", live)
	}
}

// TestBeginRecordsInIDOrder: Begin assigns the id and appends the BEGIN
// record in one critical section, so however many goroutines begin and commit
// at once, the BEGIN records the log holds carry strictly increasing ids —
// the order a replica adopts them in.
func TestBeginRecordsInIDOrder(t *testing.T) {
	medium := &crashMedium{}
	mgr := NewManager(NewWAL(medium))
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx, err := mgr.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	written, _ := medium.snapshot()
	var last uint64
	begins := 0
	for _, r := range readLog(t, bytes.NewReader(written)) {
		if r.Kind != RecordBegin {
			continue
		}
		if r.Txn <= last {
			t.Fatalf("BEGIN %d logged after BEGIN %d", r.Txn, last)
		}
		last = r.Txn
		begins++
	}
	if begins != workers*each {
		t.Errorf("the log holds %d BEGIN records, want %d", begins, workers*each)
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
	_, _, _, left, _ := table.VersionIterator().Next()
	fmt.Println(left)
	// Output: false
}

// readLog scans a whole log the way recovery does, tolerating a torn tail.
func readLog(t *testing.T, r io.Reader) []Record {
	t.Helper()
	scan, err := scanLog(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	return scan.Records
}

// liveTuples returns the rows of the table's versions without an xmax.
func liveTuples(t *testing.T, table *catalog.Table) []types.Tuple {
	t.Helper()
	var rows []types.Tuple
	for it := table.VersionIterator(); ; {
		_, meta, row, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows
		}
		if meta.Xmax == 0 {
			rows = append(rows, row)
		}
	}
}

func stateOf(tx *Txn) State {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return tx.state
}

func activeCount(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

func heldCount(lm *LockManager, owner uint64) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.held[owner])
}
