// Package engine ties the storage, catalog, SQL, planning, execution,
// transaction and view layers together behind the two types the rest of the
// system (the forms runtime, the tools, the examples) talks to: Database and
// Session.
//
// A Database owns the buffer pool, catalog, write-ahead log and transaction
// manager. A Session executes SQL statements — with autocommit or explicit
// transactions — and is the unit a form window binds to.
package engine

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Options configures Open.
type Options struct {
	// DataPath is the spill file for evicted pages; recreated empty at
	// Open, removed at Close; never read by recovery. Empty keeps evicted
	// pages in memory. Only WALPath makes a database durable.
	DataPath string
	// WALPath is the write-ahead log file; empty keeps no log (rollback
	// still works: undo lives in the transaction, not the log).
	WALPath string
	// CheckpointInterval starts a background checkpointer writing the
	// checkpoint file beside the log every interval, so recovery replays
	// only the log tail. Zero disables it; Database.Checkpoint can still be
	// called manually.
	CheckpointInterval time.Duration
}

// Database is one open database instance.
type Database struct {
	opts Options
	disk storage.DiskManager
	pool *storage.BufferPool
	cat  *catalog.Catalog
	wal  *txn.WAL // nil without Options.WALPath
	txns *txn.Manager
	// plans is the engine-wide shared cache of statement skeletons: every
	// session prepares through it, so N connections preparing the same form
	// query parse and plan it once.
	plans *planCache
	// prep aggregates prepared-statement counters across all sessions.
	prep prepCounters
	// sessionsOpened / sessionsClosed count session lifecycle database-wide;
	// the difference is the live-session gauge the server's metrics endpoint
	// reports.
	sessionsOpened atomic.Uint64
	sessionsClosed atomic.Uint64

	// recovery describes what Open's replay did (zero value: fresh database).
	recovery RecoveryInfo
	// checkpointFailures counts periodic checkpoints that returned an error.
	checkpointFailures atomic.Uint64
	// ckptStop/ckptDone manage the background checkpointer, when enabled.
	ckptStop chan struct{}
	ckptDone chan struct{}
}

// RecoveryInfo describes what the replay at Open did.
type RecoveryInfo struct {
	// Recovered is true when an existing log was found and replayed.
	Recovered bool
	// FromCheckpoint is true when replay started from a checkpoint image
	// rather than offset zero.
	FromCheckpoint bool
	// ImageRows is the number of rows installed from the checkpoint image.
	ImageRows int
	// TailRecords / TailApplied count the log records scanned past the
	// checkpoint and how many were applied.
	TailRecords int
	TailApplied int
	// BytesDiscarded is the size of the torn tail truncated from the log
	// (non-zero after a crash mid-append).
	BytesDiscarded int64
	// Duration is how long the replay took.
	Duration time.Duration
}

// prepCounters tracks the prepared-statement machinery database-wide. The
// plan caches themselves are per session (no locking on the hot path); only
// these statistics are shared, so they are atomic.
type prepCounters struct {
	prepared      atomic.Uint64
	planHits      atomic.Uint64
	planMisses    atomic.Uint64
	planEvictions atomic.Uint64
	cursorsOpened atomic.Uint64
	cursorsClosed atomic.Uint64
	rowsStreamed  atomic.Uint64
	// writePlans counts DML plans built and cached; batchRows counts
	// parameter rows executed through Stmt.ExecBatch.
	writePlans atomic.Uint64
	batchRows  atomic.Uint64
}

// bufferPoolPages is the page cache size: 1024 pages = 8 MiB.
const bufferPoolPages = 1024

// Open creates or opens a database with the given options. When it fails it
// closes every file it opened, so a caller retrying against a bad log leaks
// nothing.
func Open(opts Options) (*Database, error) { return open(opts, bufferPoolPages) }

// open is Open with a page cache of poolPages pages; tests shrink it to make
// pages spill.
func open(opts Options, poolPages int) (_ *Database, err error) {
	var disk storage.DiskManager
	if opts.DataPath == "" {
		disk = storage.NewMemDiskManager()
	} else {
		disk, err = storage.OpenFileDiskManager(opts.DataPath)
		if err != nil {
			return nil, err
		}
	}
	var wal *txn.WAL
	defer func() {
		if err != nil {
			err = errors.Join(err, wal.Close(), disk.Close())
		}
	}()
	pool := storage.NewBufferPool(disk, poolPages)
	cat := catalog.New(pool)

	var load *txn.LogLoad
	if opts.WALPath != "" {
		// Load any existing log first — from the checkpoint image when one
		// is usable — then append to it. A torn final frame (crash
		// mid-append) is truncated away before the log is reused: past the
		// tear nothing is framed, so nothing there was ever acknowledged as
		// committed.
		load, err = txn.LoadLog(opts.WALPath)
		if err != nil {
			return nil, fmt.Errorf("engine: reading wal: %w", err)
		}
		if load != nil && load.Discarded > 0 {
			if err := os.Truncate(opts.WALPath, load.End); err != nil {
				return nil, fmt.Errorf("engine: truncating torn wal tail: %w", err)
			}
		}
		if wal, err = txn.OpenWALFile(opts.WALPath); err != nil {
			return nil, err
		}
	}
	db := &Database{
		opts:  opts,
		disk:  disk,
		pool:  pool,
		cat:   cat,
		wal:   wal,
		txns:  txn.NewManager(wal),
		plans: newPlanCache(defaultPlanCacheSize),
	}
	if load != nil && (load.Image != nil || len(load.Tail) > 0) {
		start := time.Now()
		st, err := db.replay(load)
		if err != nil {
			return nil, err
		}
		db.recovery = RecoveryInfo{
			Recovered:      true,
			FromCheckpoint: load.Image != nil,
			ImageRows:      st.ImageRows,
			TailRecords:    st.TailRecords,
			TailApplied:    st.TailApplied,
			BytesDiscarded: load.Discarded,
			Duration:       time.Since(start),
		}
	}
	if opts.CheckpointInterval > 0 {
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointLoop(opts.CheckpointInterval)
	}
	return db, nil
}

// OpenMemory opens an in-memory database with defaults, the configuration
// every example and benchmark uses.
func OpenMemory() *Database {
	db, err := Open(Options{})
	if err != nil {
		// Only I/O can fail, and the memory configuration does none.
		panic(fmt.Sprintf("engine: OpenMemory: %v", err))
	}
	return db
}

// replay recovers the previous run's state through the applier: the
// checkpoint image (when one was loaded), then the log tail record by record.
// The transactions the log leaves open — a crash cut them short — are aborted
// in the log and undone, so every BEGIN the log holds is followed by a COMMIT
// or an ABORT. Last, every table is swept whole: once nothing is in flight,
// every replayed version is settled or reclaimed, and every unsettled list is
// empty.
func (db *Database) replay(load *txn.LogLoad) (txn.ReplayStats, error) {
	a := db.applier()
	st, err := txn.ReplayLog(a, load.Image, load.Tail)
	if err != nil {
		return st, err
	}
	if _, err := a.AbortOpen(db.wal); err != nil {
		return st, fmt.Errorf("engine: closing the transactions the log left open: %w", err)
	}
	for _, table := range db.tables() {
		if _, err := db.txns.Sweep(table, true); err != nil {
			return st, err
		}
	}
	return st, nil
}

// Recovery reports what the replay at Open did.
func (db *Database) Recovery() RecoveryInfo { return db.recovery }

// Checkpoint writes a snapshot-consistent image of the catalog into the
// checkpoint file beside the log, so the next recovery starts from it
// instead of replaying the whole log. It writes no pages and appends nothing
// to the log. Safe to call while transactions are running.
func (db *Database) Checkpoint() (txn.CheckpointStats, error) {
	return db.txns.Checkpoint(db.cat)
}

// checkpointLoop is the background checkpointer started by Open when
// Options.CheckpointInterval is set.
func (db *Database) checkpointLoop(interval time.Duration) {
	defer close(db.ckptDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-db.ckptStop:
			return
		case <-ticker.C:
			if _, err := db.Checkpoint(); err != nil {
				// A failed checkpoint costs recovery time, not correctness:
				// the previous image (or a full replay) still recovers
				// everything. Count it so operators can see it happening.
				db.checkpointFailures.Add(1)
			}
		}
	}
}

// Close stops the checkpointer and closes the log and the disk, which
// removes a spill file. Dirty pages are dropped: every committed row is
// already in the log. A failed close still closes the other; every error is
// returned, joined.
func (db *Database) Close() error {
	if db.ckptStop != nil {
		close(db.ckptStop)
		<-db.ckptDone
		db.ckptStop = nil
	}
	return errors.Join(db.wal.Close(), db.disk.Close())
}

// Catalog exposes the database's catalog (the forms layer resolves bindings
// through it).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Transactions exposes the transaction manager.
func (db *Database) Transactions() *txn.Manager { return db.txns }

// Session creates a new session. Sessions are cheap; each interactive window,
// worker goroutine or server connection should own one. A Session must not be
// used from more than one goroutine at a time, but any number of sessions may
// run concurrently against the same database — they share the engine's plan
// cache, lock manager and storage.
func (db *Database) Session() *Session {
	db.sessionsOpened.Add(1)
	return &Session{db: db}
}

// applier returns a log applier into this database (see txn.Applier). Its
// DDL runs in a recovery session, which does not log it again: the statement
// already lives in the log being applied.
func (db *Database) applier() *txn.Applier {
	return txn.NewApplier(db.txns, db.cat, func(ddl string) error {
		s := db.Session()
		s.recovering = true
		defer s.Close()
		_, err := s.Execute(ddl)
		return err
	})
}

// Follow makes this database follow another database's log, as a replica
// does, and returns the applier to feed that log to, record by record from
// offset 0. Open's replay applies the database's own log through the same
// code. A transaction begun locally afterwards diverges the database from the
// log (txn.Manager.Follow).
func (db *Database) Follow() *txn.Applier {
	db.txns.Follow()
	return db.applier()
}

// PlanCacheLen returns how many statement skeletons the engine's shared plan
// cache currently holds.
func (db *Database) PlanCacheLen() int { return db.plans.len() }

// tables returns every table of the catalog.
func (db *Database) tables() []*catalog.Table {
	var out []*catalog.Table
	for _, name := range db.cat.TableNames() {
		if table, err := db.cat.GetTable(name); err == nil {
			out = append(out, table)
		}
	}
	return out
}

// Stats summarises engine-level counters for tools, the server's metrics
// endpoint and the benchmark.
type Stats struct {
	Committed uint64
	Aborted   uint64
	WALWrites uint64

	// Durability: fsyncs issued on behalf of commits (each one retired a
	// whole convoy), commits that rode another committer's fsync instead of
	// issuing their own, checkpoints written (and periodic ones that
	// failed), and the number of log records the last restart had to apply
	// — small when recovery started from a checkpoint.
	GroupCommitBatches      uint64
	FsyncsSaved             uint64
	CheckpointsTaken        uint64
	CheckpointFailures      uint64
	RecoveryRecordsReplayed uint64

	// Before-image resolution, crash recovery and the replica applier
	// combined: UPDATE/DELETE records whose row was found by an index seek,
	// and those that had to scan a table with no index. A growing scan count
	// is a keyless table dragging recovery or a replica.
	RowsLocatedBySeek uint64
	RowsLocatedByScan uint64

	// MVCC: snapshots registered (transactional and cursor-read), writes
	// aborted by first-updater-wins conflicts, waits-for cycles broken, and
	// dead row versions reclaimed by sweeps.
	SnapshotsTaken    uint64
	WriteConflicts    uint64
	DeadlocksDetected uint64
	VersionsGCed      uint64
	// UnsettledVersions is a gauge: the row versions, summed over every
	// table's unsettled list, that are not yet visible to every snapshot or
	// carry a delete stamp. Every COUNT(*) pays one visibility test per
	// unsettled version of its table, and a dead version is reclaimed only
	// from the list, so a value that keeps growing names a snapshot held open
	// (or a transaction left in flight) that pins them. It returns to 0 once
	// the database is quiet and no snapshot is held.
	UnsettledVersions uint64

	// Prepared-statement machinery: statements prepared, plan-cache traffic
	// (hits mean the parse/plan work was skipped), and cursor activity.
	StatementsPrepared uint64
	PlanCacheHits      uint64
	PlanCacheMisses    uint64
	PlanCacheEvictions uint64
	CursorsOpened      uint64
	CursorsClosed      uint64
	RowsStreamed       uint64

	// Write path: DML plans built into the cache, and parameter rows
	// executed through batch binding (Stmt.ExecBatch).
	WritePlansCached  uint64
	BatchRowsExecuted uint64

	// Session lifecycle: every interactive window, worker goroutine and
	// server connection opens one session; opened minus closed is the
	// live-session gauge.
	SessionsOpened uint64
	SessionsClosed uint64

	BufferPool storage.BufferPoolStats
}

// unsettledVersions sums the lengths of the tables' unsettled lists.
func (db *Database) unsettledVersions() uint64 {
	var n uint64
	for _, table := range db.tables() {
		n += uint64(table.UnsettledVersions())
	}
	return n
}

// Stats returns a snapshot of the engine's counters.
func (db *Database) Stats() Stats {
	committed, aborted := db.txns.Stats()
	mvcc := db.txns.MVCC()
	walStats := db.wal.Stats()
	seeks, scans := db.cat.LocateStats()
	return Stats{
		Committed: committed,
		Aborted:   aborted,
		WALWrites: walStats.Writes,

		GroupCommitBatches:      walStats.GroupCommitBatches,
		FsyncsSaved:             walStats.FsyncsSaved,
		CheckpointsTaken:        db.txns.Checkpoints(),
		CheckpointFailures:      db.checkpointFailures.Load(),
		RecoveryRecordsReplayed: uint64(db.recovery.TailApplied),

		RowsLocatedBySeek: seeks,
		RowsLocatedByScan: scans,

		SnapshotsTaken:    mvcc.SnapshotsTaken,
		WriteConflicts:    mvcc.WriteConflicts,
		DeadlocksDetected: mvcc.DeadlocksDetected,
		VersionsGCed:      mvcc.VersionsGCed,
		UnsettledVersions: db.unsettledVersions(),

		StatementsPrepared: db.prep.prepared.Load(),
		PlanCacheHits:      db.prep.planHits.Load(),
		PlanCacheMisses:    db.prep.planMisses.Load(),
		PlanCacheEvictions: db.prep.planEvictions.Load(),
		CursorsOpened:      db.prep.cursorsOpened.Load(),
		CursorsClosed:      db.prep.cursorsClosed.Load(),
		RowsStreamed:       db.prep.rowsStreamed.Load(),

		WritePlansCached:  db.prep.writePlans.Load(),
		BatchRowsExecuted: db.prep.batchRows.Load(),

		SessionsOpened: db.sessionsOpened.Load(),
		SessionsClosed: db.sessionsClosed.Load(),

		BufferPool: db.pool.Stats(),
	}
}
