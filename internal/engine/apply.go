package engine

import (
	"fmt"

	"repro/internal/txn"
)

// ApplyReplicated applies one committed transaction's worth of replicated
// WAL records to this database atomically: the rows land under a single
// local transaction, so concurrent readers' MVCC snapshots see all of the
// primary transaction's effects or none of them — never a torn prefix.
//
// The replica applier (internal/server/replica.go) is the caller. Records
// must be one primary transaction's, in log order, Begin/Commit stripped.
// DDL replays through a recovery session, so it reaches the catalog without
// being re-logged (the replica's own WAL, when it has one, stays clean —
// the same invariant crash recovery relies on). Like on the primary, a DDL
// statement's catalog change is visible the moment it applies rather than
// at commit.
//
// UPDATE and DELETE name their target row by before-image, and the applier
// resolves it with the function crash recovery uses, catalog.Table.Locate:
// the image's key narrows the search to an index seek, the full image decides
// among the versions this transaction's snapshot sees, and only a table with
// no index at all is scanned. No match is catalog.ErrNoMatchingRow: the
// replica has diverged from the primary, the transaction is rolled back
// whole, and retrying cannot help.
func (db *Database) ApplyReplicated(recs []txn.Record) error {
	t, err := db.txns.Begin()
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			_ = t.Rollback()
		}
	}()
	var sess *Session
	for _, rec := range recs {
		switch rec.Kind {
		case txn.RecordDDL:
			if sess == nil {
				sess = db.RecoverySession()
				defer sess.Close()
			}
			if _, err := sess.Execute(rec.DDL); err != nil {
				return fmt.Errorf("engine: replicated DDL %q: %w", rec.DDL, err)
			}
		case txn.RecordInsert, txn.RecordUpdate, txn.RecordDelete:
			if err := db.applyRow(t, rec); err != nil {
				return fmt.Errorf("engine: replicated %s on %s: %w", rec.Kind, rec.Table, err)
			}
		default:
			return fmt.Errorf("engine: cannot replicate %s record", rec.Kind)
		}
	}
	if err := t.Commit(); err != nil {
		return err
	}
	committed = true
	return nil
}

// applyRow applies one replicated row record under t. The before-image of an
// UPDATE or DELETE is resolved among the versions t's snapshot sees, which
// includes t's own writes: a primary transaction may touch one row twice.
func (db *Database) applyRow(t *txn.Txn, rec txn.Record) error {
	table, err := db.cat.GetTable(rec.Table)
	if err != nil {
		return err
	}
	if rec.Kind == txn.RecordInsert {
		_, err = t.Insert(table, rec.New)
		return err
	}
	rid, err := table.Locate(rec.Old, t.Snapshot().Visible)
	if err != nil {
		return err
	}
	if rec.Kind == txn.RecordDelete {
		return t.Delete(table, rid)
	}
	_, err = t.Update(table, rid, rec.New)
	return err
}
