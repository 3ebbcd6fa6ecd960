package txn

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// Applier applies a log one record at a time, under the transaction ids the
// log carries: the one path a logged change takes into row versions. Crash
// recovery feeds it the tail after the checkpoint image (ReplayLog), and a
// replica the primary's log as it streams in — the method of PostgreSQL's hot
// standby, which replays the primary's WAL through its recovery code.
//
// A BEGIN adopts the logged id as a live transaction: active, with its own
// snapshot, so readers see its writes only once its COMMIT applies, but
// taking no locks, probing no unique key and logging nothing. Each INSERT,
// UPDATE and DELETE applies as it arrives through that transaction's write
// methods, with an undo entry; an UPDATE or DELETE changes the live version
// the transaction sees whose tuple is the before-image
// (catalog.Table.Locate). A DDL record cannot
// be undone, so it is held, with every record of its transaction after it,
// until COMMIT runs them in order — the DDL through applyDDL — before
// Txn.Commit, which appends nothing for an adopted transaction; ABORT drops
// them and is Txn.Rollback. A record of a transaction the applier never
// adopted is skipped.
//
// Readers' snapshots stay exact because the log carries BEGINs in id order
// (Manager.Begin) and follows every BEGIN with a COMMIT or an ABORT (a
// restart aborts what a crash left open, AbortOpen). A failed record applies
// nothing and leaves its transaction adopted, so the caller can feed it
// again; a failed COMMIT keeps the held records it did not get to.
type Applier struct {
	mgr      *Manager
	cat      *catalog.Catalog
	applyDDL func(string) error
	adopted  map[uint64]*Txn
	// held are an adopted transaction's records from its first DDL on.
	held map[uint64][]Record
}

// NewApplier returns an applier that writes into cat under m's transactions
// and runs DDL records through applyDDL, which must not log them again.
func NewApplier(m *Manager, cat *catalog.Catalog, applyDDL func(string) error) *Applier {
	return &Applier{mgr: m, cat: cat, applyDDL: applyDDL, adopted: make(map[uint64]*Txn), held: make(map[uint64][]Record)}
}

// Apply applies one record and reports whether it belonged to a transaction
// the applier adopted. A before-image that matches no row fails with
// catalog.ErrNoMatchingRow, naming the record's kind and table.
func (a *Applier) Apply(r Record) (bool, error) {
	if r.Kind == RecordBegin {
		t, err := a.mgr.adopt(r.Txn)
		if err != nil {
			return false, err
		}
		a.adopted[r.Txn] = t
		return true, nil
	}
	t := a.adopted[r.Txn]
	if t == nil {
		return false, nil
	}
	switch r.Kind {
	case RecordCommit, RecordAbort:
		end := t.Rollback
		if r.Kind == RecordCommit {
			for held := a.held[r.Txn]; len(held) > 0; held = held[1:] {
				if err := a.applyRecord(t, held[0]); err != nil {
					a.held[r.Txn] = held // a COMMIT fed again resumes here
					return false, err
				}
			}
			end = t.Commit
		}
		delete(a.held, r.Txn)
		delete(a.adopted, r.Txn)
		if err := end(); err != nil {
			return false, fmt.Errorf("txn: apply %s of transaction %d: %w", r.Kind, r.Txn, err)
		}
	case RecordDDL, RecordInsert, RecordUpdate, RecordDelete:
		if r.Kind == RecordDDL || len(a.held[r.Txn]) > 0 {
			a.held[r.Txn] = append(a.held[r.Txn], r)
		} else if err := a.applyRecord(t, r); err != nil {
			return false, err
		}
	}
	return true, nil
}

// applyRecord applies one DDL or row record under t.
func (a *Applier) applyRecord(t *Txn, r Record) error {
	if r.Kind == RecordDDL {
		if err := a.applyDDL(r.DDL); err != nil {
			return fmt.Errorf("txn: apply DDL %q: %w", r.DDL, err)
		}
		return t.LogDDL(r.DDL)
	}
	if err := a.applyRow(t, r); err != nil {
		return fmt.Errorf("txn: apply %s on %s: %w", r.Kind, r.Table, err)
	}
	return nil
}

// applyRow applies one row record under t.
func (a *Applier) applyRow(t *Txn, r Record) error {
	table, err := a.cat.GetTable(r.Table)
	if err != nil {
		return err
	}
	if r.Kind == RecordInsert {
		_, err = t.Insert(table, r.New)
		return err
	}
	rid, err := table.Locate(r.Old, func(m storage.VersionMeta) bool { return m.Xmax == 0 && t.snap.Visible(m) })
	if err != nil {
		return err
	}
	if r.Kind == RecordDelete {
		return t.Delete(table, rid)
	}
	_, err = t.Update(table, rid, r.New)
	return err
}

// AbortOpen ends every transaction the applied log left open, which only a
// crash leaves: it appends an ABORT for each to w (nil appends nothing),
// applies it, and makes the ABORTs durable, so a replica streaming the log
// never keeps one adopted. It returns the ids it aborted.
func (a *Applier) AbortOpen(w *WAL) ([]uint64, error) {
	open := make([]uint64, 0, len(a.adopted))
	for id := range a.adopted {
		open = append(open, id)
	}
	slices.Sort(open)
	for _, id := range open {
		abort := Record{Kind: RecordAbort, Txn: id}
		if err := w.Append(abort); err != nil {
			return nil, err
		}
		if _, err := a.Apply(abort); err != nil {
			return nil, err
		}
	}
	if len(open) == 0 {
		return nil, nil
	}
	return open, w.Sync()
}
