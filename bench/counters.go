package main

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sqlair"
)

// counters is a snapshot of every cumulative count the layers publish. The
// runner reads it before and after the measured part and keeps the increase;
// ratios are computed from those increases, at the boundary where the work
// happens.
type counters [numCounters]float64

const (
	// storage (Database.Stats().BufferPool)
	cPoolHits = iota
	cPoolMisses
	cPoolEvictions
	// engine
	cPlanHits
	cPlanMisses
	// txn (Database.Stats(), WAL.Size())
	cCommits
	cWALBytes
	cFsyncs
	cSnapshots
	cVersionsGCed
	cConflicts
	cCheckpoints
	// server (Server.Stats())
	cMessages
	cWALBytesStreamed
	// client (Pool.Stats())
	cDials
	cCheckouts
	cClientStmtHits
	// sqlair (DB.Stats())
	cSqlairStmtHits
	cSqlairStmtMisses
	// core (Window.Stats())
	cKeystrokes
	cWindowQueries
	cWindowRowsFetched
	// replication (Replica.Stats())
	cReplTxnsApplied
	cReplTxnsSkipped
	// counted by the driver: encoded bytes of the tuples its writes carried
	cUserBytes

	numCounters
)

func (c *counters) addEngine(db *engine.Database) {
	st := db.Stats()
	c[cPoolHits] += float64(st.BufferPool.Hits)
	c[cPoolMisses] += float64(st.BufferPool.Misses)
	c[cPoolEvictions] += float64(st.BufferPool.Evictions)
	c[cPlanHits] += float64(st.PlanCacheHits)
	c[cPlanMisses] += float64(st.PlanCacheMisses)
	c[cCommits] += float64(st.Committed)
	c[cWALBytes] += float64(db.Transactions().WAL().Size())
	c[cFsyncs] += float64(st.GroupCommitBatches)
	c[cSnapshots] += float64(st.SnapshotsTaken)
	c[cVersionsGCed] += float64(st.VersionsGCed)
	c[cConflicts] += float64(st.WriteConflicts)
	c[cCheckpoints] += float64(st.CheckpointsTaken)
}

func (c *counters) addServer(s *server.Server) {
	st := s.Stats()
	c[cMessages] += float64(st.MessagesServed)
	c[cWALBytesStreamed] += float64(st.WALBytesSent)
}

func (c *counters) addPool(p *client.Pool) {
	st := p.Stats()
	c[cDials] += float64(st.Dials)
	c[cCheckouts] += float64(st.Checkouts)
	c[cClientStmtHits] += float64(st.StmtCacheHits)
}

func (c *counters) addSqlair(db *sqlair.DB) {
	st := db.Stats()
	c[cSqlairStmtHits] += float64(st.StmtHits)
	c[cSqlairStmtMisses] += float64(st.StmtMisses)
}

func (c *counters) addWindow(w *core.Window) {
	st := w.Stats()
	c[cKeystrokes] += float64(st.Keystrokes)
	c[cWindowQueries] += float64(st.Queries)
	c[cWindowRowsFetched] += float64(st.RowsFetched)
}

func (c *counters) addReplica(r *server.Replica) {
	st := r.Stats()
	c[cReplTxnsApplied] += float64(st.TxnsApplied)
	c[cReplTxnsSkipped] += float64(st.TxnsSkipped)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
