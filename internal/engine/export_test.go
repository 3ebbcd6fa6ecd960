package engine

import "repro/internal/plan"

// ExplainPlan renders the prepared plan tree, SELECT and DML statements alike
// (empty for DDL and transaction control), so tests can check a plan's shape.
// The plan is refreshed first if the schema changed since it was prepared.
func (st *Stmt) ExplainPlan() string {
	if st.closed || st.entry.node == nil {
		return ""
	}
	if err := st.ensureCurrent(); err != nil {
		return "error: " + err.Error()
	}
	return plan.Explain(st.entry.node)
}

// Vacuum sweeps every table's whole unsettled list, reclaiming the dead row
// versions no live snapshot can see and dropping the entries that have
// settled. A commit already sweeps the tables it wrote from the head of their
// lists; this also reaches entries behind one that is still pinned. It returns the number of versions
// reclaimed.
func (db *Database) Vacuum() int {
	total := 0
	for _, table := range db.tables() {
		// A failed sweep leaves what it did not reach listed; the next one
		// retries it.
		n, _ := db.txns.Sweep(table, true)
		total += n
	}
	return total
}

// StoredBytes reports whether the cursor's rows are stored heap payloads,
// which AppendNext copies without decoding (exec.AsEncoded).
func StoredBytes(r *Rows) bool { return r.enc != nil }
