package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunAllQuick runs every experiment at the reduced scale and sanity-checks
// the shape of each table. It is the end-to-end smoke test for the whole
// reproduction pipeline (workload → forms → engine → measurements).
func TestRunAllQuick(t *testing.T) {
	tables, err := RunAll(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(Experiments) {
		t.Fatalf("tables = %d, want %d", len(tables), len(Experiments))
	}
	for i, table := range tables {
		if table.ID != Experiments[i] {
			t.Errorf("table %d id = %s", i, table.ID)
		}
		if len(table.Rows) == 0 || len(table.Columns) == 0 {
			t.Errorf("%s is empty", table.ID)
		}
		text := table.String()
		if !strings.Contains(text, table.ID) || !strings.Contains(text, table.Columns[0]) {
			t.Errorf("%s renders badly:\n%s", table.ID, text)
		}
		for _, row := range table.Rows {
			if len(row) != len(table.Columns) {
				t.Errorf("%s has a ragged row: %v", table.ID, row)
			}
		}
	}
}

// TestE1ShapeFormOverheadIsBounded checks the qualitative claim: the form
// interface costs more than raw SQL but by a modest factor, not orders of
// magnitude.
func TestE1ShapeFormOverheadIsBounded(t *testing.T) {
	table, err := RunE1(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		ratioText := strings.TrimSuffix(row[3], "x")
		ratio, err := strconv.ParseFloat(ratioText, 64)
		if err != nil {
			t.Fatalf("ratio %q", row[3])
		}
		if ratio > 100 {
			t.Errorf("%s overhead %.1fx is implausibly high", row[0], ratio)
		}
	}
}

// TestE2ShapeSelectivityOrdering checks that the point lookup touches fewer
// rows than the half-the-table predicate and that an index path is used for
// the key lookup.
func TestE2ShapeSelectivityOrdering(t *testing.T) {
	table, err := RunE2(Quick)
	if err != nil {
		t.Fatal(err)
	}
	first := table.Rows[0]
	if first[1] != "index lookup" {
		t.Errorf("key lookup access path = %q", first[1])
	}
	firstRows, _ := strconv.Atoi(first[2])
	halfRows, _ := strconv.Atoi(table.Rows[3][2])
	if firstRows >= halfRows {
		t.Errorf("selectivity ordering wrong: %d vs %d", firstRows, halfRows)
	}
}

// TestE4ShapeMoreWindowsMoreRefreshes checks that propagation work grows with
// the number of open windows.
func TestE4ShapeMoreWindowsMoreRefreshes(t *testing.T) {
	table, err := RunE4(Quick)
	if err != nil {
		t.Fatal(err)
	}
	firstRefreshed, _ := strconv.ParseFloat(table.Rows[0][2], 64)
	lastRefreshed, _ := strconv.ParseFloat(table.Rows[len(table.Rows)-1][2], 64)
	if lastRefreshed <= firstRefreshed {
		t.Errorf("refreshes should grow with windows: %v vs %v", firstRefreshed, lastRefreshed)
	}
}

// TestE8ShapeFormsNeedFewerKeystrokes checks the headline usability claim.
func TestE8ShapeFormsNeedFewerKeystrokes(t *testing.T) {
	table, err := RunE8(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		form, _ := strconv.Atoi(row[1])
		sqlKeys, _ := strconv.Atoi(row[2])
		if form <= 0 || sqlKeys <= 0 {
			t.Errorf("%s has zero keystrokes: %v", row[0], row)
		}
		if form >= sqlKeys {
			t.Errorf("%s: form (%d keys) should beat SQL (%d keys)", row[0], form, sqlKeys)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", Quick); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestE12ShapeBatchedPooledIngestBeatsPerRow checks the protocol v2 claim:
// pooled ExecBatch ingest must beat the per-row remote path, and must do it
// in far fewer protocol round trips.
func TestE12ShapeBatchedPooledIngestBeatsPerRow(t *testing.T) {
	table, err := RunE12(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("E12 has %d rows, want 3", len(table.Rows))
	}
	perRowTrips, _ := strconv.Atoi(table.Rows[0][3])
	pooled := table.Rows[len(table.Rows)-1]
	pooledTrips, _ := strconv.Atoi(pooled[3])
	if pooledTrips <= 0 || perRowTrips <= pooledTrips {
		t.Errorf("round trips did not shrink: per-row %d vs pooled %d", perRowTrips, pooledTrips)
	}
	speedup, err := strconv.ParseFloat(strings.TrimSuffix(pooled[6], "x"), 64)
	if err != nil {
		t.Fatalf("speedup cell %q", pooled[6])
	}
	if speedup <= 1 {
		t.Errorf("pooled batched ingest speedup %.2fx does not beat the per-row path", speedup)
	}
}

// TestE15ShapeGroupCommitSavesFsyncsAndLosesNothing checks the durability
// claims: at 8 committers group commit must issue fewer fsyncs than
// per-commit fsync (riding committers show up as fsyncs saved) without being
// slower, and the crash phase — SIGKILL the real server mid-ingest, restart —
// must report zero committed-row loss.
func TestE15ShapeGroupCommitSavesFsyncsAndLosesNothing(t *testing.T) {
	table, err := RunE15(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("E15 has %d rows, want 2 (per-commit fsync, group commit)", len(table.Rows))
	}
	solo, group := table.Rows[0], table.Rows[1]
	soloFsyncs, _ := strconv.Atoi(solo[5])
	groupFsyncs, _ := strconv.Atoi(group[5])
	groupSaved, _ := strconv.Atoi(group[6])
	rows, _ := strconv.Atoi(group[2])
	if groupFsyncs >= soloFsyncs {
		t.Errorf("group commit issued %d fsyncs vs %d per-commit: no batching happened", groupFsyncs, soloFsyncs)
	}
	if groupSaved <= 0 {
		t.Errorf("group commit saved %d fsyncs, want > 0", groupSaved)
	}
	if groupFsyncs+groupSaved < rows {
		t.Errorf("fsync economy does not add up: %d batches + %d riders < %d durable commits",
			groupFsyncs, groupSaved, rows)
	}
	if _, err := strconv.ParseFloat(strings.TrimSuffix(group[7], "x"), 64); err != nil {
		t.Fatalf("speedup cell %q", group[7])
	}
	var crashed bool
	for _, note := range table.Notes {
		if strings.Contains(note, "zero committed-row loss") {
			crashed = true
		}
		if strings.Contains(note, "crash phase skipped") {
			t.Logf("E15 %s", note)
			crashed = true // environment without a toolchain: phase 1 still validated
		}
	}
	if !crashed {
		t.Errorf("E15 notes report neither a survived crash nor a skip: %q", table.Notes)
	}
}

// TestE13ShapePagedWindowFetchesOnePage checks the windowed-browsing claim:
// a refresh over the largest workload table must fetch at most one buffer
// page (plus the one-row count) while the materialise rows fetch the whole
// table — locally and over the wire — and the printed reduction reflects it.
func TestE13ShapePagedWindowFetchesOnePage(t *testing.T) {
	table, err := RunE13(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("E13 has %d rows, want 4 (local/remote × materialise/paged)", len(table.Rows))
	}
	tableRows := Quick.Sizes.Orders * Quick.Sizes.ItemsPerOrder
	for _, row := range table.Rows {
		mode := row[0]
		fetched, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatalf("%s: refresh fetches cell %q", mode, row[2])
		}
		if strings.Contains(mode, "materialise") {
			if fetched != tableRows {
				t.Errorf("%s fetched %d rows, want the whole table (%d)", mode, fetched, tableRows)
			}
			continue
		}
		// Paged: one page plus the count row, far under the table size. The
		// page budget is printed in the first note.
		if fetched >= tableRows/4 {
			t.Errorf("%s fetched %d of %d rows; paging should fetch O(page)", mode, fetched, tableRows)
		}
		reduction, err := strconv.ParseFloat(strings.TrimSuffix(row[8], "x"), 64)
		if err != nil {
			t.Fatalf("%s: reduction cell %q", mode, row[8])
		}
		// End must read about a page of the engine's pages, not the table's
		// (RunE13 fails outright above its budget).
		if endPages, err := strconv.Atoi(row[7]); err != nil || endPages >= tableRows/4 {
			t.Errorf("%s: End touched %q buffer-pool pages of a %d-row table", mode, row[7], tableRows)
		}
		if reduction < 4 {
			t.Errorf("%s reduction %.1fx is too small for a %d-row table", mode, reduction, tableRows)
		}
	}
	if len(table.Notes) == 0 || !strings.Contains(table.Notes[0], "page") {
		t.Errorf("E13 should print the page budget in its notes")
	}
}

// TestE14ShapeMVCCBeatsTableLocks checks the MVCC acceptance claim: at 8
// clients the mixed read/write workload must run at least 2x faster through
// bare MVCC than through the emulated table-lock discipline, with zero
// lock-timeout aborts on the MVCC side (there is no timeout path to abort
// on), and the perf record must round-trip through BENCH_E14.json.
func TestE14ShapeMVCCBeatsTableLocks(t *testing.T) {
	table, err := RunE14(Quick)
	if err != nil {
		t.Fatal(err)
	}
	var eight []string
	for _, row := range table.Rows {
		if row[0] == "8" {
			eight = row
		}
	}
	if eight == nil {
		t.Fatalf("E14 has no 8-client row: %v", table.Rows)
	}
	if eight[3] != "0" {
		t.Errorf("MVCC reported %s lock-timeout aborts at 8 clients, want 0", eight[3])
	}
	speedup, err := strconv.ParseFloat(strings.TrimSuffix(eight[6], "x"), 64)
	if err != nil {
		t.Fatalf("speedup cell %q", eight[6])
	}
	if speedup < 2 {
		t.Errorf("MVCC speedup %.1fx at 8 clients, want >= 2x over the table-lock baseline", speedup)
	}

	path, err := WritePerf(t.TempDir(), "quick", table)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_E14.json" {
		t.Errorf("perf record written to %s, want BENCH_E14.json", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec PerfRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("perf record is not valid JSON: %v", err)
	}
	if rec.ID != "E14" || len(rec.Rows) != len(table.Rows) || len(rec.Columns) != len(table.Columns) {
		t.Errorf("perf record lost shape: %+v", rec)
	}
}

// TestE16ShapeTypedWriteReadCostsFewerMessages checks the typed-client
// claims: the RETURNING write+read must cost fewer server messages per
// operation than the raw INSERT-then-SELECT pair, and the reflection caches
// must be warm (hits recorded) by the end of the run.
func TestE16ShapeTypedWriteReadCostsFewerMessages(t *testing.T) {
	table, err := RunE16(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("E16 has %d rows, want 4", len(table.Rows))
	}
	rawMsgs, _ := strconv.ParseFloat(table.Rows[0][3], 64)
	typedMsgs, _ := strconv.ParseFloat(table.Rows[1][3], 64)
	if typedMsgs >= rawMsgs {
		t.Errorf("typed write+read costs %.1f msgs/op vs raw %.1f: RETURNING saved nothing", typedMsgs, rawMsgs)
	}
	found := false
	for _, note := range table.Notes {
		if strings.Contains(note, "type-reflection hit(s)") && !strings.Contains(note, " 0 type-reflection hit(s)") {
			found = true
		}
	}
	if !found {
		t.Errorf("E16 notes do not report warm reflection caches: %q", table.Notes)
	}
}
