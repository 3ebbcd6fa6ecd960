package engine

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/types"
)

// The tests below count allocations rather than time. A row moves between
// the heap and the checkpoint file as its stored payload, copied as it is;
// each budget leaves room above what that costs and stays well below what
// decoding every row into a tuple and encoding it again costs.

// fillOrders creates a four-column table and commits n rows into it in
// batches.
func fillOrders(t *testing.T, s *Session, n int) {
	t.Helper()
	if _, err := s.Execute("CREATE TABLE orders (id INT PRIMARY KEY, customer TEXT, qty INT, total FLOAT)"); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO orders VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]types.Value, 0, 1000)
	for i := 0; i < n; i++ {
		batch = append(batch, []types.Value{intv(i), strv("customer"), intv(i % 9), types.NewFloat(float64(i) / 4)})
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := ins.ExecBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

// TestOpenAllocationsPerImageRow: recovering a 20 000-row checkpoint image
// allocates less than half an object per row. The payloads are sliced from
// the file's frame, checked in place and appended to the heap as they are,
// and each index key is built from the bytes.
func TestOpenAllocationsPerImageRow(t *testing.T) {
	const rows = 20000
	walPath := filepath.Join(t.TempDir(), "wow.wal")
	db, err := Open(Options{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	fillOrders(t, s, rows)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(s.Close(), db.Close()); err != nil {
		t.Fatal(err)
	}

	var image int
	allocs := testing.AllocsPerRun(2, func() {
		db, err := Open(Options{WALPath: walPath})
		if err != nil {
			t.Fatal(err)
		}
		image = db.Recovery().ImageRows
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if image != rows {
		t.Fatalf("recovery installed %d image rows, want %d", image, rows)
	}
	perRow := allocs / rows
	t.Logf("Open: %.0f allocations, %.3f per image row", allocs, perRow)
	if perRow >= 0.5 {
		t.Errorf("Open allocates %.2f objects per image row, want fewer than 0.5", perRow)
	}
}

// TestCheckpointAllocationsPerRow: a checkpoint of 20 000 rows allocates
// less than a quarter of an object per row. Each page's payloads are copied
// out of the buffer pool once and written to the image undecoded.
func TestCheckpointAllocationsPerRow(t *testing.T) {
	const rows = 20000
	db, err := Open(Options{WALPath: filepath.Join(t.TempDir(), "wow.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	fillOrders(t, s, rows)

	var captured int
	allocs := testing.AllocsPerRun(3, func() {
		st, err := db.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		captured = st.Rows
	})
	if captured != rows {
		t.Fatalf("checkpoint captured %d rows, want %d", captured, rows)
	}
	perRow := allocs / rows
	t.Logf("Checkpoint: %.0f allocations, %.3f per row", allocs, perRow)
	if perRow >= 0.25 {
		t.Errorf("Checkpoint allocates %.2f objects per row, want fewer than 0.25", perRow)
	}
}

// TestSeqScanDecodesOnlyVisibleVersions: a scan decodes a version only after
// the snapshot has admitted it. A reader's snapshot sees 10 000 rows while
// three later committed updates of every row have left 30 000 versions it
// cannot see, and the reader runs COUNT(*), SUM(total) over them twice: by a
// sequential scan, which reads the versions a page at a time, and by a
// primary-key range, which fetches each version the index names. The
// sequential scan allocates at most 4 objects per visible row, where
// decoding every version first cost 4 times a visible row's decode. The
// range judges each version's header in place, so a version it cannot see
// costs nothing past its index entry: it allocated 16 objects per visible
// row when it decoded every version it fetched, 10 when it copied each one
// out of its page and allocated an LRU entry per pin, and 2 now, within a
// budget of 4.
//
// The third input reads the same primary-key range as SELECT *, row by row
// through Rows.AppendNext, as the server fills a Cursor frame: each visible
// row's stored payload is appended as it is. Pulling the rows with Next and
// encoding each, as the server did before, allocated 11 objects per visible
// row; AppendNext allocates 0.005, within a budget of 1.
func TestSeqScanDecodesOnlyVisibleVersions(t *testing.T) {
	const rows = 10000
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	writer, reader := db.Session(), db.Session()
	defer writer.Close()
	defer reader.Close()
	fillOrders(t, writer, rows)

	queries := []struct {
		name, text string
		appendNext bool    // read through Rows.AppendNext, not materialised
		budget     float64 // allocations per visible row
	}{
		{"seq scan", "SELECT COUNT(*), SUM(total) FROM orders", false, 4},
		{"index range", "SELECT COUNT(*), SUM(total) FROM orders WHERE id >= 0", false, 4},
		{"index range", "SELECT * FROM orders WHERE id >= 0", true, 1},
	}
	// pull reads a query's whole result and returns what the reader compares
	// across the updates and the number of rows it read.
	var buf []byte
	pull := func(text string, appendNext bool) (string, int64) {
		if !appendNext {
			res, err := reader.Query(text)
			if err != nil {
				t.Fatal(err)
			}
			return res.Rows[0].String(), res.Rows[0][0].Int()
		}
		st, err := reader.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cursor, err := st.Query()
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		buf = buf[:0]
		for {
			var more bool
			if buf, more = cursor.AppendNext(buf); !more {
				break
			}
			n++
		}
		if err := cursor.Err(); err != nil {
			t.Fatal(err)
		}
		return string(buf), n
	}
	if _, err := reader.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(queries))
	for i, q := range queries {
		before[i], _ = pull(q.text, q.appendNext)
	}
	for round := 0; round < 3; round++ {
		if _, err := writer.Execute("UPDATE orders SET total = total + 1"); err != nil {
			t.Fatal(err)
		}
	}
	table, err := db.Catalog().GetTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	versions := 0
	for it := table.VersionIterator(); ; {
		_, _, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		versions++
	}
	if versions < 4*rows {
		t.Fatalf("the table holds %d versions, want at least %d", versions, 4*rows)
	}

	for i, q := range queries {
		st, err := reader.Prepare(q.text)
		if err != nil {
			t.Fatal(err)
		}
		if plan := st.ExplainPlan(); !strings.Contains(plan, q.name) {
			t.Fatalf("%s is not a %s:\n%s", q.text, q.name, plan)
		}
		var after string
		var n int64
		allocs := testing.AllocsPerRun(5, func() {
			after, n = pull(q.text, q.appendNext)
		})
		if after != before[i] || n != rows {
			t.Fatalf("%s: the reader's snapshot reads %d rows, and different ones after the updates; want the same %d rows both times", q.text, n, rows)
		}
		perRow := allocs / rows
		t.Logf("%s over %d versions: %.0f allocations, %.3f per visible row", q.text, versions, allocs, perRow)
		if perRow > q.budget {
			t.Errorf("%s allocates %.2f objects per visible row, want at most %.0f", q.text, perRow, q.budget)
		}
	}
}

// TestSelectStarPageAllocatesPerRow counts the allocations of one remote
// form page as the server reads it: a prepared 30-row SELECT * primary-key
// range, run and drained through Rows.AppendNext into a reused buffer. The
// rows are copied from their pages as stored, so what is left is the
// statement's per-run cost spread over its rows. Pulling the same page with
// Next and encoding each row allocated 5.7 objects per row (a copy of each
// payload, an LRU entry per pin, the decoded tuple and its text, and the
// projection's copy); AppendNext allocates 0.7, within a budget of 3.
func TestSelectStarPageAllocatesPerRow(t *testing.T) {
	const rows, page = 2000, 30
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session()
	defer s.Close()
	fillOrders(t, s, rows)
	st, err := s.Prepare("SELECT * FROM orders WHERE id >= ? AND id < ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if plan := st.ExplainPlan(); !strings.Contains(plan, "index range") || strings.Contains(plan, "Sort") {
		t.Fatalf("the page is not read by an index range in key order:\n%s", plan)
	}
	var buf []byte
	lo := 0
	read := 0
	allocs := testing.AllocsPerRun(50, func() {
		lo = (lo + 97) % (rows - page)
		cursor, err := st.Query(types.NewInt(int64(lo)), types.NewInt(int64(lo+page)))
		if err != nil {
			t.Fatal(err)
		}
		buf, read = buf[:0], 0
		for {
			var more bool
			if buf, more = cursor.AppendNext(buf); !more {
				break
			}
			read++
		}
		if err := cursor.Err(); err != nil {
			t.Fatal(err)
		}
	})
	if read != page {
		t.Fatalf("the page read %d rows, want %d", read, page)
	}
	perRow := allocs / page
	t.Logf("a %d-row SELECT * page through AppendNext: %.0f allocations, %.2f per row", page, allocs, perRow)
	if perRow > 3 {
		t.Errorf("a SELECT * page allocates %.2f objects per row, want at most 3", perRow)
	}
}
