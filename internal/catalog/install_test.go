package catalog

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/types"
)

// installSchema is the oracle's table: a unique INT primary key and three
// secondary indexes, over a non-unique INT, a TEXT and both of them, whose
// columns hold NULLs and repeated values.
func installSchema() *Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "grp", Type: types.KindInt},
		types.Column{Name: "tag", Type: types.KindString},
		types.Column{Name: "amount", Type: types.KindFloat},
	)
}

// newInstallTable creates the oracle's table and its three secondary
// indexes in a fresh catalog.
func newInstallTable(t *testing.T) *Table {
	t.Helper()
	c := newTestCatalog()
	tbl, err := c.CreateTable("m", installSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		name string
		cols []string
	}{{"m_grp", []string{"grp"}}, {"m_tag", []string{"tag"}}, {"m_grp_tag", []string{"grp", "tag"}}} {
		if _, err := c.CreateIndex(ix.name, "m", ix.cols, false); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// installRows generates n rows with distinct ids in random order, a grp and
// a tag drawn from a few values each or NULL, and an amount.
func installRows(rng *rand.Rand, n int) []Tuple {
	rows := make([]Tuple, n)
	for i, id := range rng.Perm(n) {
		grp, tag := types.Null(), types.Null()
		if rng.Intn(6) > 0 {
			grp = types.NewInt(int64(rng.Intn(12) - 3))
		}
		if rng.Intn(5) > 0 {
			tag = types.NewString([]string{"", "a", "ab", "b", "tag-" + strings.Repeat("z", rng.Intn(4))}[rng.Intn(5)])
		}
		rows[i] = Tuple{types.NewInt(int64(id)), grp, tag, types.NewFloat(float64(rng.Intn(1000)) / 4)}
	}
	return rows
}

// indexContents maps each key of idx to the sorted primary keys of the rows
// under it, reading every rid the tree holds through a full-range cursor and
// deriving each key from the row the rid names. It fails the test when the
// cursor yields keys out of order.
func indexContents(t *testing.T, tbl *Table, idx *Index) map[string][]int64 {
	t.Helper()
	out := map[string][]int64{}
	cur := idx.Tree.Cursor(btree.Range{})
	var last string
	for rids := cur.Next(nil); len(rids) > 0; rids = cur.Next(rids[:0]) {
		for _, rid := range rids {
			row := getRow(t, tbl, rid)
			key := string(idx.keyFor(row))
			if key < last {
				t.Fatalf("%s yields key %x after %x", idx.Name, key, last)
			}
			last = key
			out[key] = append(out[key], row[0].Int())
		}
	}
	for _, ids := range out {
		slices.Sort(ids)
	}
	return out
}

// TestConcurrentIndexBuildsMatchRowByRowInserts: InstallImage builds a
// table's indexes on concurrent goroutines. Under GOMAXPROCS 1 (one build
// after another) and 2, every index of an installed image maps each key to
// the same rows as a twin filled by per-row InsertVersion, for seeded images
// with NULLs and repeated keys. A row of the wrong kind at a seeded position
// fails with the row's error and installs nothing, and a build that fails
// is reported for the first failing index in the table's order.
func TestConcurrentIndexBuildsMatchRowByRowInserts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for seed := int64(1); seed <= 6; seed++ {
			t.Logf("GOMAXPROCS %d, seed %d", procs, seed)
			rng := rand.New(rand.NewSource(seed))
			rows := installRows(rng, 200+rng.Intn(1800))
			xmins := make([]uint64, len(rows))
			for i := range xmins {
				xmins[i] = uint64(rng.Intn(50))
			}

			twin := newInstallTable(t)
			for i, row := range rows {
				if _, _, _, err := twin.InsertVersion(row, xmins[i], nil); err != nil {
					t.Fatalf("seed %d: twin row %d: %v", seed, i, err)
				}
			}
			tbl := newInstallTable(t)
			if err := tbl.InstallImage(encodeRows(rows...), xmins); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			twins := twin.Indexes()
			for i, idx := range tbl.Indexes() {
				if n := idx.Tree.CountRange(btree.Range{}); n != len(rows) {
					t.Fatalf("seed %d: %s holds %d entries, want %d", seed, idx.Name, n, len(rows))
				}
				got, want := indexContents(t, tbl, idx), indexContents(t, twin, twins[i])
				if len(got) != len(want) {
					t.Fatalf("seed %d: %s holds %d keys, the twin %d", seed, idx.Name, len(got), len(want))
				}
				for key, ids := range want {
					if !slices.Equal(got[key], ids) {
						t.Fatalf("seed %d: %s maps key %x to rows %v, the twin to %v", seed, idx.Name, key, got[key], ids)
					}
				}
			}

			// A wrong kind (a TEXT grp) at a seeded position.
			pos := rng.Intn(len(rows))
			payloads := encodeRows(rows...)
			payloads[pos] = types.EncodeTuple(nil, Tuple{rows[pos][0], types.NewString("7"), types.Null(), types.Null()})
			checkErr := types.CheckEncoded(payloads[pos], installSchema())
			if checkErr == nil {
				t.Fatal("CheckEncoded accepted a TEXT in an INT column")
			}
			bad := newInstallTable(t)
			err := bad.InstallImage(payloads, xmins)
			if want := fmt.Sprintf("catalog: image row %d of m: %v", pos, checkErr); err == nil || err.Error() != want {
				t.Fatalf("seed %d: an image with a wrong kind at row %d: %v, want %q", seed, pos, err, want)
			}
			if n := bad.heap.Count(); n != 0 {
				t.Fatalf("seed %d: the refused image left %d versions", seed, n)
			}
			for _, idx := range bad.Indexes() {
				if n := idx.Tree.CountRange(btree.Range{}); n != 0 {
					t.Fatalf("seed %d: the refused image left %d entries in %s", seed, n, idx.Name)
				}
			}
		}

		// The second and last indexes cannot load: the error names the
		// second, the first failing in the table's order, every time.
		for try := 0; try < 20; try++ {
			tbl := newInstallTable(t)
			idxs := tbl.Indexes()
			for _, idx := range []*Index{idxs[1], idxs[3]} {
				idx.Tree.Insert([]byte("x"), storage.RecordID{})
			}
			err := tbl.InstallImage(encodeRows(installRows(rand.New(rand.NewSource(int64(try))), 50)...), make([]uint64, 50))
			want := fmt.Sprintf("catalog: image index %s: btree: Load into a tree that holds 1 entries", idxs[1].Name)
			if err == nil || err.Error() != want {
				t.Fatalf("GOMAXPROCS %d: two failing builds: %v, want %q", procs, err, want)
			}
		}
	}
}
