package catalog

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// Ints that differ only below float64's 53-bit mantissa: EncodeKey runs every
// number through a float, so all three share one index key.
const big = int64(1) << 53

// locateShape is one table layout of the model test: the schema (which
// decides the automatic indexes), an optional secondary index, and which
// columns may be NULL.
type locateShape struct {
	name     string
	schema   *Schema
	index    []string // columns of a non-unique secondary index, if any
	nullable []bool
	byScan   bool // no index at all: Locate must fall back to the scan
}

func locateShapes() []locateShape {
	intCol := func(name string, pk, unique bool) types.Column {
		return types.Column{Name: name, Type: types.KindInt, PrimaryKey: pk, Unique: unique}
	}
	return []locateShape{
		{name: "single-column primary key",
			schema:   types.NewSchema(intCol("id", true, false), intCol("v", false, false), types.Column{Name: "s", Type: types.KindString}),
			nullable: []bool{false, true, true}},
		{name: "composite primary key",
			schema:   types.NewSchema(intCol("a", true, false), types.Column{Name: "b", Type: types.KindString, PrimaryKey: true}, intCol("v", false, false)),
			nullable: []bool{false, false, true}},
		{name: "unique secondary with NULLs",
			schema:   types.NewSchema(intCol("k", false, true), intCol("v", false, false)),
			nullable: []bool{true, true}},
		{name: "non-unique index, duplicate rows",
			schema:   types.NewSchema(intCol("g", false, false), intCol("v", false, false)),
			index:    []string{"g"},
			nullable: []bool{true, false}},
		{name: "no index",
			schema:   types.NewSchema(intCol("g", false, false), intCol("v", false, false)),
			nullable: []bool{true, false}, byScan: true},
	}
}

// randomValue draws from a domain small enough that rows collide on their
// keys, and sometimes on every column.
func randomValue(rng *rand.Rand, col types.Column, nullable bool) types.Value {
	if nullable && rng.Intn(6) == 0 {
		return types.Null()
	}
	if col.Type == types.KindString {
		return types.NewString(string(rune('a' + rng.Intn(3))))
	}
	if rng.Intn(4) == 0 {
		return types.NewInt(big + int64(rng.Intn(3)))
	}
	return types.NewInt(int64(rng.Intn(12)))
}

func (sh locateShape) randomRow(rng *rand.Rand) Tuple {
	row := make(Tuple, len(sh.schema.Columns))
	for i, col := range sh.schema.Columns {
		row[i] = randomValue(rng, col, sh.nullable[i])
	}
	return row
}

// seesUpTo is the model's snapshot: it sees transaction x iff x is frozen or
// at most asOf. A version is admitted the way txn.Snapshot.Visible admits it.
func seesUpTo(asOf uint64) func(storage.VersionMeta) bool {
	sees := func(x uint64) bool { return x <= asOf }
	return func(m storage.VersionMeta) bool {
		return sees(m.Xmin) && (m.Xmax == 0 || !sees(m.Xmax))
	}
}

// bruteForce is the reference Locate is checked against: every version, in
// heap order, that admit accepts and whose tuple equals image.
func bruteForce(t *testing.T, tbl *Table, image Tuple, admit func(storage.VersionMeta) bool) map[storage.RecordID]bool {
	t.Helper()
	want := map[storage.RecordID]bool{}
	it := tbl.VersionIterator()
	for {
		rid, meta, payload, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return want
		}
		tuple, err := types.DecodeTuple(payload)
		if err != nil {
			t.Fatal(err)
		}
		if admit(meta) && tuple.Equal(image) {
			want[rid] = true
		}
	}
}

// TestLocateAgainstBruteForce drives each index shape through a seeded random
// history of inserts, superseding updates, deletes and vacuums — so keys
// accumulate live and dead versions — and after every step asks Locate for an
// image (a stored tuple, a near miss that keeps the key, or a random row)
// under a random snapshot. Locate must name a version the brute-force scan
// also accepts, or report ErrNoMatchingRow exactly when the scan finds none.
func TestLocateAgainstBruteForce(t *testing.T) {
	for _, sh := range locateShapes() {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				runLocateModel(t, sh, seed)
			}
		})
	}
}

func runLocateModel(t *testing.T, sh locateShape, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := newTestCatalog()
	tbl, err := c.CreateTable("m", sh.schema)
	if err != nil {
		t.Fatal(err)
	}
	if sh.index != nil {
		if _, err := c.CreateIndex("m_idx", "m", sh.index, false); err != nil {
			t.Fatal(err)
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}

	var live []storage.RecordID
	var stored []Tuple // every tuple ever written: the pool of realistic images
	xid := uint64(0)
	for step := 0; step < 150; step++ {
		xid++
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0:
			row := sh.randomRow(rng)
			rid, _, _, err := tbl.InsertVersion(row, xid, nil)
			if err != nil {
				fail("insert: %v", err)
			}
			live, stored = append(live, rid), append(stored, row)
		case op < 7:
			i := rng.Intn(len(live))
			_, payload, err := tbl.ClaimVersion(live[i], xid)
			if err != nil || payload == nil {
				fail("claim: %v", err)
			}
			row, err := types.DecodeTuple(payload)
			if err != nil {
				fail("claimed payload: %v", err)
			}
			// Usually keep the key and change the last column, so the key
			// collects versions; sometimes move the row to another key.
			next := row
			if rng.Intn(4) == 0 {
				next = sh.randomRow(rng)
			} else {
				next[len(next)-1] = types.NewInt(int64(rng.Intn(12)))
			}
			rid, _, _, err := tbl.InsertVersion(next, xid, nil)
			if err != nil {
				fail("update: %v", err)
			}
			live[i], stored = rid, append(stored, next)
		case op < 9:
			i := rng.Intn(len(live))
			if _, _, err := tbl.ClaimVersion(live[i], xid); err != nil {
				fail("delete: %v", err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			if _, err := tbl.Sweep(uint64(rng.Int63n(int64(xid))+1), true); err != nil {
				fail("sweep: %v", err)
			}
		}

		image := sh.randomRow(rng)
		if pick := rng.Intn(5); pick < 4 {
			image = append(Tuple(nil), stored[rng.Intn(len(stored))]...)
			if pick == 3 { // near miss: same key, another value in the last column
				image[len(image)-1] = types.NewInt(int64(rng.Intn(12)))
			}
		}
		admit := seesUpTo(uint64(rng.Int63n(int64(xid) + 1)))
		want := bruteForce(t, tbl, image, admit)
		seeks0, scans0 := c.LocateStats()
		rid, err := tbl.Locate(image, admit)
		switch {
		case len(want) == 0 && !errors.Is(err, ErrNoMatchingRow):
			fail("step %d: Locate(%s) = %v, %v; the scan finds no such version", step, image, rid, err)
		case len(want) > 0 && err != nil:
			fail("step %d: Locate(%s) failed with %v; the scan finds %v", step, image, err, want)
		case len(want) > 0 && !want[rid]:
			fail("step %d: Locate(%s) = %v, not among the scan's %v", step, image, rid, want)
		}
		seeks, scans := c.LocateStats()
		wantSeeks, wantScans := seeks0+1, scans0
		if sh.byScan {
			wantSeeks, wantScans = seeks0, scans0+1
		}
		if seeks != wantSeeks || scans != wantScans {
			fail("step %d: counted (seeks %d, scans %d), want (%d, %d)", step, seeks, scans, wantSeeks, wantScans)
		}
	}
}

// TestLocateKeyEqualityIsNotTupleEquality pins the reason Locate compares the
// whole image: 2^53 and 2^53+1 encode to one primary-key index key, so a seek
// for either finds both versions and only the tuple comparison tells them
// apart — or tells that the row asked for is not there at all.
func TestLocateKeyEqualityIsNotTupleEquality(t *testing.T) {
	c := newTestCatalog()
	tbl, err := c.CreateTable("m", locateShapes()[0].schema)
	if err != nil {
		t.Fatal(err)
	}
	row := func(id int64) Tuple { return Tuple{types.NewInt(id), types.NewInt(7), types.NewString("x")} }
	pk := tbl.PrimaryIndex()
	if string(pk.keyFor(row(big))) != string(pk.keyFor(row(big+1))) {
		t.Fatal("2^53 and 2^53+1 no longer share an index key: this test needs another colliding pair")
	}
	live := func(m storage.VersionMeta) bool { return m.Xmax == 0 }
	first, _, _, err := tbl.InsertVersion(row(big), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Locate(row(big+1), live); !errors.Is(err, ErrNoMatchingRow) {
		t.Errorf("Locate(2^53+1) with only 2^53 stored = %v, want ErrNoMatchingRow", err)
	}
	second, _, _, err := tbl.InsertVersion(row(big+1), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id   int64
		want storage.RecordID
	}{{big, first}, {big + 1, second}} {
		if got, err := tbl.Locate(row(tc.id), live); err != nil || got != tc.want {
			t.Errorf("Locate(id %d) = %v, %v; want %v", tc.id, got, err, tc.want)
		}
	}
}
