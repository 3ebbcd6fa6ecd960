package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/types"
)

func newTestCatalog() *Catalog {
	return New(storage.NewBufferPool(storage.NewMemDiskManager(), 256))
}

// insertFrozen writes row as a frozen version (xmin=0, visible to every
// snapshot), the shape bootstrap and recovery leave behind.
func insertFrozen(t testing.TB, tbl *Table, row Tuple) storage.RecordID {
	t.Helper()
	rid, _, _, err := tbl.InsertVersion(row, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// getRow reads and decodes the version at rid.
func getRow(t testing.TB, tbl *Table, rid storage.RecordID) Tuple {
	t.Helper()
	_, payload, err := tbl.GetVersion(rid)
	if err != nil {
		t.Fatal(err)
	}
	row, err := types.DecodeTuple(payload)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// liveRows counts the versions without an xmax.
func liveRows(t testing.TB, tbl *Table) int {
	t.Helper()
	n := 0
	for it := tbl.VersionIterator(); ; {
		_, meta, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		if meta.Xmax == 0 {
			n++
		}
	}
}

func customerSchema() *Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "name", Type: types.KindString, NotNull: true},
		types.Column{Name: "city", Type: types.KindString},
		types.Column{Name: "credit", Type: types.KindFloat},
	)
}

func TestCreateGetDropTable(t *testing.T) {
	c := newTestCatalog()
	tbl, err := c.CreateTable("Customers", customerSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name() != "customers" {
		t.Errorf("Name = %q", tbl.Name())
	}
	if !c.HasTable("CUSTOMERS") {
		t.Error("HasTable should be case-insensitive")
	}
	got, err := c.GetTable("customers")
	if err != nil || got != tbl {
		t.Errorf("GetTable = %v, %v", got, err)
	}
	if _, err := c.CreateTable("customers", customerSchema()); err == nil {
		t.Error("duplicate table should be rejected")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "customers" {
		t.Errorf("TableNames = %v", names)
	}
	if err := c.DropTable("customers"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("customers"); err == nil {
		t.Error("dropping a missing table should error")
	}
	if _, err := c.GetTable("customers"); err == nil {
		t.Error("GetTable after drop should error")
	}
}

func TestCreateTableValidation(t *testing.T) {
	c := newTestCatalog()
	if _, err := c.CreateTable("", customerSchema()); err == nil {
		t.Error("empty name should be rejected")
	}
	if _, err := c.CreateTable("t", types.NewSchema()); err == nil {
		t.Error("empty schema should be rejected")
	}
	dup := types.NewSchema(
		types.Column{Name: "a", Type: types.KindInt},
		types.Column{Name: "A", Type: types.KindInt},
	)
	if _, err := c.CreateTable("t", dup); err == nil {
		t.Error("duplicate column names should be rejected")
	}
}

func TestPrimaryKeyIndexAutoCreated(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	pk := tbl.PrimaryIndex()
	if pk == nil || !pk.Unique || pk.Columns[0] != "id" {
		t.Fatalf("PrimaryIndex = %+v", pk)
	}
	if len(tbl.Indexes()) != 1 {
		t.Errorf("Indexes = %d", len(tbl.Indexes()))
	}
}

func TestUniqueColumnIndexAutoCreated(t *testing.T) {
	c := newTestCatalog()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "email", Type: types.KindString, Unique: true},
	)
	tbl, err := c.CreateTable("users", schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Indexes()) != 2 {
		t.Fatalf("expected 2 indexes, got %d", len(tbl.Indexes()))
	}
	// A probing insert sees a live version under the email index's key.
	insertFrozen(t, tbl, Tuple{types.NewInt(1), types.NewString("a@x.com")})
	email := tbl.indexByName("users_email_key")
	if email == nil || !email.Unique {
		t.Fatalf("unique email index = %+v", email)
	}
	probe := &KeyProbe{InFlight: func(uint64) bool { return false }}
	if _, _, _, err := tbl.InsertVersion(Tuple{types.NewInt(2), types.NewString("a@x.com")}, 5, probe); !errors.Is(err, ErrUniqueViolation) {
		t.Errorf("inserting a held email = %v, want ErrUniqueViolation", err)
	}
	if _, _, _, err := tbl.InsertVersion(Tuple{types.NewInt(2), types.NewString("b@x.com")}, 5, probe); err != nil {
		t.Errorf("inserting an email never inserted = %v", err)
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	rid := insertFrozen(t, tbl, Tuple{types.NewInt(1), types.NewString("Ada"), types.NewString("Boston"), types.NewFloat(100)})
	row := getRow(t, tbl, rid)
	if row[1].Str() != "Ada" {
		t.Fatalf("GetVersion = %v", row)
	}
	if n := liveRows(t, tbl); n != 1 {
		t.Errorf("live rows = %d", n)
	}

	// Replace the version physically: remove the old one, insert the new
	// row frozen.
	if err := tbl.RemoveVersion(rid); err != nil {
		t.Fatal(err)
	}
	updated := Tuple{types.NewInt(1), types.NewString("Ada"), types.NewString("Chicago"), types.NewFloat(250)}
	newRID := insertFrozen(t, tbl, updated)
	if row = getRow(t, tbl, newRID); row[2].Str() != "Chicago" {
		t.Errorf("after update: %v", row)
	}
	pk := tbl.PrimaryIndex()
	if rids := pk.Tree.Search(pk.keyFor(updated)); len(rids) != 1 || rids[0] != newRID {
		t.Errorf("primary key entries after update = %v, want [%v]", rids, newRID)
	}

	if err := tbl.RemoveVersion(newRID); err != nil {
		t.Fatal(err)
	}
	if n := liveRows(t, tbl); n != 0 {
		t.Errorf("live rows after delete = %d", n)
	}
	if _, _, err := tbl.GetVersion(newRID); err == nil {
		t.Error("GetVersion after delete should fail")
	}
	if err := tbl.RemoveVersion(newRID); err == nil {
		t.Error("double delete should fail")
	}
}

func TestInsertConstraints(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	insertFrozen(t, tbl, Tuple{types.NewInt(1), types.NewString("Ada"), types.NewString("Boston"), types.NewFloat(1)})
	// NULL in NOT NULL.
	if _, _, _, err := tbl.InsertVersion(Tuple{types.NewInt(2), types.Null(), types.Null(), types.Null()}, 7, nil); err == nil {
		t.Error("NOT NULL violation should fail")
	}
	// Wrong arity.
	if _, _, _, err := tbl.InsertVersion(Tuple{types.NewInt(3)}, 7, nil); err == nil {
		t.Error("arity violation should fail")
	}
	// Type coercion: string credit should coerce to float.
	rid, _, _, err := tbl.InsertVersion(Tuple{types.NewInt(4), types.NewString("Bo"), types.Null(), types.NewString("12.5")}, 7, nil)
	if err != nil {
		t.Fatalf("coercible insert failed: %v", err)
	}
	if row := getRow(t, tbl, rid); row[3].Kind() != types.KindFloat {
		t.Errorf("credit stored as %v, want a float", row[3])
	}
	if n := liveRows(t, tbl); n != 2 {
		t.Errorf("live rows = %d, want 2", n)
	}
}

func TestSecondaryIndexLifecycle(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	for i := 0; i < 100; i++ {
		city := "Boston"
		if i%2 == 0 {
			city = "Chicago"
		}
		insertFrozen(t, tbl, Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("c%d", i)), types.NewString(city), types.NewFloat(float64(i))})
	}
	idx, err := c.CreateIndex("customers_city", "customers", []string{"city"}, false)
	if err != nil {
		t.Fatal(err)
	}
	boston := types.EncodeKey(nil, types.NewString("Boston"))
	if got := idx.Tree.Search(boston); len(got) != 50 {
		t.Errorf("backfilled index lookup = %d rows", len(got))
	}
	// New inserts must be reflected.
	insertFrozen(t, tbl, Tuple{types.NewInt(1000), types.NewString("new"), types.NewString("Boston"), types.Null()})
	if got := idx.Tree.Search(boston); len(got) != 51 {
		t.Errorf("index after insert = %d rows", len(got))
	}
	// IndexOn finds it.
	if tbl.IndexOn("city") != idx {
		t.Error("IndexOn(city) should find the new index")
	}
	if tbl.IndexOn("name") != nil {
		t.Error("IndexOn(name) should be nil")
	}
	// Duplicate index name rejected.
	if _, err := c.CreateIndex("customers_city", "customers", []string{"name"}, false); err == nil {
		t.Error("duplicate index name should fail")
	}
	// Unknown table / column.
	if _, err := c.CreateIndex("x", "nope", []string{"city"}, false); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := c.CreateIndex("y", "customers", []string{"nope"}, false); err == nil {
		t.Error("unknown column should fail")
	}
	if err := c.DropIndex("customers_city"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("customers_city"); err == nil {
		t.Error("dropping a missing index should fail")
	}
}

func TestCreateUniqueIndexOverDuplicateDataFails(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	insertFrozen(t, tbl, Tuple{types.NewInt(1), types.NewString("Ada"), types.NewString("Boston"), types.Null()})
	insertFrozen(t, tbl, Tuple{types.NewInt(2), types.NewString("Bob"), types.NewString("Boston"), types.Null()})
	if _, err := c.CreateIndex("city_unique", "customers", []string{"city"}, true); err == nil {
		t.Error("unique index over duplicate data should fail")
	}
	// The failed index must not remain attached.
	if tbl.indexByName("city_unique") != nil {
		t.Error("failed index should have been dropped")
	}
}

// encodeRows returns the stored payloads of rows.
func encodeRows(rows ...Tuple) [][]byte {
	out := make([][]byte, len(rows))
	for i, row := range rows {
		out[i] = types.EncodeTuple(nil, row)
	}
	return out
}

// TestInstallImage covers the bulk install's contract: payloads arrive with
// their xmins and behind every index, a bad row installs nothing, and a table
// that already holds a version refuses an image.
func TestInstallImage(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	if _, err := c.CreateIndex("customers_city", "customers", []string{"city"}, false); err != nil {
		t.Fatal(err)
	}
	good := types.EncodeTuple(nil, Tuple{types.NewInt(1), types.NewString("Ada"), types.NewString("Boston"), types.Null()})
	bad := map[string][]byte{
		// name is NOT NULL
		"a NULL in a NOT NULL column": types.EncodeTuple(nil, Tuple{types.NewInt(2), types.Null(), types.NewString("Erie"), types.Null()}),
		"a truncated row":             good[:len(good)-3],
		"a row with trailing bytes":   append(append([]byte(nil), good...), 0),
		// a kind other than the column's is refused, not cast
		"an INT in a FLOAT column":     types.EncodeTuple(nil, Tuple{types.NewInt(2), types.NewString("Bo"), types.Null(), types.NewInt(7)}),
		"a row with one value too few": types.EncodeTuple(nil, Tuple{types.NewInt(2), types.NewString("Bo"), types.Null()}),
	}
	for name, row := range bad {
		if err := tbl.InstallImage([][]byte{good, row}, []uint64{0, 0}); err == nil {
			t.Errorf("an image with %s installed", name)
		}
	}
	if err := tbl.InstallImage([][]byte{good}, []uint64{0, 0}); err == nil {
		t.Fatal("an image with more xmins than rows installed")
	}
	if n := tbl.heap.Count(); n != 0 {
		t.Fatalf("the refused images left %d versions", n)
	}
	for _, idx := range tbl.Indexes() {
		if n := idx.Tree.CountRange(btree.Range{}); n != 0 {
			t.Fatalf("the refused images left %d entries in %s", n, idx.Name)
		}
	}

	var rows []Tuple
	var xmins []uint64
	for i := 0; i < 300; i++ {
		rows = append(rows, Tuple{types.NewInt(int64(i)), types.NewString("x"), types.NewString([]string{"Boston", "Erie"}[i%2]), types.Null()})
		xmins = append(xmins, uint64(i%5))
	}
	payloads := encodeRows(rows...)
	if err := tbl.InstallImage(payloads, xmins); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		rids := tbl.PrimaryIndex().Tree.Search(tbl.PrimaryIndex().keyFor(row))
		if len(rids) != 1 {
			t.Fatalf("row %d is under %d primary-key entries", i, len(rids))
		}
		meta, got, err := tbl.heap.GetVersion(rids[0])
		if err != nil || meta.Xmin != xmins[i] || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("row %d reads back as %x with %+v (%v)", i, got, meta, err)
		}
	}
	city := tbl.indexByName("customers_city")
	if got := len(city.Tree.Search(city.keyFor(rows[1]))); got != 150 {
		t.Errorf("city index holds %d Erie entries, want 150", got)
	}
	if err := tbl.InstallImage(payloads[:1], xmins[:1]); err == nil {
		t.Error("a second image installed into a table that holds rows")
	}
}

func TestScanAndIterator(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	var rids []storage.RecordID
	for i := 0; i < 25; i++ {
		rids = append(rids, insertFrozen(t, tbl, Tuple{types.NewInt(int64(i)), types.NewString("x"), types.Null(), types.Null()}))
	}
	if _, _, err := tbl.ClaimVersion(rids[3], 9); err != nil {
		t.Fatal(err)
	}
	// The version iterator yields every version, the deleted one with its
	// xmax, so visibility-aware scans can judge each.
	all, dead := 0, 0
	for it := tbl.VersionIterator(); ; {
		_, meta, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		all++
		if meta.Xmax == 9 {
			dead++
		}
	}
	if all != 25 || dead != 1 {
		t.Errorf("VersionIterator saw %d versions, %d deleted; want 25 and 1", all, dead)
	}
	if n := liveRows(t, tbl); n != 24 {
		t.Errorf("live rows = %d, want 24", n)
	}
}

func TestViews(t *testing.T) {
	c := newTestCatalog()
	_, _ = c.CreateTable("customers", customerSchema())
	v, err := c.CreateView("rich", "SELECT * FROM customers WHERE credit > 1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "rich" {
		t.Errorf("view name = %q", v.Name)
	}
	if !c.HasView("RICH") {
		t.Error("HasView should be case-insensitive")
	}
	if _, err := c.CreateView("rich", "SELECT 1", nil); err == nil {
		t.Error("duplicate view should fail")
	}
	if _, err := c.CreateView("customers", "SELECT 1", nil); err == nil {
		t.Error("view with a table's name should fail")
	}
	if _, err := c.CreateTable("rich", customerSchema()); err == nil {
		t.Error("table with a view's name should fail")
	}
	got, err := c.GetView("rich")
	if err != nil || got.Query == "" {
		t.Errorf("GetView = %v, %v", got, err)
	}
	if err := c.DropView("rich"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("rich"); err == nil {
		t.Error("dropping a missing view should fail")
	}
	if _, err := c.GetView("rich"); err == nil {
		t.Error("GetView after drop should fail")
	}
}

func TestKeylessTableHasNoPrimaryIndex(t *testing.T) {
	c := newTestCatalog()
	schema := types.NewSchema(types.Column{Name: "note", Type: types.KindString})
	tbl, err := c.CreateTable("notes", schema)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.PrimaryIndex() != nil {
		t.Error("keyless table should have no primary index")
	}
	insertFrozen(t, tbl, Tuple{types.NewString("hello")})
	insertFrozen(t, tbl, Tuple{types.NewString("hello")})
	if n := liveRows(t, tbl); n != 2 {
		t.Errorf("live rows = %d: duplicate rows are allowed without a key", n)
	}
}

func TestIndexKeyForAndPositions(t *testing.T) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	idx, err := c.CreateIndex("by_city_name", "customers", []string{"city", "name"}, false)
	if err != nil {
		t.Fatal(err)
	}
	row := Tuple{types.NewInt(1), types.NewString("Ada"), types.NewString("Boston"), types.Null()}
	key := idx.keyFor(row)
	want := types.EncodeKey(nil, types.NewString("Boston"), types.NewString("Ada"))
	if string(key) != string(want) {
		t.Error("KeyFor should encode columns in index order")
	}
	_ = tbl
}

func BenchmarkTableInsert(b *testing.B) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _, err := tbl.InsertVersion(Tuple{types.NewInt(int64(i)), types.NewString("name"), types.NewString("city"), types.NewFloat(1)}, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	c := newTestCatalog()
	tbl, _ := c.CreateTable("customers", customerSchema())
	for i := 0; i < 10000; i++ {
		insertFrozen(b, tbl, Tuple{types.NewInt(int64(i)), types.NewString("n"), types.NewString("c"), types.NewFloat(1)})
	}
	pk := tbl.PrimaryIndex()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := pk.Tree.Search(types.EncodeKey(nil, types.NewInt(int64(i%10000)))); len(got) != 1 {
			b.Fatal("lookup failed")
		}
	}
}
