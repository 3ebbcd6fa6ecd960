package txn

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestLogBytesMatchTupleEncoding: a transaction logs the payloads its table
// stored, framed in place in the log buffer, and that must write the bytes
// the tuple path writes. A seeded history on a file log — inserts, updates
// and deletes of rows holding NULLs and values cast on the way in, DDL,
// commits and rollbacks — is run while the test writes down each record the
// history should log, its images the validated rows; the log is then
// scanned back, and each expected record encoded through encodeRecord must
// equal its frame in the file, byte for byte, in order.
func TestLogBytesMatchTupleEncoding(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	path := filepath.Join(t.TempDir(), "wow.wal")
	wal, err := OpenWALFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(wal)
	cat := catalog.New(storage.NewBufferPool(storage.NewMemDiskManager(), 256))
	const ddl = "CREATE TABLE person (id INT PRIMARY KEY, name TEXT, score FLOAT, member BOOL, born DATE)"
	person, err := cat.CreateTable("person", types.NewSchema(
		types.Column{Name: "id", Type: types.KindInt, PrimaryKey: true},
		types.Column{Name: "name", Type: types.KindString},
		types.Column{Name: "score", Type: types.KindFloat},
		types.Column{Name: "member", Type: types.KindBool},
		types.Column{Name: "born", Type: types.KindDate},
	))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex("person_score", "person", []string{"score"}, false); err != nil {
		t.Fatal(err)
	}
	var want []Record // the records the history should log, in order
	tx, err := mgr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{Kind: RecordBegin, Txn: tx.id})
	for _, text := range []string{ddl, "CREATE INDEX person_score ON person (score)"} {
		if err := tx.LogDDL(text); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Kind: RecordDDL, Txn: tx.id, DDL: text})
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want = append(want, Record{Kind: RecordCommit, Txn: tx.id})
	validated := func(row types.Tuple) types.Tuple {
		v, err := row.ValidateAgainst(person.Schema())
		if err != nil {
			t.Fatal(err)
		}
		return v.Clone()
	}

	// A value of each column's kind, NULL one time in four; a score is
	// sometimes an INT, which the insert casts to FLOAT.
	maybe := func(v types.Value) types.Value {
		if rng.Intn(4) == 0 {
			return types.Null()
		}
		return v
	}
	row := func(id int64) types.Tuple {
		score := types.NewFloat(float64(rng.Intn(100000)) / 7)
		if rng.Intn(3) == 0 {
			score = types.NewInt(int64(rng.Intn(1000) - 500))
		}
		return types.Tuple{
			types.NewInt(id),
			maybe(types.NewString(string(rune('a'+rng.Intn(26))) + "name")),
			maybe(score),
			maybe(types.NewBool(rng.Intn(2) == 0)),
			maybe(types.NewDate(1950+rng.Intn(60), time.Month(1+rng.Intn(12)), 1+rng.Intn(28))),
		}
	}

	type version struct {
		rid storage.RecordID
		row types.Tuple
	}
	live := map[int64]version{} // committed rows by id
	nextID := int64(1)
	for i := 0; i < 300; i++ {
		tx, err := mgr.Begin()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Kind: RecordBegin, Txn: tx.id})
		mine := make(map[int64]version, len(live))
		for id, v := range live {
			mine[id] = v
		}
		ids := func() []int64 {
			out := make([]int64, 0, len(mine))
			for id := range mine {
				out = append(out, id)
			}
			return out
		}
		for op := 0; op < 1+rng.Intn(4); op++ {
			switch k := rng.Intn(10); {
			case k < 5 || len(mine) == 0:
				r := row(nextID)
				rid, err := tx.Insert(person, r)
				if err != nil {
					t.Fatal(err)
				}
				mine[nextID] = version{rid, validated(r)}
				want = append(want, Record{Kind: RecordInsert, Txn: tx.id, Table: "person", New: mine[nextID].row})
				nextID++
			case k < 8:
				all := ids()
				id := all[rng.Intn(len(all))]
				r := row(id)
				rid, err := tx.Update(person, mine[id].rid, r)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, Record{Kind: RecordUpdate, Txn: tx.id, Table: "person", Old: mine[id].row, New: validated(r)})
				mine[id] = version{rid, validated(r)}
			case k < 9:
				all := ids()
				id := all[rng.Intn(len(all))]
				if err := tx.Delete(person, mine[id].rid); err != nil {
					t.Fatal(err)
				}
				want = append(want, Record{Kind: RecordDelete, Txn: tx.id, Table: "person", Old: mine[id].row})
				delete(mine, id)
			default:
				text := "CREATE VIEW v" + string(rune('a'+rng.Intn(26))) + " AS SELECT id FROM person"
				if err := tx.LogDDL(text); err != nil {
					t.Fatal(err)
				}
				want = append(want, Record{Kind: RecordDDL, Txn: tx.id, DDL: text})
			}
		}
		if rng.Intn(4) == 0 {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			want = append(want, Record{Kind: RecordAbort, Txn: tx.id})
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{Kind: RecordCommit, Txn: tx.id})
		live = mine
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := scanLog(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Discarded != 0 || scan.End != int64(len(data)) {
		t.Fatalf("the log scans to %d of %d bytes, %d discarded", scan.End, len(data), scan.Discarded)
	}
	if len(scan.Records) != len(want) {
		t.Fatalf("the log holds %d records, the history logged %d", len(scan.Records), len(want))
	}
	kinds := map[RecordKind]int{}
	for i, rec := range want {
		kinds[rec.Kind]++
		end := scan.End
		if i+1 < len(scan.Records) {
			end = scan.Offsets[i+1]
		}
		frame := data[scan.Offsets[i]:end]
		if encoded := encodeRecord(nil, rec); !bytes.Equal(encoded, frame) {
			t.Fatalf("record %d (%s of transaction %d) at offset %d:\nlogged  %x\nencoded %x",
				i, rec.Kind, rec.Txn, scan.Offsets[i], frame, encoded)
		}
	}
	for _, k := range []RecordKind{RecordBegin, RecordCommit, RecordAbort, RecordInsert, RecordUpdate, RecordDelete, RecordDDL} {
		if kinds[k] == 0 {
			t.Errorf("the history logged no %s record", k)
		}
	}
	t.Logf("%d records, %d bytes: %v", len(scan.Records), len(data), kinds)
}
