package txn

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// FuzzReadLog feeds arbitrary bytes — seeded with valid logs and their
// truncations — through the tolerant scanner. Whatever the input, the
// scanner must not panic or error, must account for every byte (End +
// Discarded == len), and the prefix it calls valid must re-scan cleanly to
// the same records: recovery truncates the file to End and appends to it, so
// a "valid" verdict has to be stable.
func FuzzReadLog(f *testing.F) {
	var buf bytes.Buffer
	w := newWAL(&buf)
	_ = w.Append(Record{Kind: RecordBegin, Txn: 1})
	_ = w.Append(Record{Kind: RecordDDL, Txn: 1, DDL: "CREATE TABLE t (id INT PRIMARY KEY)"})
	_ = w.Append(Record{Kind: RecordInsert, Txn: 1, Table: "t", New: types.Tuple{types.NewInt(7), types.NewString("x")}})
	_ = w.Append(Record{Kind: RecordUpdate, Txn: 1, Table: "t",
		Old: types.Tuple{types.NewInt(7)}, New: types.Tuple{types.NewInt(8)}})
	_ = w.Append(Record{Kind: RecordCommit, Txn: 1})
	_ = w.Sync() // writes the log buffer
	valid := buf.Bytes()

	f.Add([]byte{})
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)-3]...))
	f.Add(append([]byte(nil), valid[:1]...))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x80
	f.Add(flipped)
	// A huge length prefix must be rejected as corrupt, not allocated.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := scanLog(bytes.NewReader(data), 0)
		if err != nil {
			t.Fatalf("scanLog error on in-memory input: %v", err)
		}
		if scan.End+scan.Discarded != int64(len(data)) {
			t.Fatalf("End %d + Discarded %d != len %d", scan.End, scan.Discarded, len(data))
		}
		if scan.End < 0 || scan.Discarded < 0 {
			t.Fatalf("negative accounting: End %d Discarded %d", scan.End, scan.Discarded)
		}
		if len(scan.Offsets) != len(scan.Records) {
			t.Fatalf("%d offsets for %d records", len(scan.Offsets), len(scan.Records))
		}
		again, err := scanLog(bytes.NewReader(data[:scan.End]), 0)
		if err != nil {
			t.Fatalf("re-scan error: %v", err)
		}
		if again.Discarded != 0 || len(again.Records) != len(scan.Records) {
			t.Fatalf("valid prefix not stable: %d records discarded %d (was %d records)",
				len(again.Records), again.Discarded, len(scan.Records))
		}
	})
}
