package types

import (
	"bytes"
	"testing"
	"time"
)

// kindsSchema has one nullable column of every kind behind a NOT NULL key.
func kindsSchema() *Schema {
	return NewSchema(
		Column{Name: "id", Type: KindInt, PrimaryKey: true},
		Column{Name: "f", Type: KindFloat},
		Column{Name: "s", Type: KindString},
		Column{Name: "b", Type: KindBool},
		Column{Name: "d", Type: KindDate, NotNull: true},
	)
}

func TestCheckEncoded(t *testing.T) {
	s := kindsSchema()
	good := Tuple{NewInt(-4), NewFloat(-1.5), NewString("a\x00b"), NewBool(true), NewDate(1983, time.May, 23)}
	rec := EncodeTuple(nil, good)
	if err := CheckEncoded(rec, s); err != nil {
		t.Fatalf("a valid row was refused: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = CheckEncoded(rec, s) }); allocs != 0 {
		t.Errorf("CheckEncoded allocated %.0f objects for a valid row", allocs)
	}
	nulls := EncodeTuple(nil, Tuple{NewInt(1), Null(), Null(), Null(), NewDate(2000, 1, 1)})
	if err := CheckEncoded(nulls, s); err != nil {
		t.Errorf("NULLs in nullable columns were refused: %v", err)
	}

	refused := map[string][]byte{
		"a NULL key":                EncodeTuple(nil, Tuple{Null(), NewFloat(1), Null(), Null(), NewDate(2000, 1, 1)}),
		"a NULL in a NOT NULL":      EncodeTuple(nil, Tuple{NewInt(1), NewFloat(1), Null(), Null(), Null()}),
		"an INT in a FLOAT column":  EncodeTuple(nil, Tuple{NewInt(1), NewInt(1), Null(), Null(), NewDate(2000, 1, 1)}),
		"a TEXT date":               EncodeTuple(nil, Tuple{NewInt(1), Null(), Null(), Null(), NewString("2000-01-01")}),
		"one value too few":         EncodeTuple(nil, good[:4]),
		"one value too many":        EncodeTuple(nil, append(good.Clone(), Null())),
		"a trailing byte":           append(append([]byte(nil), rec...), 0),
		"an empty record":           nil,
		"an unknown kind":           append(append([]byte(nil), rec[:1]...), 0x7f),
		"a string past the end":     rec[:len(rec)-4],
		"a record cut in its float": rec[:5],
	}
	for name, data := range refused {
		if err := CheckEncoded(data, s); err == nil {
			t.Errorf("%s was accepted", name)
		}
	}
}

func TestAppendEncodedKeyMatchesEncodeKey(t *testing.T) {
	row := Tuple{NewInt(-4), NewFloat(-1.5), NewString("a\x00b"), NewBool(true), NewDate(1983, time.May, 23)}
	rec := EncodeTuple(nil, row)
	for _, cols := range [][]int{{0}, {1}, {2}, {3}, {4}, {4, 0}, {2, 2, 1}, {}} {
		var vals []Value
		for _, c := range cols {
			vals = append(vals, row[c])
		}
		got, err := AppendEncodedKey([]byte("prefix"), rec, cols)
		if err != nil {
			t.Fatal(err)
		}
		if want := EncodeKey([]byte("prefix"), vals...); !bytes.Equal(got, want) {
			t.Errorf("cols %v: key %x, want %x", cols, got, want)
		}
	}
	// A BOOL byte other than 0 or 1 decodes as true, and keys as true.
	odd := EncodeTuple(nil, Tuple{NewBool(true)})
	odd[len(odd)-1] = 2
	if got, err := AppendEncodedKey(nil, odd, []int{0}); err != nil || !bytes.Equal(got, EncodeKey(nil, NewBool(true))) {
		t.Errorf("BOOL byte 2 keys as %x (%v)", got, err)
	}
	if _, err := AppendEncodedKey(nil, rec, []int{5}); err == nil {
		t.Error("a key on a sixth column of a five-value record was built")
	}
}

// fuzzSchema draws a schema and key column lists from the front of data and
// returns them with the bytes that follow, the record under test.
func fuzzSchema(data []byte) (*Schema, [][]int, []byte) {
	if len(data) == 0 {
		return NewSchema(), nil, data
	}
	n := int(data[0] % 7)
	data = data[1:]
	s := NewSchema()
	for i := 0; i < n && len(data) > 0; i++ {
		b := data[0]
		data = data[1:]
		s.Columns = append(s.Columns, Column{
			Name:       string(rune('a' + i)),
			Type:       Kind(b % 6),
			NotNull:    b&0x10 != 0,
			PrimaryKey: b&0x20 != 0,
		})
	}
	var subsets [][]int
	for i := range s.Columns {
		subsets = append(subsets, []int{i})
	}
	if len(data) > 0 {
		mask := data[0]
		data = data[1:]
		var cols []int
		for i := len(s.Columns) - 1; i >= 0; i-- {
			if mask&(1<<i) != 0 {
				cols = append(cols, i)
			}
		}
		subsets = append(subsets, cols)
	}
	return s, subsets, data
}

// FuzzCheckEncoded checks CheckEncoded and AppendEncodedKey against the
// decoder: a record is accepted exactly when DecodeTuple reads all of it and
// ValidateAgainst accepts the row without casting a value, and an accepted
// record's keys are the keys of its decoded values.
func FuzzCheckEncoded(f *testing.F) {
	schema := []byte{5, byte(KindInt) | 0x20, byte(KindFloat), byte(KindString), byte(KindBool), byte(KindDate) | 0x10, 0x15}
	row := EncodeTuple(nil, Tuple{NewInt(-4), NewFloat(-1.5), NewString("a\x00b"), NewBool(true), NewDate(1983, time.May, 23)})
	f.Add(append(append([]byte(nil), schema...), row...))
	f.Add(append(append([]byte(nil), schema...), row[:len(row)-2]...))
	f.Add(append(append(append([]byte(nil), schema...), row...), 0))
	oddBool := EncodeTuple(nil, Tuple{NewBool(true), Null()})
	oddBool[2] = 0x80
	f.Add(append([]byte{2, byte(KindBool), byte(KindString), 0x03}, oddBool...))
	f.Add([]byte{1, byte(KindFloat), 0x01, 1, byte(KindInt), 6})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, subsets, rec := fuzzSchema(data)
		row, n, err := ReadTuple(rec)
		// DecodeColumns reaches ReadTuple's verdict on the same bytes, and
		// its values are ReadTuple's where wanted and NULL elsewhere.
		want := make([]bool, len(data)%7)
		for i := range want {
			want[i] = (len(data)>>i)&1 == 1
		}
		cols, colsErr := DecodeColumns(make(Tuple, 0, 2), rec, want)
		if (colsErr == nil) != (err == nil) {
			t.Fatalf("DecodeColumns(%x) = %v, ReadTuple = %v", rec, colsErr, err)
		}
		if err == nil {
			if len(cols) != len(row) {
				t.Fatalf("DecodeColumns(%x) read %d values, ReadTuple %d", rec, len(cols), len(row))
			}
			for i := range row {
				if w := i < len(want) && want[i]; (w && !cols[i].Equal(row[i])) || (w && cols[i].Kind() != row[i].Kind()) || (!w && !cols[i].IsNull()) {
					t.Fatalf("DecodeColumns(%x, %v) value %d = %v, ReadTuple %v", rec, want, i, cols[i], row[i])
				}
			}
		}
		accept := err == nil && n == len(rec)
		if accept {
			valid, err := row.ValidateAgainst(s)
			accept = err == nil
			for i := range valid {
				accept = accept && valid[i].Kind() == row[i].Kind()
			}
		}
		if err := CheckEncoded(rec, s); (err == nil) != accept {
			t.Fatalf("CheckEncoded(%x, %s) = %v, decoder and ValidateAgainst accept: %v", rec, s, err, accept)
		}
		if !accept {
			return
		}
		for _, cols := range subsets {
			vals := make([]Value, len(cols))
			for i, c := range cols {
				vals[i] = row[c]
			}
			got, err := AppendEncodedKey(nil, rec, cols)
			if err != nil {
				t.Fatalf("AppendEncodedKey(%x, %v): %v", rec, cols, err)
			}
			if want := EncodeKey(nil, vals...); !bytes.Equal(got, want) {
				t.Fatalf("AppendEncodedKey(%x, %v) = %x, EncodeKey = %x", rec, cols, got, want)
			}
		}
	})
}
