package types

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{},
		{Null()},
		{NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64)},
		{NewFloat(3.14159), NewFloat(-0.0), NewFloat(math.Inf(1))},
		{NewString(""), NewString("hello"), NewString("with\x00nul")},
		{NewBool(true), NewBool(false)},
		{NewDate(1983, time.May, 23), Null(), NewInt(7), NewString("mixed")},
	}
	for _, tup := range tuples {
		enc := EncodeTuple(nil, tup)
		dec, err := DecodeTuple(enc)
		if err != nil {
			t.Errorf("DecodeTuple(%v): %v", tup, err)
			continue
		}
		if len(dec) != len(tup) {
			t.Errorf("round trip length %d != %d", len(dec), len(tup))
			continue
		}
		for i := range tup {
			// NaN/Inf need special care; use String comparison as a proxy.
			if dec[i].String() != tup[i].String() || dec[i].Kind() != tup[i].Kind() {
				t.Errorf("round trip value %d: %v != %v", i, dec[i], tup[i])
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	valid := EncodeTuple(nil, Tuple{NewInt(1), NewString("abc"), NewFloat(2)})
	for cut := 1; cut < len(valid); cut++ {
		if _, err := DecodeTuple(valid[:cut]); err == nil {
			t.Errorf("truncation at %d bytes should fail", cut)
		}
	}
	if _, err := DecodeTuple([]byte{}); err == nil {
		t.Error("empty input should fail")
	}
	bad := append([]byte{}, valid...)
	bad[1] = 0xEE // unknown kind
	if _, err := DecodeTuple(bad); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestEncodeRoundTripProperty(t *testing.T) {
	f := func(i int64, s string, fl float64, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		tup := Tuple{NewInt(i), NewString(s), NewFloat(fl), NewBool(b), Null()}
		dec, err := DecodeTuple(EncodeTuple(nil, tup))
		if err != nil {
			return false
		}
		return dec.Equal(tup)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderInts(t *testing.T) {
	f := func(a, b int64) bool {
		ka := EncodeKey(nil, NewInt(a))
		kb := EncodeKey(nil, NewInt(b))
		cmp := bytes.Compare(ka, kb)
		want, _ := NewInt(a).Compare(NewInt(b))
		return sign(cmp) == sign(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, NewFloat(a))
		kb := EncodeKey(nil, NewFloat(b))
		want, _ := NewFloat(a).Compare(NewFloat(b))
		return sign(bytes.Compare(ka, kb)) == sign(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka := EncodeKey(nil, NewString(a))
		kb := EncodeKey(nil, NewString(b))
		want, _ := NewString(a).Compare(NewString(b))
		return sign(bytes.Compare(ka, kb)) == sign(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyNullSortsFirst(t *testing.T) {
	kn := EncodeKey(nil, Null())
	ki := EncodeKey(nil, NewInt(math.MinInt64))
	if bytes.Compare(kn, ki) >= 0 {
		t.Error("NULL key should sort before any int")
	}
}

func TestEncodeKeyComposite(t *testing.T) {
	// (1, "b") < (1, "c") < (2, "a")
	k1 := EncodeKey(nil, NewInt(1), NewString("b"))
	k2 := EncodeKey(nil, NewInt(1), NewString("c"))
	k3 := EncodeKey(nil, NewInt(2), NewString("a"))
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Error("composite keys out of order")
	}
	// Prefix sorts before extension: ("ab") < ("ab","x") is not a valid
	// comparison (different arity), but "ab" < "abc" must hold.
	if bytes.Compare(EncodeKey(nil, NewString("ab")), EncodeKey(nil, NewString("abc"))) >= 0 {
		t.Error("string prefix should sort before its extension")
	}
}

func TestEncodeIntFloatKeysInterleave(t *testing.T) {
	// INT 2 should sort between FLOAT 1.5 and FLOAT 2.5.
	k15 := EncodeKey(nil, NewFloat(1.5))
	k2 := EncodeKey(nil, NewInt(2))
	k25 := EncodeKey(nil, NewFloat(2.5))
	if !(bytes.Compare(k15, k2) < 0 && bytes.Compare(k2, k25) < 0) {
		t.Error("numeric keys should interleave across int/float")
	}
}

func BenchmarkEncodeTuple(b *testing.B) {
	tup := Tuple{NewInt(12345), NewString("Amalgamated Widget Corp"), NewString("Boston"), NewFloat(10000.50), NewDate(1983, 5, 23)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeTuple(buf[:0], tup)
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	tup := Tuple{NewInt(12345), NewString("Amalgamated Widget Corp"), NewString("Boston"), NewFloat(10000.50), NewDate(1983, 5, 23)}
	enc := EncodeTuple(nil, tup)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTuple(enc); err != nil {
			b.Fatal(err)
		}
	}
}
