package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "TEXT",
		KindBool:   "BOOL",
		KindDate:   "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	cases := []struct {
		name string
		want Kind
		ok   bool
	}{
		{"int", KindInt, true},
		{"INTEGER", KindInt, true},
		{"varchar", KindString, true},
		{"Text", KindString, true},
		{"float", KindFloat, true},
		{"DOUBLE", KindFloat, true},
		{"bool", KindBool, true},
		{"date", KindDate, true},
		{"blob", KindNull, false},
	}
	for _, c := range cases {
		got, err := KindFromName(c.name)
		if c.ok != (err == nil) {
			t.Errorf("KindFromName(%q) error = %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("KindFromName(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if v := NewInt(42); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("NewInt(42) = %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat(2.5) = %v", v)
	}
	if v := NewString("hi"); v.Kind() != KindString || v.Str() != "hi" {
		t.Errorf("NewString = %v", v)
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("NewBool(true) = %v", v)
	}
	d := NewDate(1983, time.May, 23)
	if d.Kind() != KindDate {
		t.Errorf("NewDate kind = %v", d.Kind())
	}
	if got := d.Time().Format("2006-01-02"); got != "1983-05-23" {
		t.Errorf("NewDate round trip = %q", got)
	}
}

func TestParseDate(t *testing.T) {
	v, err := parseDate("1983-05-23")
	if err != nil {
		t.Fatalf("parseDate: %v", err)
	}
	if v.String() != "1983-05-23" {
		t.Errorf("parseDate = %q", v.String())
	}
	if _, err := parseDate("not-a-date"); err == nil {
		t.Error("parseDate should reject garbage")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(3.25), "3.25"},
		{NewString("abc"), "abc"},
		{NewBool(false), "false"},
		{NewBool(true), "true"},
		{NewDate(2001, time.January, 2), "2001-01-02"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueSQL(t *testing.T) {
	if got := NewString("O'Brien").SQL(); got != "'O''Brien'" {
		t.Errorf("SQL() = %q", got)
	}
	if got := NewInt(5).SQL(); got != "5" {
		t.Errorf("SQL() = %q", got)
	}
	if got := NewDate(1999, time.December, 31).SQL(); got != "'1999-12-31'" {
		t.Errorf("SQL() = %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewString("a"), NewString("b"), -1},
		{NewBool(false), NewBool(true), -1},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
		{NewDate(1983, 1, 1), NewDate(1984, 1, 1), -1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v) error: %v", c.a, c.b, err)
			continue
		}
		if sign(got) != c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := NewString("x").Compare(NewInt(1)); err == nil {
		t.Error("comparing TEXT with INT should fail")
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

func TestEqual(t *testing.T) {
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("3 should equal 3.0")
	}
	if NewInt(3).Equal(NewString("3")) {
		t.Error("3 should not equal '3'")
	}
	if !Null().Equal(Null()) {
		t.Error("NULL should Equal NULL (for grouping purposes)")
	}
	if Null().Equal(NewInt(0)) {
		t.Error("NULL should not equal 0")
	}
}

func TestCast(t *testing.T) {
	cases := []struct {
		v    Value
		to   Kind
		want Value
		ok   bool
	}{
		{NewString("42"), KindInt, NewInt(42), true},
		{NewString(" 3.5 "), KindFloat, NewFloat(3.5), true},
		{NewInt(1), KindBool, NewBool(true), true},
		{NewInt(7), KindFloat, NewFloat(7), true},
		{NewFloat(7.9), KindInt, NewInt(7), true},
		{NewBool(true), KindInt, NewInt(1), true},
		{NewString("yes"), KindBool, NewBool(true), true},
		{NewString("1983-05-23"), KindDate, NewDate(1983, time.May, 23), true},
		{NewInt(123), KindString, NewString("123"), true},
		{NewString("abc"), KindInt, Null(), false},
		{NewBool(true), KindDate, Null(), false},
		{Null(), KindInt, Null(), true},
	}
	for _, c := range cases {
		got, err := c.v.Cast(c.to)
		if c.ok != (err == nil) {
			t.Errorf("Cast(%v, %v) error = %v, want ok=%v", c.v, c.to, err, c.ok)
			continue
		}
		if c.ok && !got.Equal(c.want) {
			t.Errorf("Cast(%v, %v) = %v, want %v", c.v, c.to, got, c.want)
		}
	}
}

func TestCastNaN(t *testing.T) {
	if _, err := NewFloat(math.NaN()).Cast(KindInt); err == nil {
		t.Error("casting NaN to INT should fail")
	}
}

func TestParseAs(t *testing.T) {
	v, err := ParseAs("", KindInt)
	if err != nil || !v.IsNull() {
		t.Errorf("ParseAs empty = %v, %v; want NULL", v, err)
	}
	v, err = ParseAs("17", KindInt)
	if err != nil || v.Int() != 17 {
		t.Errorf("ParseAs 17 = %v, %v", v, err)
	}
	if _, err := ParseAs("x", KindFloat); err == nil {
		t.Error("ParseAs should propagate cast errors")
	}
}

func TestHashEqualValuesCollide(t *testing.T) {
	if NewInt(5).Hash() != NewFloat(5).Hash() {
		t.Error("5 and 5.0 should hash identically")
	}
	if NewString("abc").Hash() == NewString("abd").Hash() {
		t.Error("different strings should (almost surely) hash differently")
	}
}

func TestHashPropertyEqualImpliesSameHash(t *testing.T) {
	f := func(a int64) bool {
		return NewInt(a).Hash() == NewInt(a).Hash() &&
			NewString("k").Hash() == NewString("k").Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparePropertyAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, _ := x.Compare(y)
		c2, _ := y.Compare(x)
		return sign(c1) == -sign(c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(KindInt, KindFloat) {
		t.Error("INT and FLOAT should be comparable")
	}
	if Comparable(KindString, KindInt) {
		t.Error("TEXT and INT should not be comparable")
	}
	if !Comparable(KindNull, KindString) {
		t.Error("NULL is comparable with anything")
	}
}
