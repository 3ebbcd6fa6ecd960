package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sql"
	"repro/internal/types"
)

func custSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Table: "customers", Type: types.KindInt},
		types.Column{Name: "name", Table: "customers", Type: types.KindString},
		types.Column{Name: "city", Table: "customers", Type: types.KindString},
		types.Column{Name: "credit", Table: "customers", Type: types.KindFloat},
		types.Column{Name: "active", Table: "customers", Type: types.KindBool},
		types.Column{Name: "since", Table: "customers", Type: types.KindDate},
	)
}

func row() types.Tuple {
	return types.Tuple{
		types.NewInt(7),
		types.NewString("Ada Lovelace"),
		types.NewString("Boston"),
		types.NewFloat(1500),
		types.NewBool(true),
		types.NewDate(1983, 5, 23),
	}
}

func evalStr(t *testing.T, exprText string, tuple types.Tuple) types.Value {
	t.Helper()
	e, err := sql.ParseExpr(exprText)
	if err != nil {
		t.Fatalf("parse %q: %v", exprText, err)
	}
	c, err := Compile(e, custSchema())
	if err != nil {
		t.Fatalf("compile %q: %v", exprText, err)
	}
	v, err := c.Eval(tuple)
	if err != nil {
		t.Fatalf("eval %q: %v", exprText, err)
	}
	return v
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"id = 7", true},
		{"id <> 7", false},
		{"credit > 1000", true},
		{"credit >= 1500", true},
		{"credit < 1500", false},
		{"credit <= 1499", false},
		{"city = 'Boston'", true},
		{"city = 'boston'", false},
		{"active = TRUE", true},
		{"id = 7 AND city = 'Boston'", true},
		{"id = 8 OR city = 'Boston'", true},
		{"id = 8 AND city = 'Boston'", false},
		{"NOT (id = 8)", true},
		{"credit BETWEEN 1000 AND 2000", true},
		{"credit NOT BETWEEN 1000 AND 2000", false},
		{"city IN ('Boston', 'Chicago')", true},
		{"city NOT IN ('Boston', 'Chicago')", false},
		{"city IN ('Denver')", false},
		{"name LIKE 'Ada%'", true},
		{"name LIKE '%love%'", false},
		{"name LIKE '%Love%'", true},
		{"name LIKE '___ Lovelace'", true},
		{"name NOT LIKE 'Bob%'", true},
		{"since = '1983-05-23'", true},
		{"since < '1990-01-01'", true},
		{"credit > '1000'", true}, // string literal harmonised to number
		{"id % 2 = 1", true},
		{"credit IS NULL", false},
		{"credit IS NOT NULL", true},
	}
	for _, c := range cases {
		v := evalStr(t, c.expr, row())
		if v.Kind() != types.KindBool || v.Bool() != c.want {
			t.Errorf("%s = %v, want %v", c.expr, v, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want types.Value
	}{
		{"1 + 2", types.NewInt(3)},
		{"7 - 10", types.NewInt(-3)},
		{"6 * 7", types.NewInt(42)},
		{"7 / 2", types.NewFloat(3.5)},
		{"7 % 3", types.NewInt(1)},
		{"credit + 500", types.NewFloat(2000)},
		{"credit * 2", types.NewFloat(3000)},
		{"-credit", types.NewFloat(-1500)},
		{"1 + 2 * 3", types.NewInt(7)},
		{"(1 + 2) * 3", types.NewInt(9)},
		{"'id: ' + id", types.NewString("id: 7")},
		{"1.5 + 1", types.NewFloat(2.5)},
	}
	for _, c := range cases {
		v := evalStr(t, c.expr, row())
		if !v.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.expr, v, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	for _, text := range []string{"1 / 0", "7 % 0", "active * 3", "name - 1"} {
		e, _ := sql.ParseExpr(text)
		c, err := Compile(e, custSchema())
		if err != nil {
			continue // compile-time rejection is fine too
		}
		if _, err := c.Eval(row()); err == nil {
			t.Errorf("%s should fail at eval time", text)
		}
	}
}

func TestNullPropagation(t *testing.T) {
	nullRow := types.Tuple{types.NewInt(1), types.Null(), types.Null(), types.Null(), types.Null(), types.Null()}
	for _, text := range []string{
		"credit > 100", "credit + 1 = 1", "city = 'Boston'", "name LIKE 'A%'",
		"credit BETWEEN 1 AND 2", "city IN ('Boston')", "NOT active",
	} {
		v := evalStr(t, text, nullRow)
		if !v.IsNull() {
			t.Errorf("%s over NULLs = %v, want NULL", text, v)
		}
	}
	// IS NULL is the exception.
	if v := evalStr(t, "city IS NULL", nullRow); !v.Bool() {
		t.Error("city IS NULL should be true")
	}
	// Three-valued logic short circuits.
	if v := evalStr(t, "credit > 100 AND id = 1", nullRow); !v.IsNull() {
		t.Errorf("NULL AND TRUE = %v, want NULL", v)
	}
	if v := evalStr(t, "credit > 100 OR id = 1", nullRow); !(v.Kind() == types.KindBool && v.Bool()) {
		t.Errorf("NULL OR TRUE = %v, want TRUE", v)
	}
	if v := evalStr(t, "credit > 100 AND id = 2", nullRow); v.Kind() != types.KindBool || v.Bool() {
		t.Errorf("NULL AND FALSE = %v, want FALSE", v)
	}
}

func TestEvalBoolAndTruthy(t *testing.T) {
	e, _ := sql.ParseExpr("credit > 100")
	c, _ := Compile(e, custSchema())
	ok, err := c.EvalBool(row())
	if err != nil || !ok {
		t.Errorf("EvalBool = %v, %v", ok, err)
	}
	nullRow := types.Tuple{types.NewInt(1), types.Null(), types.Null(), types.Null(), types.Null(), types.Null()}
	ok, err = c.EvalBool(nullRow)
	if err != nil || ok {
		t.Errorf("EvalBool over NULL = %v, %v (NULL must reject)", ok, err)
	}
	if truthy(types.NewInt(1)) {
		t.Error("non-boolean values are not truthy")
	}
	if !truthy(types.NewBool(true)) || truthy(types.NewBool(false)) {
		t.Error("truthy wrong for booleans")
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		expr string
		want types.Value
	}{
		{"UPPER(city)", types.NewString("BOSTON")},
		{"LOWER(name)", types.NewString("ada lovelace")},
		{"LENGTH(city)", types.NewInt(6)},
		{"TRIM('  x  ')", types.NewString("x")},
		{"SUBSTR(name, 1, 3)", types.NewString("Ada")},
		{"SUBSTR(name, 5)", types.NewString("Lovelace")},
		{"SUBSTR(name, 50)", types.NewString("")},
		{"ABS(7 - 10)", types.NewInt(3)},
		{"ABS(-1.5)", types.NewFloat(1.5)},
		{"ROUND(3.14159, 2)", types.NewFloat(3.14)},
		{"ROUND(2.5)", types.NewFloat(3)},
		{"COALESCE(NULL, NULL, city)", types.NewString("Boston")},
		{"COALESCE(NULL, 5)", types.NewInt(5)},
		{"UPPER(NULL)", types.Null()},
	}
	for _, c := range cases {
		v := evalStr(t, c.expr, row())
		if !v.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.expr, v, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"nosuchcolumn = 1",
		"orders.id = 1",
		"NOSUCHFUNC(id)",
		"SUM(credit) > 10", // aggregates rejected here
		"UPPER()",
		"UPPER(a, b)",
	}
	for _, text := range bad {
		e, err := sql.ParseExpr(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		if _, err := Compile(e, custSchema()); err == nil {
			t.Errorf("Compile(%q) should fail", text)
		}
	}
}

func TestCompileConst(t *testing.T) {
	e, _ := sql.ParseExpr("10 * 2 + 1")
	v, err := CompileConst(e)
	if err != nil || v.Int() != 21 {
		t.Errorf("CompileConst = %v, %v", v, err)
	}
	e2, _ := sql.ParseExpr("credit + 1")
	if _, err := CompileConst(e2); err == nil {
		t.Error("CompileConst must reject column references")
	}
}

func TestCompiledMetadata(t *testing.T) {
	e, _ := sql.ParseExpr("credit * 2")
	c, _ := Compile(e, custSchema())
	if c.Kind() != types.KindFloat {
		t.Errorf("Kind = %v", c.Kind())
	}
	e2, _ := sql.ParseExpr("city = 'x'")
	c2, _ := Compile(e2, custSchema())
	if c2.Kind() != types.KindBool {
		t.Errorf("Kind = %v", c2.Kind())
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"abc", "a%b%c", true},
		{"abc", "a%d", false},
		{"Boston, MA", "%, MA", true},
	}
	for _, c := range cases {
		if got := matchLike(c.s, c.p); got != c.want {
			t.Errorf("matchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestMatchLikePropertyPrefix(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true
		}
		if len(s) > 0 && !matchLike(s, s[:1]+"%") {
			return false
		}
		return matchLike(s, "%") && matchLike(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalarFunctionsRegistry(t *testing.T) {
	if len(scalarFuncs) < 7 {
		t.Errorf("%d scalar functions registered, want at least 7", len(scalarFuncs))
	}
	e, _ := sql.ParseExpr("NOSUCH(1)")
	if _, err := Compile(e, custSchema()); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Errorf("an unregistered function compiled: %v", err)
	}
}

func BenchmarkEvalPredicate(b *testing.B) {
	e, _ := sql.ParseExpr("credit > 1000 AND city = 'Boston' AND name LIKE 'A%'")
	c, err := Compile(e, custSchema())
	if err != nil {
		b.Fatal(err)
	}
	tuple := row()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, err := c.EvalBool(tuple); err != nil || !ok {
			b.Fatal("predicate should hold")
		}
	}
}
