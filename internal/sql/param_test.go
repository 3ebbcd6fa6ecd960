package sql

import (
	"testing"
)

func TestLexParams(t *testing.T) {
	tokens, err := tokenize("? @city @City @_x1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"", "city", "city", "_x1"}
	if len(tokens) != len(want)+1 { // + EOF
		t.Fatalf("tokens = %d, want %d", len(tokens), len(want)+1)
	}
	for i, name := range want {
		if tokens[i].Kind != TokenParam {
			t.Errorf("token %d kind = %v", i, tokens[i].Kind)
		}
		if tokens[i].Text != name {
			t.Errorf("token %d name = %q, want %q", i, tokens[i].Text, name)
		}
	}
}

func TestLexBareAtFails(t *testing.T) {
	if _, err := tokenize("SELECT @ FROM t"); err == nil {
		t.Fatal("'@' without a name should fail to lex")
	}
}

func TestParseParamOrdinals(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = ? AND b = @x AND c = ? AND d = @x")
	if err != nil {
		t.Fatal(err)
	}
	params := StatementParams(stmt)
	// Ordinals: ? -> 0, @x -> 1, ? -> 2, @x reuses 1.
	want := []string{"", "x", ""}
	if len(params) != len(want) {
		t.Fatalf("params = %v, want %v", params, want)
	}
	for i := range want {
		if params[i] != want[i] {
			t.Fatalf("params = %v, want %v", params, want)
		}
	}
}

func TestParamOrdinalsResetPerStatement(t *testing.T) {
	stmts, err := ParseAll("SELECT * FROM t WHERE a = ?; SELECT * FROM t WHERE b = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i, stmt := range stmts {
		params := StatementParams(stmt)
		if len(params) != 1 {
			t.Fatalf("statement %d params = %v, want 1 starting at ordinal 0", i, params)
		}
	}
}

func TestParamString(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE a = ? AND b = @name")
	if err != nil {
		t.Fatal(err)
	}
	text := stmt.String()
	if want := "SELECT * FROM t WHERE ((a = ?) AND (b = @name))"; text != want {
		t.Fatalf("String() = %q, want %q", text, want)
	}
	// The rendered text re-parses to the same parameter shape.
	again, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	params := StatementParams(again)
	if len(params) != 2 || params[0] != "" || params[1] != "name" {
		t.Fatalf("re-parsed params = %v", params)
	}
}

func TestParamsInInsertUpdateDelete(t *testing.T) {
	cases := map[string]int{
		"INSERT INTO t (a, b) VALUES (?, ?), (?, @x)":  4,
		"UPDATE t SET a = @v WHERE b BETWEEN ? AND ?":  3,
		"DELETE FROM t WHERE a IN (?, ?, @z) OR b = ?": 4,
	}
	for text, want := range cases {
		stmt, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if got := len(StatementParams(stmt)); got != want {
			t.Errorf("%s: %d params, want %d", text, got, want)
		}
	}
}
