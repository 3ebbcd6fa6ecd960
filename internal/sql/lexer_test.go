package sql

import (
	"testing"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := tokenize("SELECT name, credit FROM customers WHERE city = 'Boston' AND credit >= 10.5;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokenKeyword || toks[0].Text != "SELECT" {
		t.Errorf("first token = %+v", toks[0])
	}
	var sawString, sawNumber bool
	for _, tok := range toks {
		if tok.Kind == TokenString && tok.Text == "Boston" {
			sawString = true
		}
		if tok.Kind == TokenNumber && tok.Text == "10.5" {
			sawNumber = true
		}
	}
	if !sawString || !sawNumber {
		t.Errorf("missing literal tokens: string=%v number=%v", sawString, sawNumber)
	}
	if toks[len(toks)-1].Kind != TokenEOF {
		t.Error("token stream must end with EOF")
	}
}

func TestTokenizeEscapedQuoteAndComments(t *testing.T) {
	toks, err := tokenize("-- a comment line\nSELECT 'O''Brien' -- trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, tok := range toks {
		if tok.Kind == TokenString {
			if tok.Text != "O'Brien" {
				t.Errorf("escaped quote = %q", tok.Text)
			}
			found = true
		}
	}
	if !found {
		t.Error("string literal not found")
	}
}

func TestTokenizeQuotedIdentifier(t *testing.T) {
	toks, err := tokenize(`SELECT "Order Total" FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, tok := range toks {
		if tok.Kind == TokenIdent && tok.Text == "Order Total" {
			found = true
		}
	}
	if !found {
		t.Error("quoted identifier not lexed")
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := tokenize("a <> b <= c >= d != e < f > g")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "<>", "b", "<=", "c", ">=", "d", "!=", "e", "<", "f", ">", "g"}
	got := []string{}
	for _, tok := range toks {
		if tok.Kind != TokenEOF {
			got = append(got, tok.Text)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	bad := []string{
		"SELECT 'unterminated",
		`SELECT "unterminated`,
		"SELECT @",
		"SELECT 12abc",
		"SELECT a ! b",
	}
	for _, input := range bad {
		if _, err := tokenize(input); err == nil {
			t.Errorf("tokenize(%q) should fail", input)
		}
	}
}

func TestTokenPositions(t *testing.T) {
	toks, err := tokenize("SELECT\n  name")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("SELECT at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("name at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestIsKeyword(t *testing.T) {
	if !isKeyword("SELECT") || isKeyword("customers") {
		t.Error("isKeyword misclassifies")
	}
}

func TestTokenKindString(t *testing.T) {
	if TokenKeyword.String() != "keyword" || TokenEOF.String() != "end of input" {
		t.Error("TokenKind.String wrong")
	}
}
