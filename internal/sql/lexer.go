package sql

import (
	"strings"
	"unicode"
)

// Lexer turns SQL text into a token stream.
type Lexer struct {
	input string
	pos   int
	line  int
	col   int
}

// newLexer creates a lexer over input.
func newLexer(input string) *Lexer {
	return &Lexer{input: input, line: 1, col: 1}
}

// tokenize runs the lexer to completion and returns every token followed by
// a terminating EOF token.
func tokenize(input string) ([]Token, error) {
	lx := newLexer(input)
	var out []Token
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == TokenEOF {
			return out, nil
		}
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.input) {
		return 0
	}
	return l.input[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.input) {
		return 0
	}
	return l.input[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.input[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.input) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peekAt(1) == '-':
			for l.pos < len(l.input) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// next returns the next token.
func (l *Lexer) next() (Token, error) {
	l.skipSpaceAndComments()
	startPos, startLine, startCol := l.pos, l.line, l.col
	if l.pos >= len(l.input) {
		return Token{Kind: TokenEOF, Pos: startPos, Line: startLine, Col: startCol}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		return l.lexWord(startPos, startLine, startCol), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(startPos, startLine, startCol)
	case c == '\'':
		return l.lexString(startPos, startLine, startCol)
	case c == '"':
		return l.lexQuotedIdent(startPos, startLine, startCol)
	case c == '?':
		l.advance()
		return Token{Kind: TokenParam, Pos: startPos, Line: startLine, Col: startCol}, nil
	case c == '@':
		return l.lexNamedParam(startPos, startLine, startCol)
	default:
		return l.lexSymbol(startPos, startLine, startCol)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *Lexer) lexWord(pos, line, col int) Token {
	start := l.pos
	for l.pos < len(l.input) && isIdentPart(l.peek()) {
		l.advance()
	}
	word := l.input[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		return Token{Kind: TokenKeyword, Text: upper, Pos: pos, Line: line, Col: col}
	}
	return Token{Kind: TokenIdent, Text: word, Pos: pos, Line: line, Col: col}
}

func (l *Lexer) lexNumber(pos, line, col int) (Token, error) {
	start := l.pos
	seenDot := false
	for l.pos < len(l.input) {
		c := l.peek()
		if c >= '0' && c <= '9' {
			l.advance()
			continue
		}
		if c == '.' && !seenDot && l.peekAt(1) >= '0' && l.peekAt(1) <= '9' {
			seenDot = true
			l.advance()
			continue
		}
		break
	}
	if l.pos < len(l.input) && unicode.IsLetter(rune(l.peek())) {
		return Token{}, &ParseError{Msg: "malformed number", Line: line, Col: col, Near: l.input[start : l.pos+1]}
	}
	return Token{Kind: TokenNumber, Text: l.input[start:l.pos], Pos: pos, Line: line, Col: col}, nil
}

func (l *Lexer) lexString(pos, line, col int) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.input) {
			return Token{}, &ParseError{Msg: "unterminated string literal", Line: line, Col: col}
		}
		c := l.advance()
		if c == '\'' {
			// '' is an escaped quote.
			if l.peek() == '\'' {
				l.advance()
				b.WriteByte('\'')
				continue
			}
			return Token{Kind: TokenString, Text: b.String(), Pos: pos, Line: line, Col: col}, nil
		}
		b.WriteByte(c)
	}
}

func (l *Lexer) lexQuotedIdent(pos, line, col int) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.input) {
			return Token{}, &ParseError{Msg: "unterminated quoted identifier", Line: line, Col: col}
		}
		c := l.advance()
		if c == '"' {
			// A doubled quote is an escaped quote inside the identifier.
			if l.pos < len(l.input) && l.peek() == '"' {
				l.advance()
				b.WriteByte('"')
				continue
			}
			return Token{Kind: TokenIdent, Text: b.String(), Pos: pos, Line: line, Col: col}, nil
		}
		b.WriteByte(c)
	}
}

// lexNamedParam lexes "@name" into a named-parameter token. The name is
// lower-cased: parameter names, like column names, compare case-insensitively.
func (l *Lexer) lexNamedParam(pos, line, col int) (Token, error) {
	l.advance() // '@'
	start := l.pos
	for l.pos < len(l.input) && isIdentPart(l.peek()) {
		l.advance()
	}
	if l.pos == start {
		return Token{}, &ParseError{Msg: "expected a parameter name after '@'", Line: line, Col: col}
	}
	name := strings.ToLower(l.input[start:l.pos])
	return Token{Kind: TokenParam, Text: name, Pos: pos, Line: line, Col: col}, nil
}

func (l *Lexer) lexSymbol(pos, line, col int) (Token, error) {
	c := l.advance()
	text := string(c)
	switch c {
	case '<':
		if l.peek() == '=' || l.peek() == '>' {
			text += string(l.advance())
		}
	case '>':
		if l.peek() == '=' {
			text += string(l.advance())
		}
	case '!':
		if l.peek() == '=' {
			text += string(l.advance())
		} else {
			return Token{}, &ParseError{Msg: "unexpected character '!'", Line: line, Col: col}
		}
	case '(', ')', ',', '.', '*', '=', '+', '-', '/', '%', ';':
		// single-character symbols
	default:
		return Token{}, &ParseError{Msg: "unexpected character " + string(c), Line: line, Col: col}
	}
	return Token{Kind: TokenSymbol, Text: text, Pos: pos, Line: line, Col: col}, nil
}
