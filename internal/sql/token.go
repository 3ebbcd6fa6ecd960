// Package sql implements the engine's SQL front end: a lexer, an abstract
// syntax tree, and a recursive-descent parser for the dialect the forms
// system and its tools speak.
//
// The dialect covers what a 1983 forms application generator needed from its
// backend: CREATE TABLE / INDEX / VIEW, single-table and join SELECT with
// aggregation, ordering and limits, INSERT, UPDATE, DELETE, and transaction
// control statements.
package sql

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokenEOF TokenKind = iota
	TokenIdent
	TokenKeyword
	TokenNumber
	TokenString
	TokenSymbol // punctuation and operators: ( ) , . * = <> < <= > >= + - / % ;
	// TokenParam is a bind-parameter placeholder: "?" (positional, empty
	// Text) or "@name" (named, Text holds the lower-cased name).
	TokenParam
)

func (k TokenKind) String() string {
	switch k {
	case TokenEOF:
		return "end of input"
	case TokenIdent:
		return "identifier"
	case TokenKeyword:
		return "keyword"
	case TokenNumber:
		return "number"
	case TokenString:
		return "string"
	case TokenSymbol:
		return "symbol"
	case TokenParam:
		return "parameter"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Token is one lexical token with its position for error reporting.
type Token struct {
	Kind TokenKind
	// Text is the token's raw text. Keywords are upper-cased; identifiers
	// keep their original spelling; string literals are unquoted.
	Text string
	// Pos is the byte offset of the token in the input.
	Pos int
	// Line and Col are 1-based source coordinates.
	Line, Col int
}

func (t Token) String() string {
	if t.Kind == TokenEOF {
		return "end of input"
	}
	if t.Kind == TokenParam {
		if t.Text == "" {
			return `"?"`
		}
		return fmt.Sprintf("%q", "@"+t.Text)
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords is the set of reserved words, stored upper-case.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "DISTINCT": true, "AS": true, "JOIN": true, "INNER": true,
	"LEFT": true, "OUTER": true, "ON": true, "AND": true, "OR": true,
	"NOT": true, "NULL": true, "IS": true, "IN": true, "BETWEEN": true,
	"LIKE": true, "TRUE": true, "FALSE": true,
	"INSERT": true, "INTO": true, "VALUES": true, "RETURNING": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "TABLE": true, "INDEX": true, "VIEW": true, "UNIQUE": true,
	"PRIMARY": true, "KEY": true, "DEFAULT": true, "DROP": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "TRANSACTION": true,
	"EXPLAIN": true,
	"COUNT":   true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// isKeyword reports whether the upper-cased word is reserved.
func isKeyword(word string) bool { return keywords[word] }

// quoteIdent renders an identifier so that re-lexing it yields the same
// name: bare when it is a plain unreserved word, double-quoted (embedded
// quotes doubled) otherwise. Every AST String() renders identifiers through
// it, so statements round-trip even when names collide with keywords or
// carry spaces.
func quoteIdent(name string) string {
	if isBareIdent(name) {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

func isBareIdent(name string) bool {
	if name == "" || isKeyword(strings.ToUpper(name)) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if i == 0 {
			if !isIdentStart(c) {
				return false
			}
		} else if !isIdentPart(c) {
			return false
		}
	}
	return true
}

// ParseError is a syntax error with source position information.
type ParseError struct {
	Msg       string
	Line, Col int
	Near      string
}

func (e *ParseError) Error() string {
	if e.Near == "" {
		return fmt.Sprintf("sql: %s at line %d, column %d", e.Msg, e.Line, e.Col)
	}
	return fmt.Sprintf("sql: %s near %s at line %d, column %d", e.Msg, e.Near, e.Line, e.Col)
}
