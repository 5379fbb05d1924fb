// Package sqlx implements the SQL dialect of the FI-MPPDB reproduction: a
// practical subset of ANSI SQL (DDL, DML, SELECT with joins, grouping,
// CTEs) extended with the paper's multi-model table expressions
// gtimeseries(...), ggraph('...') and gspatial('...') (§II-B Example 1).
//
// The package provides a hand-written lexer and recursive-descent parser
// producing the AST consumed by internal/plan. The string argument of
// ggraph and gspatial is read by the same lexer and expression grammar, as
// a call chain (ParseChain).
package sqlx

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString // single-quoted literal, quotes stripped
	TokOp     // operators and punctuation: = <> <= >= < > + - * / % ( ) , . ;
)

// Token is one lexical unit with its position for error messages.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int    // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokString:
		return "'" + t.Text + "'"
	default:
		return t.Text
	}
}

// keywords recognized by the dialect. Identifiers matching these
// (case-insensitively) are lexed as TokKeyword with upper-cased text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"ASC": true, "DESC": true, "AS": true, "ON": true, "JOIN": true,
	"INNER": true, "LEFT": true, "OUTER": true, "CROSS": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "BETWEEN": true,
	"LIKE": true, "IS": true, "NULL": true, "TRUE": true, "FALSE": true,
	"CREATE": true, "TABLE": true, "DROP": true, "IF": true, "EXISTS": true,
	"PRIMARY": true, "KEY": true, "DISTRIBUTE": true, "HASH": true,
	"REPLICATION": true, "USING": true, "ROW": true, "COLUMN": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "ABORT": true,
	"WITH": true, "DISTINCT": true, "EXPLAIN": true, "ANALYZE": true,
	"INTERVAL": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "UNION": true, "ALL": true,
}

// Lexer tokenizes SQL input.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error for unterminated strings and
// illegal characters.
func (l *Lexer) Next() (Token, error) {
	l.pos = skipSpace(l.src, l.pos)
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		text := l.src[start:l.pos]
		upper := strings.ToUpper(text)
		if keywords[upper] {
			return Token{Kind: TokKeyword, Text: upper, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	case c >= '0' && c <= '9':
		l.pos = scanNumber(l.src, l.pos)
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'' || c == '"':
		end, closed := scanQuoted(l.src, start)
		if !closed {
			what := "string literal"
			if c == '"' {
				what = "quoted identifier"
			}
			return Token{}, fmt.Errorf("sqlx: unterminated %s at offset %d", what, start)
		}
		l.pos = end
		if c == '"' {
			return Token{Kind: TokIdent, Text: l.src[start+1 : end-1], Pos: start}, nil
		}
		return Token{Kind: TokString, Text: quotedValue(l.src[start+1 : end-1]), Pos: start}, nil
	default:
		// Operators are sliced out of src: two bytes where the second one
		// completes <> <= >= != ||, else one.
		var next byte
		if l.pos+1 < len(l.src) {
			next = l.src[l.pos+1]
		}
		n := 1
		switch {
		case c == '<' && (next == '>' || next == '='),
			(c == '>' || c == '!') && next == '=',
			c == '|' && next == '|':
			n = 2
		case strings.IndexByte("=<>+-*/%(),.;", c) < 0:
			return Token{}, fmt.Errorf("sqlx: illegal character %q at offset %d", c, start)
		}
		l.pos += n
		return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
	}
}

// scanNumber returns the end of the number token starting at src[pos] (a
// digit): digits, at most one point, and an exponent only when digits
// follow it. Normalize scans numbers with it too, so a statement's shape
// and its tokens cannot disagree on where a number ends; skipSpace and
// scanQuoted are shared the same way.
func scanNumber(src string, pos int) int {
	pos++
	seenDot := false
	for pos < len(src) {
		ch := src[pos]
		if ch == '.' && !seenDot {
			seenDot = true
			pos++
			continue
		}
		if ch < '0' || ch > '9' {
			break
		}
		pos++
	}
	if pos < len(src) && (src[pos] == 'e' || src[pos] == 'E') {
		exp := pos + 1
		if exp < len(src) && (src[exp] == '+' || src[exp] == '-') {
			exp++
		}
		if exp < len(src) && src[exp] >= '0' && src[exp] <= '9' {
			for exp < len(src) && src[exp] >= '0' && src[exp] <= '9' {
				exp++
			}
			pos = exp
		}
	}
	return pos
}

// skipSpace returns the end of the run of whitespace and comments (`--` to
// end of line, `/* */`; an unterminated one runs to the end) starting at
// src[pos]; pos itself when there is none.
func skipSpace(src string, pos int) int {
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
		case c == '-' && strings.HasPrefix(src[pos:], "--"):
			nl := strings.IndexByte(src[pos:], '\n')
			if nl < 0 {
				return len(src)
			}
			pos += nl + 1
		case c == '/' && strings.HasPrefix(src[pos:], "/*"):
			end := strings.Index(src[pos+2:], "*/")
			if end < 0 {
				return len(src)
			}
			pos += 2 + end + 2
		default:
			return pos
		}
	}
	return pos
}

// scanQuoted returns the end of the quoted run starting at src[pos] (a ' or
// a "): one past its closing quote, or len(src) and closed=false when there
// is none. Inside '...' a doubled quote is the quote character; "..." has
// no escape.
func scanQuoted(src string, pos int) (end int, closed bool) {
	q := src[pos]
	for end = pos + 1; end < len(src); end++ {
		if src[end] != q {
			continue
		}
		if q == '\'' && end+1 < len(src) && src[end+1] == '\'' {
			end++
			continue
		}
		return end + 1, true
	}
	return len(src), false
}

// quotedValue returns the value of a string literal's body (a doubled quote
// is one quote) in memory of its own: a stored value must not pin the statement
// text.
func quotedValue(body string) string {
	if strings.Contains(body, "''") {
		return strings.ReplaceAll(body, "''", "'")
	}
	return strings.Clone(body)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Tokenize lexes the whole input, mainly for tests and debugging.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
