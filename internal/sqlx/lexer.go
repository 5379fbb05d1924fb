// Package sqlx implements the SQL dialect of the FI-MPPDB reproduction: a
// practical subset of ANSI SQL (DDL, DML, SELECT with joins, grouping,
// CTEs) extended with the paper's multi-model table expressions
// gtimeseries(...) and ggraph('...') (§II-B Example 1).
//
// The package provides a hand-written lexer and recursive-descent parser
// producing the AST consumed by internal/plan.
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
	l.skipSpaceAndComments()
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
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '\'' {
				// '' escapes a single quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return Token{}, fmt.Errorf("sqlx: unterminated string literal at offset %d", start)
	case c == '"':
		// Double-quoted identifier.
		l.pos++
		end := strings.IndexByte(l.src[l.pos:], '"')
		if end < 0 {
			return Token{}, fmt.Errorf("sqlx: unterminated quoted identifier at offset %d", start)
		}
		text := l.src[l.pos : l.pos+end]
		l.pos += end + 1
		return Token{Kind: TokIdent, Text: text, Pos: start}, nil
	default:
		// Multi-character operators first.
		for _, op := range []string{"<>", "<=", ">=", "!=", "||"} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				return Token{Kind: TokOp, Text: op, Pos: start}, nil
			}
		}
		if strings.ContainsRune("=<>+-*/%(),.;", rune(c)) {
			l.pos++
			return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sqlx: illegal character %q at offset %d", c, start)
	}
}

// scanNumber returns the end of the number token starting at src[pos] (a
// digit): digits, at most one point, and an exponent only when digits
// follow it. Normalize scans numbers with it too, so a statement's shape
// and its tokens cannot disagree on where a number ends.
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

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "--"):
			nl := strings.IndexByte(l.src[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += nl + 1
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
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
