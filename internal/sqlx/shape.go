package sqlx

import (
	"errors"
	"strconv"
	"strings"

	"repro/internal/types"
)

// A statement's shape is its text with whitespace, comments and letter case
// canonicalized and every numeric or string literal that is only a value
// lifted out into a parameter list. Statements of one shape differ in those
// values alone, so one parse — with Param nodes where the values were — and
// one compilation serve them all.

// Param stands in a prepared statement's AST for a literal lifted out of
// the text: at execution it takes the value bound at position Index. Every
// value bound to one Param has the same Kind (the kind is part of the shape).
// Neg records a unary minus the parser would have folded into the literal.
type Param struct {
	Index int
	Kind  types.Kind
	Neg   bool
}

func (*Param) expr() {}

func (p *Param) String() string {
	s := "$" + strconv.Itoa(p.Index+1)
	if p.Neg {
		return "-" + s
	}
	return s
}

// Value returns the literal value the parameter stands for under params.
func (p *Param) Value(params []types.Datum) types.Datum {
	v := params[p.Index]
	if p.Neg {
		switch v.Kind() {
		case types.KindInt:
			return types.NewInt(-v.Int())
		case types.KindFloat:
			return types.NewFloat(-v.Float())
		}
	}
	return v
}

// MatchColumnValue recognises a comparison (= <> < <= > >=) of a column with
// a value — a literal, or the parameter standing in for one — written
// either way round, and returns it read as `column op value`: the operator is
// mirrored when the text has the value first. It is the one matcher SELECT
// routing, the selectivity estimate and GMDB's key lookup read a WHERE
// conjunct with.
func MatchColumnValue(e Expr) (col *ColumnRef, op string, val Expr, ok bool) {
	b, isBin := e.(*BinaryOp)
	if !isBin {
		return nil, "", nil, false
	}
	switch b.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
	default:
		return nil, "", nil, false
	}
	if cr, isCol := b.Left.(*ColumnRef); isCol && literalOrParam(b.Right) {
		return cr, b.Op, b.Right, true
	}
	if cr, isCol := b.Right.(*ColumnRef); isCol && literalOrParam(b.Left) {
		return cr, flipOp(b.Op), b.Left, true
	}
	return nil, "", nil, false
}

func literalOrParam(e Expr) bool {
	switch e.(type) {
	case *Literal, *Param:
		return true
	}
	return false
}

// flipOp mirrors a comparison for the value-op-column orientation.
func flipOp(op string) string {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default: // = and <> read the same both ways
		return op
	}
}

// ValueOf returns the datum a value MatchColumnValue matched stands for
// under params. ok=false for a parameter params does not reach: a statement
// compiled for all of its executions has no values yet.
func ValueOf(val Expr, params []types.Datum) (d types.Datum, ok bool) {
	switch v := val.(type) {
	case *Literal:
		return v.Value, true
	case *Param:
		if v.Index < len(params) {
			return v.Value(params), true
		}
	}
	return types.Null, false
}

// Shape is what Normalize lifts out of one statement text: Key identifies
// the shape, Params holds the lifted literal values in text order and Pos
// the byte offset of each one's token in the text.
type Shape struct {
	Key    string
	Params []types.Datum
	Pos    []int
}

// Normalize computes the shape of a statement text in one pass that mirrors
// the lexer byte for byte. Outside quotes it lower-cases ASCII letters and
// collapses every run of whitespace and comments (`--` to end of line,
// `/* */`; unterminated ones run to the end) to one space, dropping leading
// and trailing runs; quoted identifiers ("...") are copied as they are. A
// number becomes $I (integer) or $F (anything with a point or exponent) and
// a string literal $S — an upper-case letter cannot occur outside quotes
// otherwise, so a key is never mistaken for another text's — unless the
// literal is structural: after LIMIT, OFFSET or INTERVAL, anywhere inside an
// ORDER BY or GROUP BY clause (ordinals), anywhere in DDL, or a number the
// parser would reject. Those stay in the key, the string ones byte for
// byte. Two texts share a key only if the lexer reads them as the same
// tokens up to identifier case and the values of lifted literals.
func Normalize(sql string) Shape {
	var sh Shape
	var b strings.Builder
	b.Grow(len(sql))
	space := false
	var (
		word, prevWord string // the last token and the one before, if bare words
		ddl            bool   // CREATE / DROP seen: lift nothing
		depth          int    // open parentheses
		byDepth        = -1   // depth of the ORDER / GROUP BY clause being read
	)
	lift := func() bool {
		return !ddl && byDepth < 0 && !eqFold(word, "limit") && !eqFold(word, "offset") && !eqFold(word, "interval")
	}
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if c <= ' ' || c == '-' || c == '/' { // all a run of whitespace and comments starts with
			if end := skipSpace(sql, i); end > i {
				space = true
				i = end - 1
				continue
			}
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		start := i
		switch {
		case isIdentStart(rune(c)):
			for i+1 < len(sql) && isIdentPart(rune(sql[i+1])) {
				i++
			}
			prevWord, word = word, sql[start:i+1]
			writeLower(&b, word)
			switch {
			case eqFold(word, "create") || eqFold(word, "drop"):
				ddl = true
			case eqFold(word, "by") && (eqFold(prevWord, "order") || eqFold(prevWord, "group")):
				byDepth = depth
			case byDepth >= 0 && (eqFold(word, "limit") || eqFold(word, "offset") || eqFold(word, "having") || eqFold(word, "order") || eqFold(word, "union")):
				byDepth = -1
			}
			continue
		case c >= '0' && c <= '9':
			i = scanNumber(sql, i) - 1
			text := sql[start : i+1]
			if d, ok := numberValue(text); ok && lift() {
				sh.lifted(&b, d, start)
			} else {
				writeLower(&b, text)
			}
		case c == '\'' || c == '"':
			// Through the closing quote (or the end, if unterminated).
			end, closed := scanQuoted(sql, i)
			i = end - 1
			if c == '\'' && closed && lift() {
				sh.lifted(&b, types.NewString(quotedValue(sql[start+1:end-1])), start)
			} else {
				b.WriteString(sql[start:end])
			}
		default:
			switch c {
			case '(':
				depth++
			case ')':
				depth--
				if depth < byDepth {
					byDepth = -1
				}
			}
			b.WriteByte(c)
		}
		prevWord, word = "", ""
	}
	sh.Key = b.String()
	return sh
}

// lifted records one lifted literal and writes its placeholder.
func (sh *Shape) lifted(b *strings.Builder, d types.Datum, pos int) {
	if sh.Params == nil {
		// Most statements bind a handful of values: size for them at once.
		sh.Params, sh.Pos = make([]types.Datum, 0, 4), make([]int, 0, 4)
	}
	sh.Params = append(sh.Params, d)
	sh.Pos = append(sh.Pos, pos)
	switch d.Kind() {
	case types.KindInt:
		b.WriteString("$I")
	case types.KindFloat:
		b.WriteString("$F")
	default:
		b.WriteString("$S")
	}
}

// numberValue converts a number token (scanNumber's digits, point and
// exponent) for the parser and Normalize alike: a DOUBLE if it has a point
// or an exponent, else a BIGINT; ok=false for one out of range.
func numberValue(text string) (types.Datum, bool) {
	for i := 0; i < len(text); i++ {
		if c := text[i]; c == '.' || c == 'e' || c == 'E' {
			f, err := strconv.ParseFloat(text, 64)
			return types.NewFloat(f), err == nil
		}
	}
	if len(text) > 18 { // may overflow
		n, err := strconv.ParseInt(text, 10, 64)
		return types.NewInt(n), err == nil
	}
	var n int64
	for i := 0; i < len(text); i++ {
		n = n*10 + int64(text[i]-'0')
	}
	return types.NewInt(n), true
}

func writeLower(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
}

// eqFold is strings.EqualFold for an all-lower-case ASCII want.
func eqFold(s, want string) bool {
	if len(s) != len(want) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != want[i] {
			return false
		}
	}
	return true
}

// ErrUnliftable reports a statement text some lifted literal of which sits
// where the grammar reads it as something other than an expression literal:
// it cannot share a parse with the other texts of its shape.
var ErrUnliftable = errors.New("sqlx: a lifted literal is not an expression literal")

// ParseLifted parses src like Parse, except that the literal tokens at the
// byte offsets pos (ascending; Normalize's Shape.Pos) become Param nodes
// numbered in that order: the AST Parse(src) yields, but for a Param where
// each lifted literal stood.
func ParseLifted(src string, pos []int) (Statement, error) {
	p := newParser(src)
	p.lift = pos
	stmt, err := p.parseStatement()
	if err == nil {
		p.eatOp(";")
		switch {
		case !p.atEOF():
			err = p.errorf("unexpected %s after end of statement", p.peek())
		case p.lifted != len(pos):
			err = ErrUnliftable
		}
	}
	if err = p.fail(err); err != nil {
		return nil, err
	}
	return stmt, nil
}
