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
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			space = true
			continue
		case c == '-' && strings.HasPrefix(sql[i:], "--"):
			space = true
			if nl := strings.IndexByte(sql[i:], '\n'); nl >= 0 {
				i += nl
			} else {
				i = len(sql)
			}
			continue
		case c == '/' && strings.HasPrefix(sql[i:], "/*"):
			space = true
			if end := strings.Index(sql[i+2:], "*/"); end >= 0 {
				i += 2 + end + 1
			} else {
				i = len(sql)
			}
			continue
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
			end := i + 1
			closed := false
			for end < len(sql) {
				if sql[end] != c {
					end++
				} else if c == '\'' && end+1 < len(sql) && sql[end+1] == '\'' {
					end += 2
				} else {
					closed = true
					break
				}
			}
			end = min(end+1, len(sql))
			i = end - 1
			if c == '\'' && closed && lift() {
				// Cloned: a stored value must not pin the statement text.
				s := strings.Clone(sql[start+1 : end-1])
				if strings.Contains(s, "''") {
					s = strings.ReplaceAll(s, "''", "'")
				}
				sh.lifted(&b, types.NewString(s), start)
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

// numberValue converts a number token as the parser does; ok=false for one
// the parser rejects (out of range).
func numberValue(text string) (types.Datum, bool) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		return types.NewFloat(f), err == nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	return types.NewInt(n), err == nil
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
// where the grammar reads it as something other than an expression literal
// (a table function's raw argument, say): it cannot share a parse with the
// other texts of its shape.
var ErrUnliftable = errors.New("sqlx: a lifted literal is not an expression literal")

// ParseLifted parses src like Parse, except that the literal tokens at the
// byte offsets pos (ascending; Normalize's Shape.Pos) become Param nodes
// numbered in that order. Binding the values lifted from src (Bind) yields
// the AST Parse(src) yields.
func ParseLifted(src string, pos []int) (Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	p.lift = pos
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.eatOp(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after end of statement", p.peek())
	}
	if p.lifted != len(pos) {
		return nil, ErrUnliftable
	}
	return stmt, nil
}

// Bind returns stmt with every Param replaced by the literal it stands for
// under params. Subtrees without parameters are shared with stmt, not
// copied; with no params stmt itself is returned.
func Bind(stmt Statement, params []types.Datum) Statement {
	if len(params) == 0 {
		return stmt
	}
	b := binder{params}
	switch st := stmt.(type) {
	case *Select:
		return b.sel(st)
	case *Insert:
		out := *st
		out.Query = b.sel(st.Query)
		out.Rows = make([][]Expr, len(st.Rows))
		for i, row := range st.Rows {
			out.Rows[i] = b.exprs(row)
		}
		return &out
	case *Update:
		out := *st
		out.Where = b.expr(st.Where)
		out.Set = make([]Assignment, len(st.Set))
		for i, a := range st.Set {
			out.Set[i] = Assignment{Column: a.Column, Value: b.expr(a.Value)}
		}
		return &out
	case *Delete:
		return &Delete{Table: st.Table, Where: b.expr(st.Where)}
	case *Explain:
		return &Explain{Stmt: Bind(st.Stmt, params), Analyze: st.Analyze}
	default:
		return stmt
	}
}

type binder struct{ params []types.Datum }

func (b binder) sel(s *Select) *Select {
	if s == nil {
		return nil
	}
	out := *s
	if len(s.CTEs) > 0 {
		out.CTEs = make([]CTE, len(s.CTEs))
		for i, c := range s.CTEs {
			out.CTEs[i] = CTE{Name: c.Name, Columns: c.Columns, Query: b.sel(c.Query)}
		}
	}
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		it.Expr = b.expr(it.Expr)
		out.Items[i] = it
	}
	if len(s.From) > 0 {
		out.From = make([]TableRef, len(s.From))
		for i, r := range s.From {
			out.From[i] = b.ref(r)
		}
	}
	out.Where = b.expr(s.Where)
	out.GroupBy = b.exprs(s.GroupBy)
	out.Having = b.expr(s.Having)
	if len(s.OrderBy) > 0 {
		out.OrderBy = make([]OrderItem, len(s.OrderBy))
		for i, o := range s.OrderBy {
			out.OrderBy[i] = OrderItem{Expr: b.expr(o.Expr), Desc: o.Desc}
		}
	}
	if len(s.SetOps) > 0 {
		out.SetOps = make([]SetOp, len(s.SetOps))
		for i, so := range s.SetOps {
			out.SetOps[i] = SetOp{All: so.All, Query: b.sel(so.Query)}
		}
	}
	return &out
}

func (b binder) ref(r TableRef) TableRef {
	switch x := r.(type) {
	case *SubqueryRef:
		return &SubqueryRef{Query: b.sel(x.Query), Alias: x.Alias}
	case *TableFunc:
		out := *x
		out.Query = b.sel(x.Query)
		return &out
	case *JoinRef:
		return &JoinRef{Kind: x.Kind, Left: b.ref(x.Left), Right: b.ref(x.Right), On: b.expr(x.On)}
	default:
		return r
	}
}

func (b binder) exprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = b.expr(e)
	}
	return out
}

func (b binder) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Param:
		return &Literal{Value: x.Value(b.params)}
	case *BinaryOp:
		return &BinaryOp{Op: x.Op, Left: b.expr(x.Left), Right: b.expr(x.Right)}
	case *UnaryOp:
		return &UnaryOp{Op: x.Op, Child: b.expr(x.Child)}
	case *IsNull:
		return &IsNull{Child: b.expr(x.Child), Not: x.Not}
	case *InList:
		return &InList{Child: b.expr(x.Child), List: b.exprs(x.List), Not: x.Not}
	case *Between:
		return &Between{Child: b.expr(x.Child), Lo: b.expr(x.Lo), Hi: b.expr(x.Hi), Not: x.Not}
	case *FuncCall:
		out := *x
		out.Args = b.exprs(x.Args)
		return &out
	case *Subquery:
		return &Subquery{Query: b.sel(x.Query)}
	case *CaseExpr:
		return &CaseExpr{Operand: b.expr(x.Operand), Whens: b.exprs(x.Whens), Thens: b.exprs(x.Thens), Else: b.expr(x.Else)}
	default: // Literal, ColumnRef, IntervalLit: no parameters below
		return e
	}
}
