package sqlx

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/types"
)

// Parser is a recursive-descent parser over the lexer's token stream. It
// pulls tokens as it goes and never looks more than two past the current
// one, so it holds at most three instead of a list of the whole statement.
type Parser struct {
	lex Lexer
	// ahead[0] is the current token, always there; ahead[1:n] are the
	// look-ahead tokens pulled so far.
	ahead [3]Token
	n     int
	// err is the lexer's error, if it failed: the stream ends there (the
	// token pulled is EOF), and every entry point reports err whatever the
	// parse made of the truncated stream.
	err  error
	src  string
	lits slab[Literal]
	// lift lists the byte offsets of the literal tokens that become Param
	// nodes (ParseLifted), ascending; lifted counts those turned so far.
	lift   []int
	lifted int
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) { return ParseLifted(src, nil) }

// ParseMulti parses a semicolon-separated script.
func ParseMulti(src string) ([]Statement, error) {
	p := newParser(src)
	var out []Statement
	for {
		for p.eatOp(";") {
		}
		if p.atEOF() {
			if err := p.fail(nil); err != nil {
				return nil, err
			}
			return out, nil
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, p.fail(err)
		}
		out = append(out, stmt)
	}
}

// ParseExpr parses a standalone scalar expression (used by tests and by the
// GMDB SQL surface).
func ParseExpr(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err == nil && !p.atEOF() {
		err = p.errorf("unexpected %s after expression", p.peek())
	}
	if err = p.fail(err); err != nil {
		return nil, err
	}
	return e, nil
}

func newParser(src string) *Parser {
	p := &Parser{lex: Lexer{src: src}, src: src, n: 1}
	p.ahead[0] = p.pull()
	return p
}

// pull returns the lexer's next token: EOF from its first error on.
func (p *Parser) pull() Token {
	t, err := p.lex.Next()
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return Token{Kind: TokEOF, Pos: p.lex.pos}
	}
	return t
}

// fail is the error an entry point returns for a parse that ended with err
// (nil: it succeeded): the lexer's, if the lexer failed, since the parse
// then saw a stream cut short.
func (p *Parser) fail(err error) error {
	if p.err != nil {
		return p.err
	}
	return err
}

// peekAt returns the token k (1 or 2) past the current one. Past the end of
// the stream every token is EOF.
func (p *Parser) peekAt(k int) Token {
	for ; p.n <= k; p.n++ {
		p.ahead[p.n] = p.pull()
	}
	return p.ahead[k]
}

func (p *Parser) peek() Token  { return p.ahead[0] }
func (p *Parser) peek2() Token { return p.peekAt(1) }
func (p *Parser) next() Token {
	t := p.ahead[0]
	if t.Kind == TokEOF {
		return t
	}
	if p.n--; p.n > 0 {
		copy(p.ahead[:], p.ahead[1:p.n+1])
	} else {
		p.ahead[0], p.n = p.pull(), 1
	}
	return t
}
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }

func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlx: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// eatKeyword consumes the keyword if present.
func (p *Parser) eatKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *Parser) eatOp(op string) bool {
	if t := p.peek(); t.Kind == TokOp && t.Text == op {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.eatOp(op) {
		return p.errorf("expected %q, found %s", op, p.peek())
	}
	return nil
}

// parseIdent accepts an identifier or a non-reserved-in-context keyword.
func (p *Parser) parseIdent() (string, error) {
	t := p.peek()
	if t.Kind == TokIdent {
		p.next()
		return t.Text, nil
	}
	// Allow a few keywords as identifiers where unambiguous (e.g. a column
	// named "time" lexes as TokIdent already since TIME isn't a keyword;
	// KEY/ROW/COLUMN may appear as names).
	if t.Kind == TokKeyword {
		switch t.Text {
		case "KEY", "ROW", "COLUMN", "HASH", "SET", "VALUES", "ALL":
			p.next()
			return strings.ToLower(t.Text), nil
		}
	}
	return "", p.errorf("expected identifier, found %s", t)
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement, found %s", t)
	}
	switch t.Text {
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT", "WITH":
		return p.parseSelect()
	case "BEGIN":
		p.next()
		return &TxControl{Verb: "BEGIN"}, nil
	case "COMMIT":
		p.next()
		return &TxControl{Verb: "COMMIT"}, nil
	case "ROLLBACK", "ABORT":
		p.next()
		return &TxControl{Verb: "ROLLBACK"}, nil
	case "EXPLAIN":
		p.next()
		analyze := p.eatKeyword("ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner, Analyze: analyze}, nil
	default:
		return nil, p.errorf("unsupported statement %s", t.Text)
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTable{Storage: StorageRow}
	if p.eatKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		if p.eatKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, col)
				if !p.eatOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			tname, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			kind, err := types.KindFromName(tname)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			// Swallow optional length like VARCHAR(32).
			if p.eatOp("(") {
				for !p.eatOp(")") {
					if p.atEOF() {
						return nil, p.errorf("unterminated type length")
					}
					p.next()
				}
			}
			// Swallow optional NOT NULL / PRIMARY KEY column constraint.
			if p.eatKeyword("NOT") {
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
			}
			if p.eatKeyword("PRIMARY") {
				if err := p.expectKeyword("KEY"); err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, col)
			}
			ct.Columns = append(ct.Columns, ColumnDef{Name: col, Kind: kind})
		}
		if !p.eatOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatKeyword("DISTRIBUTE"):
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			if p.eatKeyword("REPLICATION") {
				ct.Replicated = true
				continue
			}
			if err := p.expectKeyword("HASH"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			ct.DistKey = col
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		case p.eatKeyword("USING"):
			switch {
			case p.eatKeyword("ROW"):
				ct.Storage = StorageRow
			case p.eatKeyword("COLUMN"):
				ct.Storage = StorageColumn
			default:
				return nil, p.errorf("expected ROW or COLUMN after USING")
			}
		default:
			return ct, nil
		}
	}
}

func (p *Parser) parseDropTable() (Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.eatKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	dt.Name = name
	return dt, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	ins := &Insert{}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	ins.Table = name
	if p.peek().Kind == TokOp && p.peek().Text == "(" {
		p.next()
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if t := p.peek(); t.Kind == TokKeyword && (t.Text == "SELECT" || t.Text == "WITH") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var items []Expr // the row being parsed
	var rows slab[Expr]
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		items = items[:0]
		for {
			e, err := p.parseValuesItem()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		row := rows.take(len(items))
		copy(row, items)
		ins.Rows = append(ins.Rows, row)
		if !p.eatOp(",") {
			return ins, nil
		}
	}
}

// parseValuesItem parses one item of a VALUES row. A lone number or string
// literal — by far the commonest item — is its primary, which is what the
// whole expression grammar would make of it; anything else is an expression.
func (p *Parser) parseValuesItem() (Expr, error) {
	if k := p.peek().Kind; k == TokNumber || k == TokString {
		if t := p.peek2(); t.Kind == TokOp && (t.Text == "," || t.Text == ")") {
			return p.parsePrimary()
		}
	}
	return p.parseExpr()
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	up := &Update{}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	up.Table = name
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: val})
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	del := &Delete{}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	del.Table = name
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

// slab hands out slices of T carved from blocks it allocates, the first
// small and each next one twice the size, up to 256 values: a statement
// with thousands of literals costs a few dozen allocations, one with two
// literals a single small one. What it hands out lives as long as its block.
type slab[T any] struct {
	free []T
	size int
}

// take returns n zero values of T, at capacity n.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.size = min(max(2*s.size, 4), 256)
		s.free = make([]T, max(s.size, n))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// literal returns a Literal node holding v.
func (p *Parser) literal(v types.Datum) *Literal {
	l := &p.lits.take(1)[0]
	l.Value = v
	return l
}

// parseQualifiedName parses ident[.ident] as a dotted table name (the paper
// uses schema-qualified names like OLAP.t1).
func (p *Parser) parseQualifiedName() (string, error) {
	first, err := p.parseIdent()
	if err != nil {
		return "", err
	}
	if p.eatOp(".") {
		second, err := p.parseIdent()
		if err != nil {
			return "", err
		}
		return first + "." + second, nil
	}
	return first, nil
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *Parser) parseSelect() (*Select, error) {
	sel := &Select{Limit: -1}
	if p.eatKeyword("WITH") {
		for {
			name, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			cte := CTE{Name: name}
			if p.peek().Kind == TokOp && p.peek().Text == "(" {
				p.next()
				for {
					col, err := p.parseIdent()
					if err != nil {
						return nil, err
					}
					cte.Columns = append(cte.Columns, col)
					if !p.eatOp(",") {
						break
					}
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			cte.Query = q
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			sel.CTEs = append(sel.CTEs, cte)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if err := p.parseSelectCore(sel); err != nil {
		return nil, err
	}
	// UNION [ALL] arms.
	for p.eatKeyword("UNION") {
		arm := &Select{Limit: -1}
		all := p.eatKeyword("ALL")
		if err := p.expectKeyword("SELECT"); err != nil {
			return nil, err
		}
		if err := p.parseSelectCore(arm); err != nil {
			return nil, err
		}
		sel.SetOps = append(sel.SetOps, SetOp{All: all, Query: arm})
	}
	if p.eatKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.eatKeyword("DESC") {
				it.Desc = true
			} else {
				p.eatKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, it)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("LIMIT") {
		n, err := p.parseIntLit()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	}
	if p.eatKeyword("OFFSET") {
		n, err := p.parseIntLit()
		if err != nil {
			return nil, err
		}
		sel.Offset = n
	}
	return sel, nil
}

// parseSelectCore parses the SELECT..HAVING body of one query block (the
// part a UNION arm repeats); the caller has already consumed SELECT.
func (p *Parser) parseSelectCore(sel *Select) error {
	sel.Distinct = p.eatKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return err
		}
		sel.Items = append(sel.Items, item)
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKeyword("FROM") {
		for {
			ref, err := p.parseTableRefWithJoins()
			if err != nil {
				return err
			}
			sel.From = append(sel.From, ref)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Where = w
	}
	if p.eatKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return err
		}
		sel.Having = h
	}
	return nil
}

func (p *Parser) parseIntLit() (int64, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, p.errorf("expected integer, found %s", t)
	}
	p.next()
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q", t.Text)
	}
	return n, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	// "*" or "t.*"
	if p.peek().Kind == TokOp && p.peek().Text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	if p.peek().Kind == TokIdent && p.peek2().Kind == TokOp && p.peek2().Text == "." {
		// Could be t.* — look two ahead.
		if t := p.peekAt(2); t.Kind == TokOp && t.Text == "*" {
			tbl := p.next().Text
			p.next() // .
			p.next() // *
			return SelectItem{Star: true, Table: tbl}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.eatKeyword("AS") {
		alias, err := p.parseIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRefWithJoins() (TableRef, error) {
	left, err := p.parseTableRefPrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind JoinKind
		switch {
		case p.eatKeyword("JOIN"):
			kind = JoinInner
		case p.eatKeyword("INNER"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinInner
		case p.eatKeyword("LEFT"):
			p.eatKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinLeft
		case p.eatKeyword("CROSS"):
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTableRefPrimary()
		if err != nil {
			return nil, err
		}
		j := &JoinRef{Kind: kind, Left: left, Right: right}
		if kind != JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

// tableFuncs are multi-model table expressions recognized in FROM position.
var tableFuncs = map[string]bool{"gtimeseries": true, "ggraph": true, "gspatial": true}

func (p *Parser) parseTableRefPrimary() (TableRef, error) {
	t := p.peek()
	// (select) AS alias
	if t.Kind == TokOp && t.Text == "(" {
		p.next()
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Query: q}
		p.eatKeyword("AS")
		alias, err := p.parseIdent()
		if err != nil {
			return nil, p.errorf("derived table requires an alias")
		}
		ref.Alias = alias
		return ref, nil
	}
	if t.Kind != TokIdent {
		return nil, p.errorf("expected table reference, found %s", t)
	}
	// Table function?
	if tableFuncs[strings.ToLower(t.Text)] && p.peek2().Kind == TokOp && p.peek2().Text == "(" {
		name := strings.ToLower(p.next().Text)
		p.next() // (
		tf := &TableFunc{Name: name}
		var err error
		if name == "gtimeseries" {
			tf.Query, err = p.parseSelect()
		} else if tf.Arg, err = p.parseExpr(); err == nil && !isString(tf.Arg) {
			// ggraph and gspatial take their query as a string: a literal,
			// or the parameter the front door lifted it into.
			err = p.errorf("%s() takes its query as a string literal", name)
		}
		if err == nil {
			err = p.expectOp(")")
		}
		if err == nil {
			tf.Alias, err = p.parseAlias()
		}
		if err != nil {
			return nil, err
		}
		return tf, nil
	}
	name, err := p.parseQualifiedName()
	if err != nil {
		return nil, err
	}
	ref := &BaseTable{Name: name}
	if ref.Alias, err = p.parseAlias(); err != nil {
		return nil, err
	}
	return ref, nil
}

// parseAlias reads a table reference's optional [AS] alias.
func (p *Parser) parseAlias() (string, error) {
	if p.eatKeyword("AS") {
		return p.parseIdent()
	}
	if p.peek().Kind == TokIdent {
		return p.next().Text, nil
	}
	return "", nil
}

func isString(e Expr) bool {
	l, isLit := e.(*Literal)
	q, isParam := e.(*Param)
	return isLit && l.Value.Kind() == types.KindString || isParam && q.Kind == types.KindString
}

// Chain is a parsed call chain, the query language of ggraph and gspatial:
// [name{.name}.] step(args){.step(args)}, as in
// g.V().has('cid', 11111).values(phone) or fleet.nearest(0, 0, 3).
type Chain struct {
	Path  []string // the names before the first step
	Steps []Step
}

// Step is one call of a chain, its name as written (a keyword keeps its
// case). A bare word argument — a keyword too — followed by "," or ")" is a
// *ColumnRef naming it; any other argument is an expression, except that the
// argument of where(...) is a nested chain of steps, Sub.
type Step struct {
	Name string
	Args []Expr
	Sub  []Step
}

// ParseChain parses a call chain with the statement lexer and expression
// grammar, so its quoting, numbers and whitespace are SQL's.
func ParseChain(src string) (*Chain, error) {
	p := newParser(src)
	c := &Chain{}
	for isWord(p.peek()) && p.peek2().Kind == TokOp && p.peek2().Text == "." {
		c.Path = append(c.Path, p.word(p.next()))
		p.next() // .
	}
	var err error
	if c.Steps, err = p.parseSteps(); err == nil && !p.atEOF() {
		err = p.errorf("unexpected %s after the chain", p.peek())
	}
	if err = p.fail(err); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *Parser) parseSteps() ([]Step, error) {
	var steps []Step
	for {
		t := p.peek()
		if !isWord(t) {
			return nil, p.errorf("expected a step, found %s", t)
		}
		p.next()
		st := Step{Name: p.word(t)}
		err := p.expectOp("(")
		switch {
		case err != nil:
		case st.Name == "where":
			if st.Sub, err = p.parseSteps(); err == nil {
				err = p.expectOp(")")
			}
		case !p.eatOp(")"):
			st.Args, err = p.parseArgs(st.Name)
		}
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
		if !p.eatOp(".") {
			return steps, nil
		}
	}
}

// parseArgs reads the arguments of step, after its "(", through its ")".
func (p *Parser) parseArgs(step string) ([]Expr, error) {
	var args []Expr
	for {
		if w, n := p.peek(), p.peek2(); isWord(w) && n.Kind == TokOp && (n.Text == "," || n.Text == ")") {
			args = append(args, &ColumnRef{Column: p.word(p.next())})
		} else if a, err := p.parseExpr(); err == nil {
			args = append(args, a)
		} else {
			return nil, err
		}
		if p.eatOp(")") {
			return args, nil
		}
		if !p.eatOp(",") {
			return nil, p.errorf("argument %d of %s(): expected , or ), found %s", len(args), step, p.peek())
		}
	}
}

func isWord(t Token) bool { return t.Kind == TokIdent || t.Kind == TokKeyword }

// word is a bare word's text as written: a keyword token's Text is
// upper-cased.
func (p *Parser) word(t Token) string {
	if t.Kind != TokKeyword {
		return t.Text
	}
	end := t.Pos
	for end < len(p.src) && isIdentPart(rune(p.src[end])) {
		end++
	}
	return p.src[t.Pos:end]
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.eatKeyword("NOT") {
		child, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "NOT", Child: child}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.eatKeyword("IS") {
		not := p.eatKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Child: left, Not: not}, nil
	}
	// [NOT] IN / BETWEEN / LIKE
	not := false
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "NOT" {
		if n := p.peek2(); n.Kind == TokKeyword && (n.Text == "IN" || n.Text == "BETWEEN" || n.Text == "LIKE") {
			p.next()
			not = true
		}
	}
	switch {
	case p.eatKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if t := p.peek(); t.Kind == TokKeyword && (t.Text == "SELECT" || t.Text == "WITH") {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			// x IN (subquery) is represented as x = ANY via InList with a
			// single Subquery element; the planner expands it.
			il := &InList{Child: left, List: []Expr{&Subquery{Query: q}}, Not: not}
			return il, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InList{Child: left, List: list, Not: not}, nil
	case p.eatKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{Child: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.eatKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryOp{Op: OpLike, Left: left, Right: pat}
		if not {
			e = &UnaryOp{Op: "NOT", Child: e}
		}
		return e, nil
	}
	for {
		t := p.peek()
		if t.Kind != TokOp {
			return left, nil
		}
		var op string
		switch t.Text {
		case "=", "<", ">", "<=", ">=":
			op = t.Text
		case "<>", "!=":
			op = OpNe
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOp || (t.Text != "+" && t.Text != "-" && t.Text != "||") {
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		op := t.Text
		if op == "||" {
			op = OpConcat
		}
		left = &BinaryOp{Op: op, Left: left, Right: right}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOp || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: t.Text, Left: left, Right: right}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.peek().Kind == TokOp && p.peek().Text == "-" {
		p.next()
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch x := child.(type) {
		case *Literal:
			switch x.Value.Kind() {
			case types.KindInt:
				return p.literal(types.NewInt(-x.Value.Int())), nil
			case types.KindFloat:
				return p.literal(types.NewFloat(-x.Value.Float())), nil
			}
		case *Param:
			if x.Kind == types.KindInt || x.Kind == types.KindFloat {
				return &Param{Index: x.Index, Kind: x.Kind, Neg: !x.Neg}, nil
			}
		}
		return &UnaryOp{Op: "-", Child: child}, nil
	}
	if p.peek().Kind == TokOp && p.peek().Text == "+" {
		p.next()
		return p.parseUnary()
	}
	return p.parsePrimary()
}

// intervalUnits maps unit names (singular, lower-case) to nanoseconds.
var intervalUnits = map[string]int64{
	"nanosecond":  1,
	"microsecond": int64(time.Microsecond),
	"millisecond": int64(time.Millisecond),
	"second":      int64(time.Second),
	"minute":      int64(time.Minute),
	"hour":        int64(time.Hour),
	"day":         24 * int64(time.Hour),
	"week":        7 * 24 * int64(time.Hour),
}

// ParseInterval parses "30 minutes"-style interval text into nanoseconds.
func ParseInterval(text string) (int64, error) {
	fields := strings.Fields(strings.ToLower(strings.TrimSpace(text)))
	if len(fields) != 2 {
		return 0, fmt.Errorf("sqlx: bad interval %q (want '<n> <unit>')", text)
	}
	n, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sqlx: bad interval count %q", fields[0])
	}
	unit := strings.TrimSuffix(fields[1], "s")
	ns, ok := intervalUnits[unit]
	if !ok {
		return 0, fmt.Errorf("sqlx: bad interval unit %q", fields[1])
	}
	return n * ns, nil
}

// liftedAt reports whether the literal token at byte offset pos is the next
// one to lift, and counts it.
func (p *Parser) liftedAt(pos int) bool {
	if p.lifted < len(p.lift) && p.lift[p.lifted] == pos {
		p.lifted++
		return true
	}
	return false
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, ok := numberValue(t.Text)
		if p.liftedAt(t.Pos) {
			return &Param{Index: p.lifted - 1, Kind: v.Kind()}, nil
		}
		if !ok {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return p.literal(v), nil
	case TokString:
		p.next()
		if p.liftedAt(t.Pos) {
			return &Param{Index: p.lifted - 1, Kind: types.KindString}, nil
		}
		return p.literal(types.NewString(t.Text)), nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return p.literal(types.Null), nil
		case "TRUE":
			p.next()
			return p.literal(types.NewBool(true)), nil
		case "FALSE":
			p.next()
			return p.literal(types.NewBool(false)), nil
		case "INTERVAL":
			p.next()
			s := p.peek()
			if s.Kind != TokString {
				return nil, p.errorf("INTERVAL requires a string literal")
			}
			p.next()
			ns, err := ParseInterval(s.Text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			return &IntervalLit{Nanos: ns, Text: s.Text}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Text)
	case TokOp:
		if t.Text == "(" {
			p.next()
			// Scalar subquery?
			if k := p.peek(); k.Kind == TokKeyword && (k.Text == "SELECT" || k.Text == "WITH") {
				q, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &Subquery{Query: q}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "*" {
			// count(*) handled in func call path; bare * invalid here.
			return nil, p.errorf("unexpected * in expression")
		}
		return nil, p.errorf("unexpected %s in expression", t)
	case TokIdent:
		// Function call?
		if p.peek2().Kind == TokOp && p.peek2().Text == "(" {
			name := p.next().Text
			p.next() // (
			fc := &FuncCall{Name: strings.ToLower(name)}
			if p.peek().Kind == TokOp && p.peek().Text == "*" {
				p.next()
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if p.eatOp(")") {
				return fc, nil
			}
			fc.Distinct = p.eatKeyword("DISTINCT")
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fc.Args = append(fc.Args, a)
				if !p.eatOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Column ref, possibly qualified: col, tbl.col, or schema.tbl.col.
		name := p.next().Text
		if p.eatOp(".") {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			if p.eatOp(".") {
				col2, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				return &ColumnRef{Table: name + "." + col, Column: col2}, nil
			}
			return &ColumnRef{Table: name, Column: col}, nil
		}
		return &ColumnRef{Column: name}, nil
	default:
		return nil, p.errorf("unexpected %s in expression", t)
	}
}

func (p *Parser) parseCase() (Expr, error) {
	p.next() // CASE
	c := &CaseExpr{}
	if t := p.peek(); !(t.Kind == TokKeyword && t.Text == "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.eatKeyword("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, w)
		c.Thens = append(c.Thens, th)
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.eatKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}
