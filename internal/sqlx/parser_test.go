package sqlx

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a1, 'it''s', 3.5e2 FROM t -- comment\n/* block */ WHERE x <> 2;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a1", ",", "it's", ",", "3.5e2", "FROM", "t", "WHERE", "x", "<>", "2", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("token count = %d (%v), want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[3] != TokString || kinds[5] != TokNumber {
		t.Errorf("unexpected kinds %v", kinds)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := Tokenize("select 'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Tokenize("select a # b"); err == nil {
		t.Error("illegal char should fail")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE IF NOT EXISTS olap.t1 (
		a1 BIGINT, b1 DOUBLE, c1 TEXT, d1 TIMESTAMP,
		PRIMARY KEY (a1)
	) DISTRIBUTE BY HASH(a1) USING COLUMN`)
	ct, ok := stmt.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ct.Name != "olap.t1" || !ct.IfNotExists || len(ct.Columns) != 4 ||
		ct.DistKey != "a1" || ct.Storage != StorageColumn ||
		len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "a1" {
		t.Errorf("bad parse: %+v", ct)
	}
	if ct.Columns[1].Kind != types.KindFloat || ct.Columns[3].Kind != types.KindTime {
		t.Errorf("bad column kinds: %+v", ct.Columns)
	}
}

func TestParseCreateTableReplicated(t *testing.T) {
	stmt := mustParse(t, "CREATE TABLE dim (k INT PRIMARY KEY, v VARCHAR(32) NOT NULL) DISTRIBUTE BY REPLICATION")
	ct := stmt.(*CreateTable)
	if !ct.Replicated || ct.DistKey != "" || len(ct.PrimaryKey) != 1 {
		t.Errorf("bad parse: %+v", ct)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	ins := stmt.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 || len(ins.Rows[0]) != 2 {
		t.Errorf("bad parse: %+v", ins)
	}
	stmt = mustParse(t, "INSERT INTO t SELECT * FROM s WHERE x > 0")
	ins = stmt.(*Insert)
	if ins.Query == nil {
		t.Error("INSERT..SELECT lost its query")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'z' WHERE id = 7").(*Update)
	if up.Table != "t" || len(up.Set) != 2 || up.Where == nil {
		t.Errorf("bad update: %+v", up)
	}
	del := mustParse(t, "DELETE FROM t WHERE a BETWEEN 1 AND 5").(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Errorf("bad delete: %+v", del)
	}
	if _, ok := del.Where.(*Between); !ok {
		t.Errorf("where is %T, want Between", del.Where)
	}
}

func TestParseSelectFull(t *testing.T) {
	stmt := mustParse(t, `SELECT DISTINCT t1.a, count(*) AS n, sum(b)
		FROM olap.t1 AS t1 JOIN olap.t2 t2 ON t1.a1 = t2.a2
		WHERE t1.b1 > 10 AND t2.c IN (1, 2, 3)
		GROUP BY t1.a HAVING count(*) > 1
		ORDER BY n DESC, t1.a LIMIT 10 OFFSET 5`)
	sel := stmt.(*Select)
	if !sel.Distinct || len(sel.Items) != 3 || sel.Limit != 10 || sel.Offset != 5 {
		t.Errorf("bad select: %+v", sel)
	}
	j, ok := sel.From[0].(*JoinRef)
	if !ok || j.Kind != JoinInner || j.On == nil {
		t.Fatalf("bad join: %+v", sel.From[0])
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil || len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc {
		t.Errorf("bad clauses: %+v", sel)
	}
}

func TestParsePaperTableIQuery(t *testing.T) {
	// The exact query from §II-C used for Table I.
	stmt := mustParse(t, "select * from OLAP.t1, OLAP.t2 where OLAP.t1.a1=OLAP.t2.a2 and OLAP.t1.b1 > 10")
	sel := stmt.(*Select)
	if len(sel.From) != 2 {
		t.Fatalf("want 2 from items, got %d", len(sel.From))
	}
	if !sel.Items[0].Star {
		t.Error("want star projection")
	}
	// Qualified refs like OLAP.t1.a1 parse as Table="OLAP", Column="t1"...
	// our dialect treats two-part refs only, so the test query uses the
	// alias-free form; verify the WHERE tree shape is an AND.
	b, ok := sel.Where.(*BinaryOp)
	if !ok || b.Op != OpAnd {
		t.Fatalf("where = %v", sel.Where)
	}
}

func TestParseExample1Shape(t *testing.T) {
	// A dialect-adjusted version of the paper's Example 1 (§II-B).
	src := `with cars (carid) as (select carid from
	            gtimeseries(select ts, carid, juncid from high_speed_view
	                        where now() - ts < INTERVAL '30 minutes') AS g),
	     suspects (cid) as (select cid from
	            ggraph('g.V().has(cid,11111).inE(call).has(ts,gt(20180601)).count().gt(3)') AS gg)
	select s.cid, c.carid
	from suspects s, cars c
	where s.cid = (select cid from car2cid as cc where cc.carid = c.carid)`
	stmt := mustParse(t, src)
	sel := stmt.(*Select)
	if len(sel.CTEs) != 2 {
		t.Fatalf("want 2 CTEs, got %d", len(sel.CTEs))
	}
	tf0, ok := sel.CTEs[0].Query.From[0].(*TableFunc)
	if !ok || tf0.Name != "gtimeseries" || tf0.Query == nil {
		t.Fatalf("cte0 from = %+v", sel.CTEs[0].Query.From[0])
	}
	tf1, ok := sel.CTEs[1].Query.From[0].(*TableFunc)
	if arg, isLit := tf1.Arg.(*Literal); !ok || tf1.Name != "ggraph" || !isLit || !strings.HasPrefix(arg.Value.Str(), "g.V()") {
		t.Fatalf("cte1 from = %+v", sel.CTEs[1].Query.From[0])
	}
	// Scalar subquery in WHERE.
	eq, ok := sel.Where.(*BinaryOp)
	if !ok || eq.Op != OpEq {
		t.Fatalf("where = %v", sel.Where)
	}
	if _, ok := eq.Right.(*Subquery); !ok {
		t.Fatalf("rhs = %T, want Subquery", eq.Right)
	}
}

// TestParseGgraphUnquoted: a table function's argument is an expression,
// so a traversal written without quotes is a parse error, and so is any
// argument but a string.
func TestParseGgraphUnquoted(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM ggraph(g.V()) AS t",
		"select * from ggraph(g.V().has(kind,'person').out(knows).count()) AS g",
		"SELECT * FROM gspatial(pts.nearest(0, 0, 1)) AS p",
		"SELECT * FROM ggraph(5) AS t",
		"SELECT * FROM ggraph('g.' || 'V()') AS t",
		"SELECT * FROM ggraph() AS t",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseChain: the call-chain grammar ggraph and gspatial arguments are
// read with — SQL's quoting and numbers, step names as written, bare words
// as names, where() a nested chain.
func TestParseChain(t *testing.T) {
	c, err := ParseChain(`g.V().has('name', 'O''Brien').has(cid, 1e3).has(limit, gt(-2)).where(in(call).count()).values(Values, "x y")`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range c.Steps {
		s := st.Name + "("
		for i, a := range st.Args {
			if i > 0 {
				s += ", "
			}
			s += fmt.Sprintf("%T %s", a, a)
		}
		for _, sub := range st.Sub {
			s += sub.Name + "()."
		}
		got = append(got, s+")")
	}
	want := []string{
		"V()",
		"has(*sqlx.Literal 'name', *sqlx.Literal 'O''Brien')",
		"has(*sqlx.ColumnRef cid, *sqlx.Literal 1000)",
		"has(*sqlx.ColumnRef limit, *sqlx.FuncCall gt(-2))",
		"where(in().count().)",
		"values(*sqlx.ColumnRef Values, *sqlx.ColumnRef x y)",
	}
	if strings.Join(c.Path, ".") != "g" || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("path %q, steps\n%s\nwant\n%s", c.Path, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if v := c.Steps[2].Args[1].(*Literal).Value; v.Kind() != types.KindFloat {
		t.Errorf("1e3 is %s, want DOUBLE", v.Kind())
	}
	for _, src := range []string{"", "g.", "g.V", "V(", "V(1", "V(1 2)", "V(,)", "V(1,)", "g.V() x", "g.V()(2)", ".V()", "V().", "where(1)", "V('x)"} {
		if _, err := ParseChain(src); err == nil {
			t.Errorf("ParseChain(%q) should fail", src)
		}
	}
}

func TestParseTxControl(t *testing.T) {
	for _, src := range []string{"BEGIN", "COMMIT", "ROLLBACK", "ABORT"} {
		stmt := mustParse(t, src)
		tc, ok := stmt.(*TxControl)
		if !ok {
			t.Fatalf("%s parsed to %T", src, stmt)
		}
		want := src
		if src == "ABORT" {
			want = "ROLLBACK"
		}
		if tc.Verb != want {
			t.Errorf("%s -> verb %s", src, tc.Verb)
		}
	}
}

func TestParseExplain(t *testing.T) {
	stmt := mustParse(t, "EXPLAIN ANALYZE SELECT 1")
	ex := stmt.(*Explain)
	if !ex.Analyze {
		t.Error("lost ANALYZE")
	}
	if _, ok := ex.Stmt.(*Select); !ok {
		t.Errorf("inner = %T", ex.Stmt)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 = 7 AND NOT false OR x IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	// Top must be OR.
	or, ok := e.(*BinaryOp)
	if !ok || or.Op != OpOr {
		t.Fatalf("top = %v", e)
	}
	and, ok := or.Left.(*BinaryOp)
	if !ok || and.Op != OpAnd {
		t.Fatalf("or.left = %v", or.Left)
	}
	isn, ok := or.Right.(*IsNull)
	if !ok || !isn.Not {
		t.Fatalf("or.right = %v", or.Right)
	}
	eq := and.Left.(*BinaryOp)
	if eq.Op != OpEq {
		t.Fatalf("and.left = %v", and.Left)
	}
	add := eq.Left.(*BinaryOp)
	if add.Op != OpAdd {
		t.Fatalf("eq.left = %v", eq.Left)
	}
	if mul := add.Right.(*BinaryOp); mul.Op != OpMul {
		t.Fatalf("add.right = %v", add.Right)
	}
}

func TestParseNegativeNumbersFold(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*Literal)
	if !ok || lit.Value.Int() != -5 {
		t.Fatalf("got %v", e)
	}
	e, err = ParseExpr("-2.5")
	if err != nil {
		t.Fatal(err)
	}
	if lit := e.(*Literal); lit.Value.Float() != -2.5 {
		t.Fatalf("got %v", e)
	}
}

func TestParseIntervals(t *testing.T) {
	e, err := ParseExpr("INTERVAL '30 minutes'")
	if err != nil {
		t.Fatal(err)
	}
	iv := e.(*IntervalLit)
	if iv.Nanos != 30*60*1e9 {
		t.Errorf("nanos = %d", iv.Nanos)
	}
	for text, wantErr := range map[string]bool{
		"1 hour": false, "2 days": false, "500 milliseconds": false,
		"fast": true, "1 parsec": true, "x minutes": true,
	} {
		_, err := ParseInterval(text)
		if (err != nil) != wantErr {
			t.Errorf("ParseInterval(%q) err=%v, wantErr=%v", text, err, wantErr)
		}
	}
}

func TestParseCase(t *testing.T) {
	e, err := ParseExpr("CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*CaseExpr)
	if c.Operand != nil || len(c.Whens) != 1 || c.Else == nil {
		t.Errorf("bad case: %+v", c)
	}
	e, err = ParseExpr("CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' END")
	if err != nil {
		t.Fatal(err)
	}
	c = e.(*CaseExpr)
	if c.Operand == nil || len(c.Whens) != 2 || c.Else != nil {
		t.Errorf("bad case: %+v", c)
	}
}

func TestParseMulti(t *testing.T) {
	stmts, err := ParseMulti("CREATE TABLE a (x INT); INSERT INTO a VALUES (1);; SELECT * FROM a;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELEC 1",
		"SELECT FROM",
		"CREATE TABLE t (a FROBTYPE)",
		"INSERT INTO t VALUES (1,",
		"SELECT * FROM (SELECT 1)",             // derived table needs alias
		"SELECT * FROM t WHERE a BETWEEN 1 OR", // malformed between
		"UPDATE t SET",
		"SELECT 1 2 3 garbage (",
		"CASE WHEN END",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	// String() output must itself re-parse to an equivalent String().
	srcs := []string{
		"SELECT a, b + 1 AS c FROM t WHERE a = 1 ORDER BY b DESC LIMIT 3",
		"INSERT INTO t (a) VALUES (1), (2)",
		"UPDATE t SET a = 2 WHERE b = 'x'",
		"DELETE FROM t WHERE a IS NULL",
		"CREATE TABLE t (a BIGINT, b TEXT) DISTRIBUTE BY HASH(a) USING ROW",
		"SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2",
		"WITH c AS (SELECT a FROM t) SELECT * FROM c AS x",
	}
	for _, src := range srcs {
		s1 := mustParse(t, src).String()
		s2 := mustParse(t, s1).String()
		if s1 != s2 {
			t.Errorf("round trip mismatch:\n  first:  %s\n  second: %s", s1, s2)
		}
	}
}

func TestIsAggregate(t *testing.T) {
	agg, _ := ParseExpr("sum(a) + 1")
	if !IsAggregate(agg) {
		t.Error("sum(a)+1 is aggregate")
	}
	plain, _ := ParseExpr("a + 1")
	if IsAggregate(plain) {
		t.Error("a+1 is not aggregate")
	}
	sub, _ := ParseExpr("(select sum(a) from t)")
	if IsAggregate(sub) {
		t.Error("aggregates inside subqueries do not count")
	}
}

func TestStatementStringCoverage(t *testing.T) {
	// Round-trip a broad statement sample through String() -> Parse() to
	// pin the renderer for every AST node kind.
	srcs := []string{
		"DROP TABLE t",
		"DROP TABLE IF EXISTS t",
		"EXPLAIN SELECT 1",
		"EXPLAIN ANALYZE SELECT 1",
		"BEGIN",
		"CREATE TABLE r (a INT) DISTRIBUTE BY REPLICATION USING COLUMN",
		"SELECT t.* FROM t AS t",
		"SELECT * FROM (SELECT 1 AS x) AS d",
		"SELECT * FROM a AS a CROSS JOIN b AS b",
		"SELECT * FROM a AS a LEFT JOIN b AS b ON a.x = b.y",
		"SELECT * FROM gtimeseries(SELECT ts FROM s) AS g",
		"SELECT * FROM ggraph('g.V().count()') AS g",
		"SELECT CASE a WHEN 1 THEN 'x' ELSE 'y' END FROM t",
		"SELECT a FROM t WHERE a NOT IN (1, 2)",
		"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE NOT (a LIKE 'x%')",
		"SELECT a FROM t WHERE a IN (SELECT b FROM u)",
		"SELECT a FROM t WHERE a = (SELECT max(b) FROM u)",
		"SELECT count(DISTINCT a) FROM t",
		"SELECT a FROM t UNION SELECT b FROM u",
		"SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 LIMIT 3",
		"SELECT a || 'x' FROM t",
		"SELECT INTERVAL '5 minutes'",
		"INSERT INTO t SELECT a FROM u",
		"UPDATE t SET a = 1",
		"DELETE FROM t",
	}
	for _, src := range srcs {
		s1 := mustParse(t, src).String()
		s2 := mustParse(t, s1).String()
		if s1 != s2 {
			t.Errorf("round trip diverged for %q:\n  %s\n  %s", src, s1, s2)
		}
	}
}

func TestTokenStringAndLexerCorners(t *testing.T) {
	toks, err := Tokenize(`select "Quoted" /* block
comment */ x -- eol`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "Quoted" || toks[1].Kind != TokIdent {
		t.Errorf("quoted ident = %+v", toks[1])
	}
	if got := toks[len(toks)-1].String(); got != "<eof>" {
		t.Errorf("eof token = %q", got)
	}
	if got := (Token{Kind: TokString, Text: "s"}).String(); got != "'s'" {
		t.Errorf("string token = %q", got)
	}
	// Unterminated block comment and quoted ident.
	if toks, err := Tokenize("a /* never ends"); err != nil || len(toks) != 2 {
		t.Errorf("unterminated comment: %v %v", toks, err)
	}
	if _, err := Tokenize(`"never ends`); err == nil {
		t.Error("unterminated quoted ident must fail")
	}
	// Exponent without digits falls back.
	toks, _ = Tokenize("1e foo")
	if toks[0].Text != "1" {
		t.Errorf("bad exponent handling: %v", toks)
	}
}
