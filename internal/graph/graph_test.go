package graph

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// newCluster is a fresh two-node cluster whose planner compiles
// ggraph(...) with Compile, and a session on it.
func newCluster(t testing.TB) (*cluster.Cluster, *cluster.Session) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	c.Hooks = plan.Hooks{GGraph: Compile}
	return c, c.NewSession()
}

// newGraph declares graph g on a fresh cluster.
func newGraph(t testing.TB, vprops, eprops []types.Column) (*Graph, *cluster.Session) {
	t.Helper()
	_, s := newCluster(t)
	g, err := Create(s, "g", vprops, eprops)
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

var (
	intCol  = func(name string) types.Column { return types.Column{Name: name, Kind: types.KindInt} }
	textCol = func(name string) types.Column { return types.Column{Name: name, Kind: types.KindString} }
)

func mustVertex(t testing.TB, g *Graph, label string, props map[string]types.Datum) VID {
	t.Helper()
	id, err := g.AddVertex(label, props)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustEdge(t testing.TB, g *Graph, from, to VID, label string, props map[string]types.Datum) {
	t.Helper()
	if err := g.AddEdge(from, to, label, props); err != nil {
		t.Fatal(err)
	}
}

// traverse runs SELECT * FROM ggraph(src) through s, built as an AST so the
// traversal text needs no quoting.
func traverse(s *cluster.Session, src string) (*cluster.Result, error) {
	return s.ExecStmt(&sqlx.Select{
		Items: []sqlx.SelectItem{{Star: true}},
		From:  []sqlx.TableRef{&sqlx.TableFunc{Name: "ggraph", Arg: &sqlx.Literal{Value: types.NewString(src)}, Alias: "t"}},
		Limit: -1,
	})
}

func eval(t *testing.T, s *cluster.Session, src string) []types.Row {
	t.Helper()
	res, err := traverse(s, src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return res.Rows
}

// callGraph builds the paper's Example 1 scenario: persons connected by
// timestamped "call" edges.
func callGraph(t *testing.T) (*Graph, *cluster.Session) {
	t.Helper()
	g, s := newGraph(t, []types.Column{intCol("cid"), textCol("phone")}, []types.Column{intCol("ts")})
	suspect := mustVertex(t, g, "person", map[string]types.Datum{
		"cid": types.NewInt(11111), "phone": types.NewString("555-0100"),
	})
	quiet := mustVertex(t, g, "person", map[string]types.Datum{
		"cid": types.NewInt(22222), "phone": types.NewString("555-0101"),
	})
	var callers []VID
	for i := 0; i < 5; i++ {
		callers = append(callers, mustVertex(t, g, "person", map[string]types.Datum{
			"cid": types.NewInt(int64(30000 + i)),
		}))
	}
	// suspect receives 4 recent calls (ts >= 20180601), 1 old.
	for i, c := range callers[:4] {
		mustEdge(t, g, c, suspect, "call", map[string]types.Datum{"ts": types.NewInt(int64(20180601 + i))})
	}
	mustEdge(t, g, callers[4], suspect, "call", map[string]types.Datum{"ts": types.NewInt(20180101)})
	// quiet receives 1 recent call.
	mustEdge(t, g, callers[0], quiet, "call", map[string]types.Datum{"ts": types.NewInt(20180701)})
	return g, s
}

func TestAddAndCount(t *testing.T) {
	g, s := callGraph(t)
	for sql, want := range map[string]int64{"SELECT count(*) FROM g_vertices": 7, "SELECT count(*) FROM g_edges": 6} {
		res, err := s.Exec(sql)
		if err != nil || res.Rows[0][0].Int() != want {
			t.Errorf("%s = %v, %v; want %d", sql, res, err, want)
		}
	}
	if err := g.AddEdge(999, 1, "call", nil); err == nil || !strings.Contains(err.Error(), "vertex 999 does not exist") {
		t.Errorf("edge from a missing vertex: %v", err)
	}
	if _, err := g.AddVertex("person", map[string]types.Datum{"age": types.NewInt(3)}); err == nil {
		t.Error("an undeclared property must be refused")
	}
	if id := mustVertex(t, g, "person", nil); id != 8 {
		t.Errorf("next vertex id = %d, want 8 (ids ascend in insertion order)", id)
	}
}

func TestVCountTraversal(t *testing.T) {
	_, s := callGraph(t)
	rows := eval(t, s, "g.V().count()")
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Errorf("rows = %v", rows)
	}
}

func TestHasAndHasLabel(t *testing.T) {
	_, s := callGraph(t)
	rows := eval(t, s, "g.V().hasLabel('person').has('cid', 11111).count()")
	if rows[0][0].Int() != 1 {
		t.Errorf("count = %v", rows[0][0])
	}
	// Unquoted key, paper style.
	rows = eval(t, s, "g.V().has(cid, 11111).values(phone)")
	if len(rows) != 1 || rows[0][0].Str() != "555-0100" {
		t.Errorf("rows = %v", rows)
	}
	// has(k) is k IS NOT NULL: two persons have a phone.
	if rows := eval(t, s, "g.V().has(phone).count()"); rows[0][0].Int() != 2 {
		t.Errorf("has(phone) count = %v", rows)
	}
}

func TestInEWithPredicate(t *testing.T) {
	_, s := callGraph(t)
	// The paper's Example 1 inner traversal: incoming recent calls of the
	// suspect, counted.
	rows := eval(t, s, "g.V().has(cid,11111).inE(call).has(ts, gt(20180131)).count()")
	if len(rows) != 1 || rows[0][0].Int() != 4 {
		t.Errorf("recent call count = %v", rows)
	}
	// count().gt(3) keeps the count value only when it exceeds 3.
	rows = eval(t, s, "g.V().has(cid,11111).inE(call).has(ts, gt(20180131)).count().gt(3)")
	if len(rows) != 1 || rows[0][0].Int() != 4 {
		t.Errorf("gt filter = %v", rows)
	}
	rows = eval(t, s, "g.V().has(cid,22222).inE(call).has(ts, gt(20180131)).count().gt(3)")
	if len(rows) != 0 {
		t.Errorf("quiet person should not pass gt(3): %v", rows)
	}
}

func TestWhereSubTraversal(t *testing.T) {
	_, s := callGraph(t)
	// Example 1 as a row-producing query: all cids with > 3 recent calls.
	rows := eval(t, s, "g.V().hasLabel(person).where(inE(call).has(ts, gt(20180131)).count().gt(3)).values(cid)")
	if len(rows) != 1 || rows[0][0].Int() != 11111 {
		t.Errorf("suspects = %v", rows)
	}
	// A sub-traversal that does not end in count() passes when it yields
	// anything: the five persons that made a call.
	if rows := eval(t, s, "g.V().where(outE(call)).count()"); rows[0][0].Int() != 5 {
		t.Errorf("callers = %v", rows)
	}
}

func TestOutInBoth(t *testing.T) {
	g, s := newGraph(t, []types.Column{intCol("k")}, nil)
	a := mustVertex(t, g, "n", map[string]types.Datum{"k": types.NewInt(1)})
	b := mustVertex(t, g, "n", map[string]types.Datum{"k": types.NewInt(2)})
	c := mustVertex(t, g, "n", map[string]types.Datum{"k": types.NewInt(3)})
	mustEdge(t, g, a, b, "knows", nil)
	mustEdge(t, g, b, c, "knows", nil)
	mustEdge(t, g, a, c, "likes", nil)
	mustEdge(t, g, c, c, "self", nil)

	if rows := eval(t, s, "g.V().has(k,1).out(knows).values(k)"); len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("out = %v", rows)
	}
	if rows := eval(t, s, "g.V().has(k,3).in().count()"); rows[0][0].Int() != 3 {
		t.Errorf("in count = %v", rows)
	}
	if rows := eval(t, s, "g.V().has(k,2).both().count()"); rows[0][0].Int() != 2 {
		t.Errorf("both count = %v", rows)
	}
	// A self-loop is both an out- and an in-edge: both() counts it twice.
	if rows := eval(t, s, "g.V().has(k,3).both(self).count()"); rows[0][0].Int() != 2 {
		t.Errorf("both over a self-loop = %v", rows)
	}
	// Edge endpoints.
	if rows := eval(t, s, "g.V().has(k,1).outE(likes).inV().values(k)"); len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Errorf("outE.inV = %v", rows)
	}
	if rows := eval(t, s, "g.V().has(k,2).inE().outV().values(k)"); len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("inE.outV = %v", rows)
	}
	if rows := eval(t, s, "g.V().has(k,2).bothE().count()"); rows[0][0].Int() != 2 {
		t.Errorf("bothE count = %v", rows)
	}
}

func TestLimitDedup(t *testing.T) {
	g, s := newGraph(t, []types.Column{intCol("i")}, nil)
	hub := mustVertex(t, g, "hub", nil)
	for i := 0; i < 5; i++ {
		v := mustVertex(t, g, "leaf", map[string]types.Datum{"i": types.NewInt(int64(i))})
		mustEdge(t, g, hub, v, "e", nil)
		mustEdge(t, g, hub, v, "e", nil) // duplicate edges
	}
	if rows := eval(t, s, "g.V().hasLabel(hub).out(e).count()"); rows[0][0].Int() != 10 {
		t.Errorf("out count = %v", rows)
	}
	if rows := eval(t, s, "g.V().hasLabel(hub).out(e).dedup().count()"); rows[0][0].Int() != 5 {
		t.Errorf("dedup count = %v", rows)
	}
	if rows := eval(t, s, "g.V().hasLabel(hub).outE(e).dedup().count()"); rows[0][0].Int() != 5 {
		t.Errorf("edge dedup count = %v (edges alike in every column are one)", rows)
	}
	if rows := eval(t, s, "g.V().hasLabel(leaf).limit(2)"); len(rows) != 2 {
		t.Errorf("limit = %v", rows)
	}
	if rows := eval(t, s, "g.V().limit(4).out().count()"); rows[0][0].Int() > 10 {
		t.Errorf("limit mid-chain = %v", rows)
	}
}

func TestVById(t *testing.T) {
	_, s := callGraph(t)
	rows := eval(t, s, "g.V(1).values(cid)")
	if len(rows) != 1 || rows[0][0].Int() != 11111 {
		t.Errorf("V(1) = %v", rows)
	}
	if rows := eval(t, s, "g.V(9999).count()"); rows[0][0].Int() != 0 {
		t.Errorf("missing vertex count = %v", rows)
	}
}

// TestOutputSchemas: each kind of result has its column names, and the
// columns have the kinds the graph declared.
func TestOutputSchemas(t *testing.T) {
	_, s := callGraph(t)
	for src, want := range map[string]string{
		"g.V().values(cid, phone)":      "cid BIGINT, phone TEXT",
		"g.V().count()":                 "count BIGINT",
		"g.V().inE(call).count().gt(1)": "value BIGINT",
		"g.V().inE(call)":               "from BIGINT, to BIGINT, label TEXT",
		"g.E().dedup()":                 "from BIGINT, to BIGINT, label TEXT",
		"g.V()":                         "id BIGINT, label TEXT",
		"V().out().limit(3)":            "id BIGINT, label TEXT",
	} {
		res, err := s.ExecStmt(&sqlx.Select{
			Items: []sqlx.SelectItem{{Star: true}},
			From:  []sqlx.TableRef{&sqlx.TableFunc{Name: "ggraph", Arg: &sqlx.Literal{Value: types.NewString(src)}, Alias: "t"}},
			Limit: -1,
		})
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		var got []string
		for i, c := range res.Plan.Root.Schema().Columns {
			got = append(got, res.Columns[i]+" "+c.Kind.String())
		}
		if strings.Join(got, ", ") != want {
			t.Errorf("%q: columns %q, want %q", src, strings.Join(got, ", "), want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	_, s := callGraph(t)
	bad := []string{
		"",
		"g.",
		"g.V",
		"g.V().has('unterminated",
		"g.V().frobnicate()",
		"g.has(k,1)",           // must start with V/E
		"g.V().has(k, zap(3))", // unknown predicate
		"g.V() trailing",
		"g.V().has(age)",                 // undeclared property
		"g.V().has(cid, 'x')",            // BIGINT compared with TEXT
		"g.V().hasLabel(3)",              // a label is a name
		"g.V().outV()",                   // outV() reads edges
		"g.V().values(cid).has(cid)",     // has() reads vertices or edges
		"g.V().count().out()",            // nothing follows count() but a predicate
		"g.V().values(cid, cid)",         // a key twice
		"g.V().limit(-1)",                // limit is non-negative
		"h.V()",                          // no graph h
		"g.V().where(V())",               // V() only starts a traversal
		"g.V().has(cid, gt(gt(3)))",      // a predicate compares with a literal
		"g.V().inE().count().gt('many')", // a count compares with a number
		"a.b.V()",                        // a graph is named by one word
		"g.V().has(cid, cid + 1)",        // a value is a literal
		"g.V().has(cid 1)",               // arguments are separated by commas
		"g.V().has(cid, 1,)",             // and not followed by one
		"g.V(1e0)",                       // a vertex id is an integer
	}
	for _, src := range bad {
		if _, err := traverse(s, src); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

// TestVertexEdgeTables: a graph is two ordinary cluster tables, readable
// and joinable by plain SQL.
func TestVertexEdgeTables(t *testing.T) {
	g, s := newGraph(t, nil, nil)
	a := mustVertex(t, g, "x", nil)
	b := mustVertex(t, g, "y", nil)
	mustEdge(t, g, a, b, "z", nil)
	res, err := s.Exec("SELECT v.id, v.label, e.label FROM g_edges e JOIN g_vertices v ON e.dst = v.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(b) || res.Rows[0][1].Str() != "y" || res.Rows[0][2].Str() != "z" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEdgeSourceE(t *testing.T) {
	g, s := newGraph(t, nil, nil)
	a := mustVertex(t, g, "n", nil)
	b := mustVertex(t, g, "n", nil)
	mustEdge(t, g, a, b, "e1", nil)
	mustEdge(t, g, b, a, "e2", nil)
	if rows := eval(t, s, "g.E().count()"); rows[0][0].Int() != 2 {
		t.Errorf("E count = %v", rows)
	}
}

// TestExplainShowsGraphTables: a traversal is planned like any query — its
// EXPLAIN shows scans and joins of the graph's tables.
func TestExplainShowsGraphTables(t *testing.T) {
	_, s := callGraph(t)
	res, err := s.Exec("EXPLAIN SELECT * FROM ggraph('g.V().has(cid, 11111).in(call).values(cid)') AS t")
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for _, r := range res.Rows {
		plan.WriteString(r[0].String() + "\n")
	}
	for _, want := range []string{"SCAN(G_VERTICES", "SCAN(G_EDGES", "JOIN("} {
		if !strings.Contains(plan.String(), want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, plan.String())
		}
	}
}
