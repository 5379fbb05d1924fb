package graph

import (
	"testing"

	"repro/internal/sqlx"
	"repro/internal/types"
)

// FuzzTraversal: a ggraph(...) traversal arrives inside client SQL, so
// parsing and compiling any text must never panic. A text that parses as a
// call chain either compiles to a statement the planner accepts, or returns
// an error.
func FuzzTraversal(f *testing.F) {
	for _, seed := range []string{
		"g.V().count()",
		"g.V().hasLabel('person').has('cid', 11111).count()",
		"g.V().has(cid, 11111).values(phone)",
		"g.V().has(cid,11111).inE(call).has(ts, gt(20180131)).count().gt(3)",
		"g.V().hasLabel(person).where(inE(call).has(ts, gt(20180601)).count().gt(3)).values(cid)",
		"g.V().has(k,2).inE().outV().values(k)",
		"g.V().hasLabel(hub).out(e).dedup().count()",
		"g.V().has(kind,'person').out(knows).count()",
		"g.V().both(self).bothE().dedup().limit(2)",
		"g.E().where(outV().both(x).dedup().values(cid)).count()",
		"V(1)",
		"g.V()",
		"g.V(1)",
		"g.V().has(cid, gt(gt(3)))",
		"g.V().values(cid, cid)",
		"g.V().has('phone', 'O''Brien').values(cid)",
		"g.V().has(cid, 1e3).in(call).where(in(call).values(limit)).limit(2).values(limit)",
		"g.V().has(limit, gt(-2)).count().lt(1.5)",
		`g.V().has("kind", neq(''))`,
	} {
		f.Add(seed)
	}
	c, s := newCluster(f)
	g, err := Create(s, "g", []types.Column{intCol("cid"), textCol("phone"), textCol("kind"), intCol("limit")}, []types.Column{intCol("ts")})
	if err != nil {
		f.Fatal(err)
	}
	a, _ := g.AddVertex("person", map[string]types.Datum{"cid": types.NewInt(11111)})
	b, _ := g.AddVertex("person", nil)
	if err := g.AddEdge(a, b, "call", map[string]types.Datum{"ts": types.NewInt(20180610)}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := sqlx.ParseChain(src); err != nil {
			return
		}
		sel, err := Compile(src, c)
		if err != nil {
			return
		}
		if _, err := s.ExecStmt(&sqlx.Explain{Stmt: sel}); err != nil {
			t.Fatalf("%q compiles to a statement the planner refuses: %v\n%s", src, err, sel)
		}
	})
}
