package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

// twin writes every vertex and edge to a cluster graph and to the oracle's
// map graph alike.
type twin struct {
	t *testing.T
	g *Graph
	m *memGraph
}

func (w *twin) vertex(label string, props map[string]types.Datum) VID {
	id := mustVertex(w.t, w.g, label, props)
	if mid := w.m.AddVertex(label, props); mid != id {
		w.t.Fatalf("vertex ids diverge: %d vs oracle %d", id, mid)
	}
	return id
}

func (w *twin) edge(from, to VID, label string, props map[string]types.Datum) {
	mustEdge(w.t, w.g, from, to, label, props)
	w.m.AddEdge(from, to, label, props)
}

// someProps keeps each candidate property with probability 2/3: a property
// left out is NULL in the tables and absent in the oracle.
func someProps(rng *rand.Rand, cands map[string]types.Datum) map[string]types.Datum {
	keys := make([]string, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Strings(keys) // draw in a fixed order: a seed is one graph
	out := map[string]types.Datum{}
	for _, k := range keys {
		if rng.Intn(3) > 0 {
			out[k] = cands[k]
		}
	}
	return out
}

// randomGraph builds a small property graph: three vertex labels, vertices
// with and without each property, two edge labels, self-loops and
// parallel edges.
func randomGraph(t *testing.T, rng *rand.Rand) (*twin, func(string) ([]types.Row, error)) {
	g, s := newGraph(t,
		[]types.Column{intCol("p"), textCol("q"), {Name: "f", Kind: types.KindFloat}},
		[]types.Column{intCol("ts"), textCol("q")})
	w := &twin{t: t, g: g, m: newMemGraph()}
	n := 5 + rng.Intn(6)
	var ids []VID
	for i := 0; i < n; i++ {
		ids = append(ids, w.vertex(string(rune('a'+rng.Intn(3))), someProps(rng, map[string]types.Datum{
			"p": types.NewInt(int64(rng.Intn(4))),
			"q": types.NewString(string(rune('r' + rng.Intn(3)))),
			"f": types.NewFloat(float64(rng.Intn(3)) + 0.5),
		})))
	}
	edge := func(from, to VID) {
		w.edge(from, to, string(rune('x'+rng.Intn(2))), someProps(rng, map[string]types.Datum{
			"ts": types.NewInt(int64(rng.Intn(10))),
			"q":  types.NewString(string(rune('r' + rng.Intn(3)))),
		}))
	}
	for i := 2*n + rng.Intn(n); i > 0; i-- {
		edge(ids[rng.Intn(n)], ids[rng.Intn(n)])
	}
	for i := 0; i < 2; i++ {
		v := ids[rng.Intn(n)]
		edge(v, v) // a self-loop
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		edge(a, b)
		edge(a, b) // parallel edges
	}
	return w, func(src string) ([]types.Row, error) {
		res, err := traverse(s, src)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// chainGen writes random step chains over every supported step.
type chainGen struct{ rng *rand.Rand }

func (cg chainGen) pick(opts ...string) string { return opts[cg.rng.Intn(len(opts))] }

func (cg chainGen) pred() string {
	return fmt.Sprintf("%s(%d)", cg.pick("eq", "neq", "gt", "gte", "lt", "lte"), cg.rng.Intn(4))
}

// filter is a has / hasLabel step on a vertex (edge false) or edge stream;
// a vertex's numeric property may be the DOUBLE f, compared with integers.
func (cg chainGen) filter(edge bool) string {
	labels, intProp := []string{"a", "b", "c"}, cg.pick("p", "f")
	if edge {
		labels, intProp = []string{"x", "y"}, "ts"
	}
	switch cg.rng.Intn(5) {
	case 0:
		return "hasLabel(" + cg.pick(labels...) + ")"
	case 1:
		return "has(" + cg.pick(intProp, "q") + ")"
	case 2:
		return fmt.Sprintf("has(%s, %d)", intProp, cg.rng.Intn(4))
	case 3:
		return "has(q, '" + cg.pick("r", "s", "t") + "')"
	default:
		return "has(" + intProp + ", " + cg.pred() + ")"
	}
}

// steps writes up to n element steps starting on a vertex (edge false) or
// edge stream and reports the stream it ends on. depth bounds where()
// nesting.
func (cg chainGen) steps(n int, edge bool, depth int) ([]string, bool) {
	var out []string
	for i := 0; i < n; i++ {
		switch r := cg.rng.Intn(10); {
		case r < 4 && !edge:
			st := cg.pick("out", "in", "both", "outE", "inE", "bothE")
			out = append(out, st+"("+cg.pick("", "x", "y")+")")
			edge = strings.HasSuffix(st, "E")
		case r < 4:
			out = append(out, cg.pick("outV()", "inV()"))
			edge = false
		case r < 5:
			out = append(out, "dedup()")
		case r < 7 && depth > 0:
			out = append(out, "where("+cg.sub(edge, depth-1)+")")
		default:
			out = append(out, cg.filter(edge))
		}
	}
	return out, edge
}

// sub writes a where() sub-traversal: element steps ending in an element,
// values(), count().<pred>, or a limit counted against a predicate (a
// count after a limit does not depend on order).
func (cg chainGen) sub(edge bool, depth int) string {
	steps, edge := cg.steps(1+cg.rng.Intn(3), edge, depth)
	switch cg.rng.Intn(4) {
	case 0:
		steps = append(steps, "count()."+cg.pred())
	case 1:
		steps = append(steps, fmt.Sprintf("limit(%d).count().%s", cg.rng.Intn(3), cg.pred()))
	case 2:
		steps = append(steps, "values("+cg.pick("q", map[bool]string{false: "p", true: "ts"}[edge])+")")
	}
	return strings.Join(steps, ".")
}

// chain writes a whole traversal and reports the limit it ends with (-1:
// none).
func (cg chainGen) chain() (string, int) {
	start, edge := cg.pick("V()", "V()", "V()", fmt.Sprintf("V(%d)", 1+cg.rng.Intn(8)), "E()"), false
	edge = start == "E()"
	steps, edge := cg.steps(cg.rng.Intn(5), edge, 2)
	steps = append([]string{"g." + start}, steps...)
	prop := map[bool]string{false: cg.pick("p", "f"), true: "ts"}[edge]
	limit := -1
	switch cg.rng.Intn(7) {
	case 0:
		steps = append(steps, "values("+prop+")")
	case 1:
		steps = append(steps, "values(q, "+prop+").dedup()")
	case 2:
		steps = append(steps, "count()")
	case 3:
		steps = append(steps, "count()."+cg.pred())
	case 4:
		steps = append(steps, "values(q).count()")
	case 5:
		limit = cg.rng.Intn(4)
		steps = append(steps, fmt.Sprintf("limit(%d)", limit))
	}
	return strings.Join(steps, "."), limit
}

func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// subMultiset reports whether every row of a is in b, as often.
func subMultiset(a, b []string) bool {
	have := map[string]int{}
	for _, r := range b {
		have[r]++
	}
	for _, r := range a {
		if have[r]--; have[r] < 0 {
			return false
		}
	}
	return true
}

// TestDifferentialTraversals runs random step chains over random small
// property graphs as compiled statements on the cluster and through the
// map-graph oracle: the two multisets of rows must be equal. A chain ending
// in limit(n) depends on order, so there the statement must return as many
// rows as the oracle, all of them rows the chain yields without the limit.
func TestDifferentialTraversals(t *testing.T) {
	chains, nonEmpty := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, run := randomGraph(t, rng)
		cg := chainGen{rng}
		for i := 0; i < 60; i++ {
			src, limit := cg.chain()
			tr, err := parseTraversal(src)
			if err != nil {
				t.Fatalf("seed %d: parse %q: %v", seed, src, err)
			}
			want, err := w.m.eval(tr)
			if err != nil {
				t.Fatalf("seed %d: oracle %q: %v", seed, src, err)
			}
			rows, err := run(src)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, src, err)
			}
			got, exp := rowStrings(rows), rowStrings(want)
			if limit >= 0 {
				unlimited, err := w.m.eval(&traversal{source: tr.source, steps: tr.steps[:len(tr.steps)-1]})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(exp) || !subMultiset(got, rowStrings(unlimited)) {
					t.Fatalf("seed %d: %q:\n got %v\nwant %d of %v", seed, src, got, len(exp), rowStrings(unlimited))
				}
			} else if strings.Join(got, "|") != strings.Join(exp, "|") {
				t.Fatalf("seed %d: %q:\n got %v\nwant %v", seed, src, got, exp)
			}
			chains++
			if len(rows) > 0 {
				nonEmpty++
			}
		}
	}
	t.Logf("%d chains agree with the oracle, %d of them answering rows", chains, nonEmpty)
}
