package graph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// This file holds the graph engine the package used to run: an in-memory
// property graph in Go maps and a step-at-a-time evaluator over it. Tests
// use it only as the oracle the compiled traversals are checked against.
// One rule differs from that engine: dedup() keys an edge by its
// properties too (edges carry no id, and the compiled dedup compares whole
// rows).

// memGraph is an in-memory property graph.
type memGraph struct {
	vertices map[VID]*memVertex
	out      map[VID][]*memEdge
	in       map[VID][]*memEdge
	nextID   VID
}

type memVertex struct {
	ID    VID
	Label string
	Props map[string]types.Datum
}

type memEdge struct {
	From, To VID
	Label    string
	Props    map[string]types.Datum
}

func newMemGraph() *memGraph {
	return &memGraph{
		vertices: make(map[VID]*memVertex),
		out:      make(map[VID][]*memEdge),
		in:       make(map[VID][]*memEdge),
		nextID:   1,
	}
}

func (g *memGraph) AddVertex(label string, props map[string]types.Datum) VID {
	id := g.nextID
	g.nextID++
	g.vertices[id] = &memVertex{ID: id, Label: label, Props: props}
	return id
}

func (g *memGraph) AddEdge(from, to VID, label string, props map[string]types.Datum) {
	e := &memEdge{From: from, To: to, Label: label, Props: props}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
}

// allVertices returns vertex ids in insertion (id) order.
func (g *memGraph) allVertices() []VID {
	ids := make([]VID, 0, len(g.vertices))
	for id := range g.vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// elem is one traversal stream element: exactly one field is set.
type elem struct {
	v   *memVertex
	e   *memEdge
	d   types.Datum
	row types.Row
}

// eval runs t over g and returns its rows, as Compile's query shapes them.
func (g *memGraph) eval(t *traversal) ([]types.Row, error) {
	elems, err := g.evalFrom(t.steps, nil)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	for _, e := range elems {
		out = append(out, elemRow(e))
	}
	return out, nil
}

// evalFrom evaluates a step chain; start==nil begins with V() or E() as the
// first step, while a non-nil start element seeds a where() sub-traversal.
func (g *memGraph) evalFrom(steps []step, start *elem) ([]elem, error) {
	var cur []elem
	if start != nil {
		cur = []elem{*start}
	} else if len(steps) == 0 || (steps[0].name != "V" && steps[0].name != "E") {
		return nil, fmt.Errorf("graph: traversal must start with V() or E()")
	}
	for i, st := range steps {
		var err error
		if start == nil && i == 0 {
			cur = g.sourceStep(st)
		} else if cur, err = g.applyStep(st, cur); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (g *memGraph) sourceStep(st step) []elem {
	var out []elem
	if st.name == "V" {
		if len(st.args) == 1 && st.args[0].lit.Kind() == types.KindInt {
			if v, ok := g.vertices[VID(st.args[0].lit.Int())]; ok {
				return []elem{{v: v}}
			}
			return nil
		}
		for _, id := range g.allVertices() {
			out = append(out, elem{v: g.vertices[id]})
		}
		return out
	}
	for _, id := range g.allVertices() {
		for _, e := range g.out[id] {
			out = append(out, elem{e: e})
		}
	}
	return out
}

func (g *memGraph) applyStep(st step, cur []elem) ([]elem, error) {
	switch st.name {
	case "hasLabel":
		label := st.args[0].lit.Str()
		return filterElems(cur, func(e elem) bool {
			if e.v != nil {
				return e.v.Label == label
			}
			return e.e != nil && e.e.Label == label
		}), nil
	case "has":
		key := st.args[0].lit.Str()
		return filterElems(cur, func(e elem) bool {
			v, ok := elemProps(e)[key]
			if !ok || len(st.args) == 1 {
				return ok
			}
			if a := st.args[1]; a.pred != nil {
				return a.pred.matches(v)
			}
			return types.Equal(v, st.args[1].lit)
		}), nil
	case "out", "in", "both", "outE", "inE", "bothE":
		label := ""
		if len(st.args) == 1 {
			label = st.args[0].lit.Str()
		}
		dir, edges := strings.TrimSuffix(st.name, "E"), strings.HasSuffix(st.name, "E")
		var out []elem
		for _, e := range cur {
			if e.v == nil {
				continue
			}
			if dir == "out" || dir == "both" {
				for _, ed := range g.out[e.v.ID] {
					if label == "" || ed.Label == label {
						out = append(out, g.endpoint(ed, ed.To, edges))
					}
				}
			}
			if dir == "in" || dir == "both" {
				for _, ed := range g.in[e.v.ID] {
					if label == "" || ed.Label == label {
						out = append(out, g.endpoint(ed, ed.From, edges))
					}
				}
			}
		}
		return out, nil
	case "outV", "inV":
		var out []elem
		for _, e := range cur {
			if e.e == nil {
				continue
			}
			id := e.e.From
			if st.name == "inV" {
				id = e.e.To
			}
			out = append(out, elem{v: g.vertices[id]})
		}
		return out, nil
	case "values":
		var out []elem
		for _, e := range cur {
			props := elemProps(e)
			row := make(types.Row, len(st.args))
			missing := false
			for i, a := range st.args {
				v, ok := props[a.lit.Str()]
				missing = missing || !ok
				row[i] = v
			}
			if props != nil && !missing {
				out = append(out, elem{row: row})
			}
		}
		return out, nil
	case "count":
		return []elem{{d: types.NewInt(int64(len(cur)))}}, nil
	case "limit":
		if n := int(st.args[0].lit.Int()); n < len(cur) {
			cur = cur[:n]
		}
		return cur, nil
	case "dedup":
		seen := map[string]struct{}{}
		var out []elem
		for _, e := range cur {
			k := elemKey(e)
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				out = append(out, e)
			}
		}
		return out, nil
	case "where":
		var out []elem
		for _, e := range cur {
			e := e
			sub, err := g.evalFrom(st.sub, &e)
			if err != nil {
				return nil, err
			}
			if len(sub) > 0 {
				out = append(out, e)
			}
		}
		return out, nil
	case "eq", "neq", "gt", "gte", "lt", "lte":
		pc := &predCall{name: st.name, val: st.args[0].lit}
		return filterElems(cur, func(e elem) bool { return !e.d.IsNull() && pc.matches(e.d) }), nil
	default:
		return nil, fmt.Errorf("graph: unknown step %q", st.name)
	}
}

// endpoint is the element an adjacency step yields for edge ed: the edge
// itself, or the vertex id at its other end.
func (g *memGraph) endpoint(ed *memEdge, id VID, edges bool) elem {
	if edges {
		return elem{e: ed}
	}
	return elem{v: g.vertices[id]}
}

func (pc *predCall) matches(v types.Datum) bool {
	c, err := types.Compare(v, pc.val)
	if v.IsNull() || err != nil {
		return false
	}
	switch pc.name {
	case "eq":
		return c == 0
	case "neq":
		return c != 0
	case "gt":
		return c > 0
	case "gte":
		return c >= 0
	case "lt":
		return c < 0
	default: // lte
		return c <= 0
	}
}

func filterElems(in []elem, keep func(elem) bool) []elem {
	var out []elem
	for _, e := range in {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

func elemProps(e elem) map[string]types.Datum {
	if e.v != nil {
		return e.v.Props
	}
	if e.e != nil {
		return e.e.Props
	}
	return nil
}

func elemKey(e elem) string {
	switch {
	case e.v != nil:
		return fmt.Sprintf("v%d", e.v.ID)
	case e.e != nil:
		keys := make([]string, 0, len(e.e.Props))
		for k, v := range e.e.Props {
			keys = append(keys, k+"="+v.String())
		}
		sort.Strings(keys)
		return fmt.Sprintf("e%d-%d-%s-%v", e.e.From, e.e.To, e.e.Label, keys)
	case e.row != nil:
		return "r" + e.row.String()
	default:
		return "d" + e.d.String()
	}
}

// elemRow converts one stream element to a result row.
func elemRow(e elem) types.Row {
	switch {
	case e.row != nil:
		return e.row
	case e.v != nil:
		return types.Row{types.NewInt(int64(e.v.ID)), types.NewString(e.v.Label)}
	case e.e != nil:
		return types.Row{types.NewInt(int64(e.e.From)), types.NewInt(int64(e.e.To)), types.NewString(e.e.Label)}
	default:
		return types.Row{e.d}
	}
}
