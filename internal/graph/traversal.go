package graph

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// traversal is a parsed Gremlin-subset traversal.
//
// Supported steps: V([id]), E(), hasLabel(l), has(key[, value | pred]),
// out/in/both([label]), outE/inE/bothE([label]), outV()/inV(), values(k...),
// count(), limit(n), dedup(), where(sub-traversal), and the predicates
// eq/neq/gt/gte/lt/lte, inside has() or after count() (count().gt(3)).
type traversal struct {
	// source names the graph traversed: the "g" of g.V(), which may be left
	// out. Its tables are <source>_vertices and <source>_edges.
	source string
	steps  []step
}

// step is one step of a chain.
type step struct {
	name string
	args []arg
	sub  []step // for where()
}

// arg is one parsed argument: a datum literal or a nested predicate call.
type arg struct {
	lit  types.Datum
	pred *predCall
}

type predCall struct {
	name string
	val  types.Datum
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

// parseTraversal reads Gremlin-subset text like
// "g.V().has('kind','person').inE('call').count()" as a call chain
// (sqlx.ParseChain). The leading "g." names the graph and is optional. A
// bare word argument is a string literal (the paper writes has(cid,11111)).
func parseTraversal(src string) (*traversal, error) {
	c, err := sqlx.ParseChain(src)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	t := &traversal{source: "g"}
	switch len(c.Path) {
	case 0:
	case 1:
		t.source = c.Path[0]
	default:
		return nil, fmt.Errorf("graph: %q names no graph", strings.Join(c.Path, "."))
	}
	t.steps, err = steps(c.Steps)
	return t, err
}

func steps(chain []sqlx.Step) ([]step, error) {
	out := make([]step, len(chain))
	for i, st := range chain {
		out[i].name = st.Name
		var err error
		if out[i].sub, err = steps(st.Sub); err != nil {
			return nil, err
		}
		for _, e := range st.Args {
			a, err := argument(st.Name, e)
			if err != nil {
				return nil, err
			}
			out[i].args = append(out[i].args, a)
		}
	}
	return out, nil
}

// argument reads one argument of step: a literal, a bare word or a
// predicate call on one of them.
func argument(step string, e sqlx.Expr) (arg, error) {
	p, isPred := e.(*sqlx.FuncCall)
	if !isPred {
		v, ok := literal(e)
		if !ok {
			return arg{}, fmt.Errorf("graph: %s(): argument %s is not a name, a literal or a predicate", step, e)
		}
		return arg{lit: v}, nil
	}
	if _, ok := predOps[p.Name]; !ok {
		return arg{}, fmt.Errorf("graph: unknown predicate %q", p.Name)
	}
	if len(p.Args) == 1 {
		if v, ok := literal(p.Args[0]); ok {
			return arg{pred: &predCall{name: p.Name, val: v}}, nil
		}
	}
	return arg{}, fmt.Errorf("graph: %s compares with one literal", p)
}

// literal reads a literal argument, a bare word being a string.
func literal(e sqlx.Expr) (types.Datum, bool) {
	switch x := e.(type) {
	case *sqlx.Literal:
		return x.Value, true
	case *sqlx.ColumnRef:
		return types.NewString(x.Column), x.Table == ""
	}
	return types.Null, false
}

// predOps maps each predicate to the SQL comparison it compiles to.
var predOps = map[string]string{
	"eq": sqlx.OpEq, "neq": sqlx.OpNe, "gt": sqlx.OpGt, "gte": sqlx.OpGe, "lt": sqlx.OpLt, "lte": sqlx.OpLe,
}

// ---------------------------------------------------------------------------
// Compilation to a query block
// ---------------------------------------------------------------------------

// Compile parses a ggraph(...) traversal and compiles it into one query
// block over its graph's two tables in cat, for the planner to plan like a
// derived table (plan.Hooks.GGraph). Every step is relational:
//
//   - V() / V(n) / E() scan a table (V(n) with id = n); hasLabel and has
//     are predicates, has(k) being k IS NOT NULL (a NULL property is an
//     absent one).
//   - out / in join the edges on src / dst, then the vertices on the other
//     end; outE / inE stop at the edge and outV / inV join back. both and
//     bothE join a UNION ALL of the two orientations, so a self-loop counts
//     twice.
//   - values(k...) is a select list whose keys are NOT NULL, count() is
//     count(*), and a predicate after it a HAVING.
//   - dedup() and limit(n) wrap the chain so far into a derived table with
//     DISTINCT or LIMIT. dedup compares whole elements: a vertex by its id,
//     an edge (which has no id) by its endpoints, label and properties.
//   - where(sub) is a correlated (SELECT count(*) …) > 0, or … <pred> k when
//     sub ends in count().<pred>(k).
//
// The result columns are (id, label) for vertices, (from, to, label) for
// edges, the keys for values(), and count — value after a predicate — for
// count(). A property the graph did not declare is an error.
func Compile(src string, cat plan.Catalog) (*sqlx.Select, error) {
	t, err := parseTraversal(src)
	if err != nil {
		return nil, err
	}
	c := &compiler{vtab: t.source + "_vertices", etab: t.source + "_edges"}
	if c.vcols, err = graphTable(cat, c.vtab, vertexCols); err != nil {
		return nil, err
	}
	if c.ecols, err = graphTable(cat, c.etab, edgeCols); err != nil {
		return nil, err
	}
	first := t.steps[0]
	b := &block{}
	switch {
	case first.name == "V" && len(first.args) <= 1:
		b.cur, b.kind = c.join(b, c.vtab, "v"), vertex
		if len(first.args) == 1 {
			a := first.args[0]
			if a.pred != nil || a.lit.Kind() != types.KindInt {
				return nil, fmt.Errorf("graph: V() takes one integer vertex id")
			}
			b.where = append(b.where, eq(col(b.cur, "id"), lit(a.lit)))
		}
	case first.name == "E" && len(first.args) == 0:
		b.cur, b.kind = c.join(b, c.etab, "e"), edge
	default:
		return nil, fmt.Errorf("graph: a traversal starts with V([id]) or E(), not %s()", first.name)
	}
	if b, err = c.chain(b, t.steps[1:]); err != nil {
		return nil, err
	}
	return c.query(b), nil
}

// The structural columns every graph table starts with; the properties
// follow them.
var (
	vertexCols = []string{"id", "label"}
	edgeCols   = []string{"src", "dst", "label"}
)

// graphTable resolves one of a graph's tables and returns its columns.
func graphTable(cat plan.Catalog, name string, fixed []string) ([]types.Column, error) {
	meta, err := cat.Resolve(name)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	cols := meta.Schema.Columns
	for i, f := range fixed {
		if i >= len(cols) || !strings.EqualFold(cols[i].Name, f) {
			return nil, fmt.Errorf("graph: %s is not a graph table: its columns must start with %s", name, strings.Join(fixed, ", "))
		}
	}
	return cols, nil
}

// kind is what a block's rows are.
type kind uint8

const (
	vertex kind = iota
	edge
	valueRows // values(k...)
	counted   // count()
)

func (k kind) String() string {
	return [...]string{"vertices", "edges", "values()", "count()"}[k]
}

// accepts lists the kinds of stream each step reads; a step not listed is
// unknown.
var accepts = map[string][]kind{
	"hasLabel": {vertex, edge}, "has": {vertex, edge}, "values": {vertex, edge}, "where": {vertex, edge},
	"out": {vertex}, "in": {vertex}, "both": {vertex}, "outE": {vertex}, "inE": {vertex}, "bothE": {vertex},
	"outV": {edge}, "inV": {edge},
	"count": {vertex, edge, valueRows}, "dedup": {vertex, edge, valueRows}, "limit": {vertex, edge, valueRows},
	"eq": {counted}, "neq": {counted}, "gt": {counted}, "gte": {counted}, "lt": {counted}, "lte": {counted},
}

// block is the query block a chain compiles into: its FROM list and WHERE
// conjuncts, and the alias of the current element. cur may be an enclosing
// block's alias: a where() sub-traversal starts at its caller's element.
type block struct {
	from  []sqlx.TableRef
	where []sqlx.Expr
	cur   string
	kind  kind
	keys  []string   // valueRows: the property columns
	preds []predCall // counted: the predicates the count must pass
}

type compiler struct {
	vtab, etab   string
	vcols, ecols []types.Column // every column of the two tables
	n            int            // aliases handed out
}

func (c *compiler) alias(prefix string) string {
	c.n++
	return prefix + strconv.Itoa(c.n)
}

// join adds table to b's FROM list under a fresh alias and returns it.
func (c *compiler) join(b *block, table, prefix string) string {
	a := c.alias(prefix)
	b.from = append(b.from, &sqlx.BaseTable{Name: table, Alias: a})
	return a
}

func (c *compiler) chain(b *block, steps []step) (*block, error) {
	for _, st := range steps {
		var err error
		if b, err = c.step(b, st); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func (c *compiler) step(b *block, st step) (*block, error) {
	kinds, ok := accepts[st.name]
	if !ok {
		return nil, fmt.Errorf("graph: unknown step %q", st.name)
	}
	if !slices.Contains(kinds, b.kind) {
		return nil, fmt.Errorf("graph: %s() cannot follow %s", st.name, b.kind)
	}
	if _, ok := predOps[st.name]; ok {
		if len(st.args) != 1 || st.args[0].pred != nil || !types.Comparable(types.KindInt, st.args[0].lit.Kind()) {
			return nil, fmt.Errorf("graph: %s() after count() needs one number", st.name)
		}
		b.preds = append(b.preds, predCall{name: st.name, val: st.args[0].lit})
		return b, nil
	}
	switch st.name {
	case "outV", "inV", "count", "dedup":
		if len(st.args) != 0 {
			return nil, fmt.Errorf("graph: %s() takes no arguments", st.name)
		}
	}
	switch st.name {
	case "hasLabel":
		l, err := names(st, 1, 1)
		if err != nil {
			return nil, err
		}
		b.where = append(b.where, eq(col(b.cur, "label"), lit(types.NewString(l[0]))))
	case "has":
		return b, c.has(b, st)
	case "out", "in", "both", "outE", "inE", "bothE":
		l, err := names(st, 0, 1)
		if err != nil {
			return nil, err
		}
		c.adjacent(b, st.name, l)
	case "outV", "inV":
		end := map[string]string{"outV": "src", "inV": "dst"}[st.name]
		v := c.join(b, c.vtab, "v")
		b.where = append(b.where, eq(col(v, "id"), col(b.cur, end)))
		b.cur, b.kind = v, vertex
	case "values":
		keys, err := names(st, 1, -1)
		if err != nil {
			return nil, err
		}
		for _, k := range keys {
			p, err := c.prop(b.kind, k)
			if err != nil {
				return nil, err
			}
			if slices.Contains(b.keys, p.Name) {
				return nil, fmt.Errorf("graph: values() names %s twice", p.Name)
			}
			b.keys = append(b.keys, p.Name)
			b.where = append(b.where, &sqlx.IsNull{Child: col(b.cur, p.Name), Not: true})
		}
		b.kind = valueRows
	case "count":
		b.kind = counted
	case "dedup":
		return c.wrap(b, true, -1), nil
	case "limit":
		if len(st.args) != 1 || st.args[0].pred != nil || st.args[0].lit.Kind() != types.KindInt || st.args[0].lit.Int() < 0 {
			return nil, fmt.Errorf("graph: limit needs a non-negative integer")
		}
		return c.wrap(b, false, st.args[0].lit.Int()), nil
	case "where":
		sub, err := c.chain(&block{cur: b.cur, kind: b.kind}, st.sub)
		if err != nil {
			return nil, err
		}
		if sub.kind != counted {
			sub.kind, sub.preds = counted, []predCall{{name: "gt", val: types.NewInt(0)}}
		}
		// count() with no predicate yields one element: where() passes.
		for _, p := range sub.preds {
			n := &sqlx.Subquery{Query: c.countQuery(sub)}
			b.where = append(b.where, &sqlx.BinaryOp{Op: predOps[p.name], Left: n, Right: lit(p.val)})
		}
	}
	return b, nil
}

// has compiles has(k), has(k, v) and has(k, pred(v)).
func (c *compiler) has(b *block, st step) error {
	if len(st.args) < 1 || len(st.args) > 2 {
		return fmt.Errorf("graph: has needs one or two arguments")
	}
	k, err := name(st, st.args[0])
	if err != nil {
		return err
	}
	p, err := c.prop(b.kind, k)
	if err != nil {
		return err
	}
	if len(st.args) == 1 {
		b.where = append(b.where, &sqlx.IsNull{Child: col(b.cur, p.Name), Not: true})
		return nil
	}
	op, v := sqlx.OpEq, st.args[1].lit
	if pc := st.args[1].pred; pc != nil {
		op, v = predOps[pc.name], pc.val
	}
	if !types.Comparable(p.Kind, v.Kind()) {
		return fmt.Errorf("graph: has(%s, …) compares a %s property with %s", p.Name, p.Kind, v.Kind())
	}
	b.where = append(b.where, &sqlx.BinaryOp{Op: op, Left: col(b.cur, p.Name), Right: lit(v)})
	return nil
}

// adjacent joins the current vertex to its edges, and for out / in / both
// to the vertex at each edge's other end.
func (c *compiler) adjacent(b *block, name string, label []string) {
	e := c.alias("e")
	near, far := "src", "dst"
	var ref sqlx.TableRef = &sqlx.BaseTable{Name: c.etab, Alias: e}
	switch strings.TrimSuffix(name, "E") {
	case "in":
		near, far = far, near
	case "both":
		ref, near, far = c.bothEdges(e), "$near", "$far"
	}
	b.from = append(b.from, ref)
	b.where = append(b.where, eq(col(e, near), col(b.cur, "id")))
	if len(label) == 1 {
		b.where = append(b.where, eq(col(e, "label"), lit(types.NewString(label[0]))))
	}
	if strings.HasSuffix(name, "E") {
		b.cur, b.kind = e, edge
		return
	}
	v := c.join(b, c.vtab, "v")
	b.where = append(b.where, eq(col(v, "id"), col(e, far)))
	b.cur, b.kind = v, vertex
}

// bothEdges is the edges table in both orientations: every edge once with
// $near = src and once with $near = dst, $far being the other end.
func (c *compiler) bothEdges(alias string) sqlx.TableRef {
	arm := func(near, far string) *sqlx.Select {
		return &sqlx.Select{
			Items: []sqlx.SelectItem{{Star: true}, {Expr: col("", near), Alias: "$near"}, {Expr: col("", far), Alias: "$far"}},
			From:  []sqlx.TableRef{&sqlx.BaseTable{Name: c.etab}},
			Limit: -1,
		}
	}
	u := arm("src", "dst")
	u.SetOps = []sqlx.SetOp{{All: true, Query: arm("dst", "src")}}
	return &sqlx.SubqueryRef{Query: u, Alias: alias}
}

// prop resolves a declared property of the current element.
func (c *compiler) prop(k kind, key string) (types.Column, error) {
	cols := c.vcols[len(vertexCols):]
	if k == edge {
		cols = c.ecols[len(edgeCols):]
	}
	for _, p := range cols {
		if strings.EqualFold(p.Name, key) {
			return p, nil
		}
	}
	return types.Column{}, fmt.Errorf("graph: %s have no property %q", k, key)
}

// wrap closes the chain so far into a derived table of whole elements (or
// values() rows), made DISTINCT or cut at limit, and continues from it.
func (c *compiler) wrap(b *block, distinct bool, limit int64) *block {
	var items []sqlx.SelectItem
	switch b.kind {
	case vertex, edge:
		cols := c.vcols
		if b.kind == edge {
			cols = c.ecols
		}
		for _, cl := range cols {
			items = append(items, item(b.cur, cl.Name, cl.Name))
		}
	default:
		for _, k := range b.keys {
			items = append(items, item(b.cur, k, k))
		}
	}
	d := c.alias("d")
	sel := &sqlx.Select{Items: items, From: b.from, Where: and(b.where), Distinct: distinct, Limit: limit}
	return &block{from: []sqlx.TableRef{&sqlx.SubqueryRef{Query: sel, Alias: d}}, cur: d, kind: b.kind, keys: b.keys}
}

// query is the block's result: the traversal's output rows.
func (c *compiler) query(b *block) *sqlx.Select {
	sel := &sqlx.Select{From: b.from, Where: and(b.where), Limit: -1}
	switch b.kind {
	case vertex:
		sel.Items = []sqlx.SelectItem{item(b.cur, "id", "id"), item(b.cur, "label", "label")}
	case edge:
		sel.Items = []sqlx.SelectItem{item(b.cur, "src", "from"), item(b.cur, "dst", "to"), item(b.cur, "label", "label")}
	case valueRows:
		for _, k := range b.keys {
			sel.Items = append(sel.Items, item(b.cur, k, k))
		}
	case counted:
		name := "count"
		if len(b.preds) > 0 {
			name = "value"
		}
		sel.Items = []sqlx.SelectItem{{Expr: countStar(), Alias: name}}
		var having []sqlx.Expr
		for _, p := range b.preds {
			having = append(having, &sqlx.BinaryOp{Op: predOps[p.name], Left: countStar(), Right: lit(p.val)})
		}
		sel.Having = and(having)
	}
	return sel
}

// countQuery counts a sub-traversal's elements.
func (c *compiler) countQuery(b *block) *sqlx.Select {
	return &sqlx.Select{Items: []sqlx.SelectItem{{Expr: countStar()}}, From: b.from, Where: and(b.where), Limit: -1}
}

// names reads a step's arguments as at least min and at most max (-1: any
// number of) label or property names.
func names(st step, min, max int) ([]string, error) {
	if len(st.args) < min || max >= 0 && len(st.args) > max {
		return nil, fmt.Errorf("graph: %s() got %d arguments", st.name, len(st.args))
	}
	out := make([]string, len(st.args))
	for i, a := range st.args {
		var err error
		if out[i], err = name(st, a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// name reads one argument of st as a label or property name.
func name(st step, a arg) (string, error) {
	if a.pred != nil || a.lit.Kind() != types.KindString {
		return "", fmt.Errorf("graph: %s() takes names, not %s", st.name, a.lit.Kind())
	}
	return a.lit.Str(), nil
}

func col(table, name string) *sqlx.ColumnRef { return &sqlx.ColumnRef{Table: table, Column: name} }

func lit(v types.Datum) *sqlx.Literal { return &sqlx.Literal{Value: v} }

func eq(l, r sqlx.Expr) sqlx.Expr { return &sqlx.BinaryOp{Op: sqlx.OpEq, Left: l, Right: r} }

func countStar() *sqlx.FuncCall { return &sqlx.FuncCall{Name: "count", Star: true} }

func item(table, name, as string) sqlx.SelectItem {
	return sqlx.SelectItem{Expr: col(table, name), Alias: as}
}

// and folds conjuncts into one predicate, nil for none.
func and(conjs []sqlx.Expr) sqlx.Expr {
	var out sqlx.Expr
	for _, e := range conjs {
		if out == nil {
			out = e
		} else {
			out = &sqlx.BinaryOp{Op: sqlx.OpAnd, Left: out, Right: e}
		}
	}
	return out
}
