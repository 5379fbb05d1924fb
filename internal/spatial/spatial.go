// Package spatial is the multi-model database's spatial engine (paper
// §II-B): bounding-box, radius and k-nearest-neighbour queries over planar
// points — the spatial primitives the paper's autonomous-vehicle scenario
// needs (GPS positions of cars, junction locations). Points are rows of an
// ordinary cluster table with columns id BIGINT, x DOUBLE and y DOUBLE. A
// query compiles (Compile) into a query block over that table, which the
// gspatial(...) table expression hands to the SQL planner: the query runs
// under the statement's snapshot, its predicate and top-k in the data
// nodes' scan fragments, like any other scan.
package spatial

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// query is a parsed gspatial(...) argument: <table>.<fn>(<args>).
type query struct {
	table, fn string
	args      []float64
}

// arity is the number of arguments each query function takes.
var arity = map[string]int{"bbox": 4, "radius": 3, "nearest": 3}

// parseQuery reads text like "fleet.nearest(42, 0, 3)" as a call chain
// (sqlx.ParseChain) and checks it: one call of a known function on a
// table, every argument a number literal (which SQL's lexer keeps finite),
// a radius non-negative and k a non-negative integer.
func parseQuery(src string) (*query, error) {
	c, err := sqlx.ParseChain(src)
	if err == nil && len(c.Steps) != 1 {
		err = fmt.Errorf("%d calls", len(c.Steps))
	}
	if err != nil {
		return nil, fmt.Errorf("spatial: %q is not <table>.<function>(<arguments>): %w", src, err)
	}
	st := c.Steps[0]
	q := &query{table: strings.Join(c.Path, "."), fn: strings.ToLower(st.Name)}
	if q.table == "" {
		return nil, fmt.Errorf("spatial: %q names no table: write <table>.%s(...)", src, st.Name)
	}
	n, ok := arity[q.fn]
	if !ok {
		return nil, fmt.Errorf("spatial: unknown function %q (want bbox, radius or nearest)", q.fn)
	}
	if len(st.Args) != n {
		return nil, fmt.Errorf("spatial: %s() takes %d arguments, got %d", q.fn, n, len(st.Args))
	}
	for i, a := range st.Args {
		l, ok := a.(*sqlx.Literal)
		if !ok || l.Value.Kind() != types.KindInt && l.Value.Kind() != types.KindFloat {
			return nil, fmt.Errorf("spatial: %s(): argument %d (%s) is not a number", q.fn, i+1, a)
		}
		q.args = append(q.args, l.Value.Float())
	}
	switch last := q.args[n-1]; {
	case q.fn == "radius" && last < 0:
		return nil, fmt.Errorf("spatial: radius(): the radius %g is negative", last)
	case q.fn == "nearest" && (last < 0 || last != math.Trunc(last) || last >= 1<<63):
		return nil, fmt.Errorf("spatial: nearest(): k = %g is not a non-negative integer", last)
	}
	return q, nil
}

// Compile parses a gspatial(...) query and compiles it into one query block
// over the points table it names in cat, for the planner to plan like a
// derived table (plan.Hooks.GSpatial). Its rows are (id, x, y); with d² =
// (x-qx)*(x-qx) + (y-qy)*(y-qy):
//
//   - t.bbox(x0, y0, x1, y1) keeps x0 <= x <= x1 and y0 <= y <= y1, ordered
//     by id.
//   - t.radius(qx, qy, r) keeps d² <= r*r, ordered by d², then id.
//   - t.nearest(qx, qy, k) keeps the first k rows by d², then id, of those
//     whose x and y are not NULL.
//
// A row with a NULL x or y matches no query. The table must have columns
// id BIGINT, x DOUBLE and y DOUBLE; any others are not read.
func Compile(src string, cat plan.Catalog) (*sqlx.Select, error) {
	q, err := parseQuery(src)
	if err != nil {
		return nil, err
	}
	meta, err := cat.Resolve(q.table)
	if err != nil {
		return nil, fmt.Errorf("spatial: %w", err)
	}
	for _, want := range pointCols {
		i := meta.Schema.ColumnIndex(want.Name)
		if i < 0 {
			return nil, fmt.Errorf("spatial: table %s has no column %s", q.table, want.Name)
		}
		if k := meta.Schema.Columns[i].Kind; k != want.Kind {
			return nil, fmt.Errorf("spatial: %s.%s is %s, want %s", q.table, want.Name, k, want.Kind)
		}
	}
	sel := &sqlx.Select{From: []sqlx.TableRef{&sqlx.BaseTable{Name: q.table}}, Limit: -1}
	for _, c := range pointCols {
		sel.Items = append(sel.Items, sqlx.SelectItem{Expr: col(c.Name)})
	}
	a := q.args
	byDistance := []sqlx.OrderItem{{Expr: dist2(a[0], a[1])}, {Expr: col("id")}}
	switch q.fn {
	case "bbox":
		sel.Where = and(cmp(sqlx.OpGe, "x", a[0]), cmp(sqlx.OpGe, "y", a[1]), cmp(sqlx.OpLe, "x", a[2]), cmp(sqlx.OpLe, "y", a[3]))
		sel.OrderBy = []sqlx.OrderItem{{Expr: col("id")}}
	case "radius":
		sel.Where = &sqlx.BinaryOp{Op: sqlx.OpLe, Left: dist2(a[0], a[1]), Right: lit(a[2] * a[2])}
		sel.OrderBy = byDistance
	case "nearest":
		sel.Where = and(&sqlx.IsNull{Child: col("x"), Not: true}, &sqlx.IsNull{Child: col("y"), Not: true})
		sel.OrderBy = byDistance
		sel.Limit = int64(a[2])
	}
	return sel, nil
}

// pointCols are the columns a points table must have, and a query's rows.
var pointCols = []types.Column{{Name: "id", Kind: types.KindInt}, {Name: "x", Kind: types.KindFloat}, {Name: "y", Kind: types.KindFloat}}

// dist2 is the squared distance of a row's point from (qx, qy).
func dist2(qx, qy float64) sqlx.Expr {
	sq := func(name string, q float64) sqlx.Expr {
		d := func() sqlx.Expr { return &sqlx.BinaryOp{Op: sqlx.OpSub, Left: col(name), Right: lit(q)} }
		return &sqlx.BinaryOp{Op: sqlx.OpMul, Left: d(), Right: d()}
	}
	return &sqlx.BinaryOp{Op: sqlx.OpAdd, Left: sq("x", qx), Right: sq("y", qy)}
}

func col(name string) *sqlx.ColumnRef { return &sqlx.ColumnRef{Column: name} }

func lit(f float64) *sqlx.Literal { return &sqlx.Literal{Value: types.NewFloat(f)} }

func cmp(op, name string, f float64) sqlx.Expr {
	return &sqlx.BinaryOp{Op: op, Left: col(name), Right: lit(f)}
}

func and(conjs ...sqlx.Expr) sqlx.Expr {
	out := conjs[0]
	for _, e := range conjs[1:] {
		out = &sqlx.BinaryOp{Op: sqlx.OpAnd, Left: out, Right: e}
	}
	return out
}
