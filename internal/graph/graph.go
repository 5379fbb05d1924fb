// Package graph is the multi-model database's graph engine (paper §II-B).
// As the paper prescribes, "graphs are represented through tables for
// vertexes and edges": a graph g is two ordinary cluster tables,
//
//	g_vertices (id BIGINT PRIMARY KEY, label TEXT, <vertex properties>) DISTRIBUTE BY HASH(id)
//	g_edges    (src BIGINT, dst BIGINT, label TEXT, <edge properties>) DISTRIBUTE BY HASH(src)
//
// whose property columns are declared when the graph is created, the way a
// GMDB object type declares its fields. Writes are INSERTs through a
// cluster session, so they join its transaction. A Gremlin-subset
// traversal compiles (Compile) into a relational query block over the two
// tables, which the ggraph(...) table expression hands to the SQL planner:
// the traversal runs under the statement's snapshot, through the same
// scans, joins and fabric as any other query (Example 1).
package graph

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// VID identifies a vertex.
type VID int64

// Graph writes one declared graph through a cluster session. Like the
// session, it is not safe for concurrent use.
type Graph struct {
	s      *cluster.Session
	name   string
	vprops []types.Column
	eprops []types.Column
	last   VID // the last vertex id handed out
}

// Create declares graph name with the given vertex and edge property
// columns: it creates name_vertices and name_edges through s, and returns
// the graph that writes them through s.
func Create(s *cluster.Session, name string, vprops, eprops []types.Column) (*Graph, error) {
	if !isIdent(name) {
		return nil, fmt.Errorf("graph: bad graph name %q", name)
	}
	g := &Graph{s: s, name: name, vprops: vprops, eprops: eprops}
	vt := &sqlx.CreateTable{Name: name + "_vertices", PrimaryKey: []string{"id"}, DistKey: "id"}
	et := &sqlx.CreateTable{Name: name + "_edges", DistKey: "src"}
	for _, t := range []struct {
		ct    *sqlx.CreateTable
		fixed []string
		props []types.Column
	}{{vt, vertexCols, vprops}, {et, edgeCols, eprops}} {
		for _, f := range t.fixed {
			kind := types.KindInt
			if f == "label" {
				kind = types.KindString
			}
			t.ct.Columns = append(t.ct.Columns, sqlx.ColumnDef{Name: f, Kind: kind})
		}
		for i, p := range t.props {
			if !isIdent(p.Name) || slices.Contains(t.fixed, p.Name) || slices.ContainsFunc(t.props[:i], func(q types.Column) bool { return q.Name == p.Name }) {
				return nil, fmt.Errorf("graph: bad or repeated property name %q", p.Name)
			}
			t.ct.Columns = append(t.ct.Columns, sqlx.ColumnDef{Name: p.Name, Kind: p.Kind})
		}
	}
	if _, err := s.ExecStmt(vt); err != nil {
		return nil, err
	}
	if _, err := s.ExecStmt(et); err != nil {
		s.ExecStmt(&sqlx.DropTable{Name: vt.Name})
		return nil, err
	}
	return g, nil
}

// AddVertex inserts a vertex and returns its id. Ids are graph-wide and
// ascend in insertion order. Props may be nil; every key must be a declared
// vertex property.
func (g *Graph) AddVertex(label string, props map[string]types.Datum) (VID, error) {
	vals, err := propRow(g.vprops, props)
	if err != nil {
		return 0, err
	}
	g.last++
	id := g.last
	row := append([]sqlx.Expr{lit(types.NewInt(int64(id))), lit(types.NewString(label))}, vals...)
	if _, err := g.s.ExecStmt(&sqlx.Insert{Table: g.name + "_vertices", Rows: [][]sqlx.Expr{row}}); err != nil {
		return 0, err
	}
	return id, nil
}

// AddEdge inserts a directed edge; both endpoints must exist (as the
// session sees them). Every key of props must be a declared edge property.
func (g *Graph) AddEdge(from, to VID, label string, props map[string]types.Datum) error {
	vals, err := propRow(g.eprops, props)
	if err != nil {
		return err
	}
	for _, id := range []VID{from, to} {
		res, err := g.s.ExecStmt(&sqlx.Select{
			Items: []sqlx.SelectItem{{Expr: col("", "id")}},
			From:  []sqlx.TableRef{&sqlx.BaseTable{Name: g.name + "_vertices"}},
			Where: eq(col("", "id"), lit(types.NewInt(int64(id)))),
			Limit: -1,
		})
		if err != nil {
			return err
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("graph: vertex %d does not exist", id)
		}
	}
	row := append([]sqlx.Expr{lit(types.NewInt(int64(from))), lit(types.NewInt(int64(to))), lit(types.NewString(label))}, vals...)
	_, err = g.s.ExecStmt(&sqlx.Insert{Table: g.name + "_edges", Rows: [][]sqlx.Expr{row}})
	return err
}

// propRow lays props out in the declared columns' order; an absent
// property is NULL.
func propRow(decl []types.Column, props map[string]types.Datum) ([]sqlx.Expr, error) {
	for k := range props {
		if !slices.ContainsFunc(decl, func(c types.Column) bool { return c.Name == k }) {
			return nil, fmt.Errorf("graph: property %q is not declared", k)
		}
	}
	row := make([]sqlx.Expr, len(decl))
	for i, c := range decl {
		v, ok := props[c.Name]
		if !ok {
			v = types.Null
		}
		row[i] = lit(v)
	}
	return row, nil
}

// isIdent reports whether s is an ASCII identifier: a letter or '_', then
// letters, digits or '_'.
func isIdent(s string) bool {
	for i, r := range s {
		if !(r == '_' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || i > 0 && '0' <= r && r <= '9') {
			return false
		}
	}
	return s != ""
}
