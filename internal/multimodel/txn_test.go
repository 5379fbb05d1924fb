package multimodel

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/transport"
	"repro/internal/types"
)

// traversalRows runs a ggraph(...) statement on s and returns its rows in
// a canonical order.
func traversalRows(t *testing.T, s *cluster.Session, src string) string {
	t.Helper()
	res := mustExec(t, s, "SELECT * FROM ggraph('"+src+"') AS t")
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// TestTraversalIsTransactional: graph writes are INSERTs in the writing
// session's transaction, and a traversal reads under its statement's
// snapshot. A vertex and an edge written inside an open transaction are
// seen by a traversal in it, by no other session until COMMIT, and by
// nobody after ROLLBACK. And a traversal's rows survive a bucket move of
// the vertices and edges it reads.
func TestTraversalIsTransactional(t *testing.T) {
	db, s1 := newMMDB(t)
	s2 := db.Cluster.NewSession()
	g := newCallGraph(t, s1)
	const (
		edges = "g.V().outE(call).count()"
		calls = "g.V().has(cid, 11111).in(call).values(cid)"
	)
	suspect := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(11111)})

	mustExec(t, s1, "BEGIN")
	caller := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(30000)})
	addEdge(t, g, caller, suspect, "call", map[string]types.Datum{"ts": types.NewInt(20180610)})
	if got := traversalRows(t, s1, calls); got != "[(30000)]" {
		t.Errorf("inside the transaction: %s, want [(30000)]", got)
	}
	if got := traversalRows(t, s2, edges); got != "[(0)]" {
		t.Errorf("another session before COMMIT: %s edges, want [(0)]", got)
	}
	mustExec(t, s1, "COMMIT")
	if got := traversalRows(t, s2, calls); got != "[(30000)]" {
		t.Errorf("another session after COMMIT: %s, want [(30000)]", got)
	}

	mustExec(t, s1, "BEGIN")
	gone := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(30001)})
	addEdge(t, g, gone, suspect, "call", nil)
	if got := traversalRows(t, s1, edges); got != "[(2)]" {
		t.Errorf("inside the second transaction: %s edges, want [(2)]", got)
	}
	mustExec(t, s1, "ROLLBACK")
	for name, s := range map[string]*cluster.Session{"writer": s1, "reader": s2} {
		if got := traversalRows(t, s, calls); got != "[(30000)]" {
			t.Errorf("%s after ROLLBACK: %s, want [(30000)]", name, got)
		}
	}

	// Move the bucket holding the caller and its edge (edges are
	// distributed by src) to another data node.
	for i := 0; i < 6; i++ {
		v := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(int64(40000 + i))})
		addEdge(t, g, v, caller, "call", nil)
		addEdge(t, g, caller, v, "call", nil)
	}
	const hops = "g.V().has(cid, 11111).in(call).both(call).values(cid)"
	before := traversalRows(t, s2, hops)
	bucket := cluster.BucketOf(types.NewInt(int64(caller)))
	owner := db.Cluster.BucketOwners()[bucket]
	if _, err := db.Cluster.MoveBucket(bucket, (owner+1)%db.Cluster.DataNodeCount()); err != nil {
		t.Fatal(err)
	}
	if db.Cluster.BucketOwners()[bucket] == owner {
		t.Fatal("the bucket did not move")
	}
	if after := traversalRows(t, s2, hops); after != before {
		t.Errorf("across the bucket move: %s, before %s", after, before)
	}
	if before == "[]" {
		t.Error("the traversal across the move read nothing")
	}
}

// TestOutStepIsColocatedJoin: edges are distributed by src, so an outE()
// step joins each vertex with its edges on the vertex's own data node. The
// traversal costs the fabric what the same join written in SQL costs.
func TestOutStepIsColocatedJoin(t *testing.T) {
	db, s := newMMDB(t)
	g := newCallGraph(t, s)
	var prev graph.VID
	for i := 0; i < 20; i++ {
		v := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(int64(i))})
		if i > 0 {
			addEdge(t, g, prev, v, "call", nil)
		}
		prev = v
	}
	traffic := func(sql string) (int, transport.Stats) {
		before := db.Cluster.Fabric().Stats()
		res := mustExec(t, s, sql)
		return len(res.Rows), db.Cluster.Fabric().Stats().Sub(before)
	}
	gn, gt := traffic("SELECT * FROM ggraph('g.V().outE()') AS t")
	sn, st := traffic("SELECT e.src, e.dst, e.label FROM g_vertices v, g_edges e WHERE e.src = v.id")
	if gn != 19 || sn != 19 {
		t.Fatalf("rows: traversal %d, SQL %d, want 19", gn, sn)
	}
	if gt != st {
		t.Errorf("fabric traffic: traversal %v, SQL join %v", gt, st)
	}
	if gt.Get(transport.ShufflePart).Count+gt.Get(transport.BcastBuild).Count != 0 {
		t.Errorf("the join moved rows between nodes: %v", gt)
	}
}
