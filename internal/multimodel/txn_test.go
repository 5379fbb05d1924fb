package multimodel

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/sqlx"
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
	c, s1 := newMMDB(t)
	s2 := c.NewSession()
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
	owner := c.BucketOwners()[bucket]
	if _, err := c.MoveBucket(bucket, (owner+1)%c.DataNodeCount()); err != nil {
		t.Fatal(err)
	}
	if c.BucketOwners()[bucket] == owner {
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
	c, s := newMMDB(t)
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
		before := c.Fabric().Stats()
		res := mustExec(t, s, sql)
		return len(res.Rows), c.Fabric().Stats().Sub(before)
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

// spatialRows runs a gspatial(...) statement on s and returns its rows in
// the order they came.
func spatialRows(t *testing.T, s *cluster.Session, src string) string {
	t.Helper()
	return fmt.Sprint(mustExec(t, s, "SELECT * FROM gspatial('"+src+"') AS p").Rows)
}

// TestSpatialIsTransactional: points are rows of a cluster table, and a
// gspatial query reads under its statement's snapshot. A point inserted
// inside an open transaction is seen by a query in it, by no other session
// until COMMIT, and by nobody after ROLLBACK; an UPDATE moves a point; and
// a query's rows survive a bucket move of the points it reads.
func TestSpatialIsTransactional(t *testing.T) {
	c, s1 := newMMDB(t)
	s2 := c.NewSession()
	newPoints(t, s1, "pts")
	mustExec(t, s1, "INSERT INTO pts VALUES (1, 0.0, 0.0)")
	const near = "pts.nearest(10, 10, 5)"

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "INSERT INTO pts VALUES (2, 9.0, 9.0)")
	if got := spatialRows(t, s1, near); got != "[(2, 9, 9) (1, 0, 0)]" {
		t.Errorf("inside the transaction: %s", got)
	}
	if got := spatialRows(t, s2, near); got != "[(1, 0, 0)]" {
		t.Errorf("another session before COMMIT: %s", got)
	}
	mustExec(t, s1, "COMMIT")
	if got := spatialRows(t, s2, near); got != "[(2, 9, 9) (1, 0, 0)]" {
		t.Errorf("another session after COMMIT: %s", got)
	}

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "INSERT INTO pts VALUES (3, 10.0, 10.0)")
	if got := spatialRows(t, s1, "pts.radius(10, 10, 0)"); got != "[(3, 10, 10)]" {
		t.Errorf("inside the second transaction: %s", got)
	}
	mustExec(t, s1, "ROLLBACK")
	for name, s := range map[string]*cluster.Session{"writer": s1, "reader": s2} {
		if got := spatialRows(t, s, near); got != "[(2, 9, 9) (1, 0, 0)]" {
			t.Errorf("%s after ROLLBACK: %s", name, got)
		}
	}

	mustExec(t, s1, "UPDATE pts SET x = 20.0, y = 20.0 WHERE id = 2")
	if got := spatialRows(t, s2, "pts.bbox(5, 5, 15, 15)"); got != "[]" {
		t.Errorf("the moved point is still at its old place: %s", got)
	}
	if got := spatialRows(t, s2, "pts.radius(20, 20, 1)"); got != "[(2, 20, 20)]" {
		t.Errorf("the moved point is not at its new place: %s", got)
	}

	// Move the bucket holding point 2 to another data node.
	for i := 10; i < 30; i++ {
		mustExec(t, s1, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.0, %d.5)", i, i, 30-i))
	}
	before := spatialRows(t, s2, "pts.radius(20, 20, 10)")
	bucket := cluster.BucketOf(types.NewInt(2))
	owner := c.BucketOwners()[bucket]
	if _, err := c.MoveBucket(bucket, (owner+1)%c.DataNodeCount()); err != nil {
		t.Fatal(err)
	}
	if c.BucketOwners()[bucket] == owner {
		t.Fatal("the bucket did not move")
	}
	if after := spatialRows(t, s2, "pts.radius(20, 20, 10)"); after != before {
		t.Errorf("across the bucket move: %s, before %s", after, before)
	}
	if !strings.HasPrefix(before, "[(2, 20, 20)") {
		t.Errorf("the query across the move does not start at the moved point: %s", before)
	}
}

// TestGSpatialIsScatterRead: a gspatial statement routes as a scatter read
// of its table, so each query costs the fabric exactly what the same SQL
// over the table costs, its predicate and top-k in the scan fragments.
func TestGSpatialIsScatterRead(t *testing.T) {
	c, s := newMMDB(t)
	newPoints(t, s, "pts")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.0, 0.0)", i, i*10))
	}
	traffic := func(sql string) (string, transport.Stats) {
		before := c.Fabric().Stats()
		res := mustExec(t, s, sql)
		return fmt.Sprint(res.Rows), c.Fabric().Stats().Sub(before)
	}
	for _, tc := range []struct{ src, sql string }{
		{"pts.bbox(0, -1, 25, 1)", "SELECT id, x, y FROM pts WHERE x >= 0.0 AND y >= -1.0 AND x <= 25.0 AND y <= 1.0 ORDER BY id"},
		{"pts.radius(50, 0, 15)", "SELECT id, x, y FROM pts WHERE (x - 50.0) * (x - 50.0) + (y - 0.0) * (y - 0.0) <= 225.0 ORDER BY (x - 50.0) * (x - 50.0) + (y - 0.0) * (y - 0.0), id"},
		{"pts.nearest(42, 0, 3)", "SELECT id, x, y FROM pts WHERE x IS NOT NULL AND y IS NOT NULL ORDER BY (x - 42.0) * (x - 42.0) + (y - 0.0) * (y - 0.0), id LIMIT 3"},
	} {
		gr, gt := traffic("SELECT * FROM gspatial('" + tc.src + "') AS p")
		sr, st := traffic(tc.sql)
		if gr != sr || gr == "[]" {
			t.Errorf("%s: rows %s, SQL %s", tc.src, gr, sr)
		}
		if gt != st || gt.Get(transport.ScanFrag).Count == 0 {
			t.Errorf("%s: fabric traffic %v, SQL %v", tc.src, gt, st)
		}
		t.Logf("%s: %d fabric messages, %d bytes", tc.src, gt.Total(), gt.TotalBytes())
	}
}

// TestLiteralGGraphReadsLaterWrites: a literal ggraph statement keeps its
// plan across executions on one handle, and each execution reads the graph
// tables as of its own snapshot — a vertex written between two executions is
// in the second one's answer. (gspatial's case, with a stand-in ggraph
// compiler, is in cluster's TestCompiledTableFunctionsRouteAsScatterReads.)
func TestLiteralGGraphReadsLaterWrites(t *testing.T) {
	_, s := newMMDB(t)
	g := newCallGraph(t, s)
	stmt, err := sqlx.Parse("SELECT count(*) FROM ggraph('g.V().hasLabel(person)') AS v")
	if err != nil {
		t.Fatal(err)
	}
	p := s.Prepare(stmt)
	count := func() int64 {
		res, err := p.Exec(nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	first := count()
	addVertex(t, g, "person", nil)
	if second := count(); first != 0 || second != 1 {
		t.Errorf("%d persons, then %d after adding one, want 0 then 1", first, second)
	}
}

// seriesRows runs SELECT value, carid FROM gtimeseries(<inner>) on s and
// returns its rows in the order they came.
func seriesRows(t *testing.T, s *cluster.Session, inner string) string {
	t.Helper()
	return fmt.Sprint(mustExec(t, s, "SELECT value, carid FROM gtimeseries("+inner+") AS g").Rows)
}

// TestTimeSeriesIsTransactional: a series is a cluster table, and
// gtimeseries reads it under its statement's snapshot. A sample inserted
// inside an open transaction is seen by a read in it, by no other session
// until COMMIT, and by nobody after ROLLBACK; a retention DELETE is a write
// like any other; and a read's rows survive a bucket move of the samples.
func TestTimeSeriesIsTransactional(t *testing.T) {
	c, s1 := newMMDB(t)
	s2 := c.NewSession()
	newSeries(t, s1, "speed", "carid")
	addSamples(t, s1, "speed", sample{fixedNow.Add(-2 * time.Minute), 100, []string{"car1"}})
	const (
		recent = "SELECT ts, value, carid FROM speed WHERE now() - ts < INTERVAL '1 hour'"
		count  = "SELECT count(*) FROM speed"
	)

	mustExec(t, s1, "BEGIN")
	addSamples(t, s1, "speed", sample{fixedNow.Add(-time.Minute), 110, []string{"car2"}})
	if got := seriesRows(t, s1, recent); got != "[(100, car1) (110, car2)]" {
		t.Errorf("inside the transaction: %s", got)
	}
	if got := seriesRows(t, s2, recent); got != "[(100, car1)]" {
		t.Errorf("another session before COMMIT: %s", got)
	}
	mustExec(t, s1, "COMMIT")
	if got := seriesRows(t, s2, recent); got != "[(100, car1) (110, car2)]" {
		t.Errorf("another session after COMMIT: %s", got)
	}

	mustExec(t, s1, "BEGIN")
	addSamples(t, s1, "speed", sample{fixedNow, 120, []string{"car3"}})
	if got := seriesRows(t, s1, recent); got != "[(100, car1) (110, car2) (120, car3)]" {
		t.Errorf("inside the second transaction: %s", got)
	}
	mustExec(t, s1, "ROLLBACK")
	for name, s := range map[string]*cluster.Session{"writer": s1, "reader": s2} {
		if got := seriesRows(t, s, recent); got != "[(100, car1) (110, car2)]" {
			t.Errorf("%s after ROLLBACK: %s", name, got)
		}
	}

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "DELETE FROM speed WHERE now() - ts > INTERVAL '90 seconds'")
	if got := seriesRows(t, s2, recent); got != "[(100, car1) (110, car2)]" {
		t.Errorf("another session before the retention DELETE commits: %s", got)
	}
	mustExec(t, s1, "COMMIT")
	if got := seriesRows(t, s2, recent); got != "[(110, car2)]" {
		t.Errorf("after the retention DELETE: %s", got)
	}

	// Move the bucket holding car2's samples to another data node.
	for i := 0; i < 20; i++ {
		addSamples(t, s1, "speed", sample{fixedNow.Add(-time.Duration(i) * time.Second), float64(i), []string{fmt.Sprintf("car%d", i%4)}})
	}
	before := seriesRows(t, s2, recent)
	bucket := cluster.BucketOf(types.NewString("car2"))
	owner := c.BucketOwners()[bucket]
	if _, err := c.MoveBucket(bucket, (owner+1)%c.DataNodeCount()); err != nil {
		t.Fatal(err)
	}
	if c.BucketOwners()[bucket] == owner {
		t.Fatal("the bucket did not move")
	}
	if after := seriesRows(t, s2, recent); after != before {
		t.Errorf("across the bucket move: %s, before %s", after, before)
	}
	if !strings.HasPrefix(before, "[(110, car2) (19, car3)") || mustExec(t, s2, count).Rows[0][0].Int() != 21 {
		t.Errorf("the read across the move: %s", before)
	}
}

// TestGTimeseriesIsScatterRead: gtimeseries routes and runs as its inner
// query, so each call costs the fabric exactly what that query costs run
// alone — a scatter read of the series table, or one shard when the query
// pins the distribution key — and its time-range predicate runs in the scan
// fragments, so a narrow window ships fewer bytes than the whole series.
func TestGTimeseriesIsScatterRead(t *testing.T) {
	c, s := newMMDB(t)
	newSeries(t, s, "speed", "carid")
	var pts []sample
	for i := 0; i < 60; i++ {
		pts = append(pts, sample{fixedNow.Add(-time.Duration(i) * time.Minute), float64(i), []string{fmt.Sprintf("car%d", i%6)}})
	}
	addSamples(t, s, "speed", pts...)
	traffic := func(sql string) (string, transport.Stats) {
		before := c.Fabric().Stats()
		res := mustExec(t, s, sql)
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = r.String()
		}
		sort.Strings(rows)
		return fmt.Sprint(rows), c.Fabric().Stats().Sub(before)
	}
	var costs []transport.Stats
	for _, inner := range []string{
		"SELECT ts, value, carid FROM speed WHERE now() - ts < INTERVAL '10 minutes'",
		"SELECT ts, value, carid FROM speed",
		"SELECT ts, value FROM speed WHERE carid = 'car1'",
	} {
		gr, gt := traffic("SELECT * FROM gtimeseries(" + inner + ") AS g")
		sr, st := traffic(inner)
		if gr != sr || gr == "[]" {
			t.Errorf("%s: rows %s, alone %s", inner, gr, sr)
		}
		if gt != st || gt.Get(transport.ScanFrag).Count == 0 {
			t.Errorf("%s: fabric traffic %v, alone %v", inner, gt, st)
		}
		t.Logf("%s: %d fabric messages, %d bytes", inner, gt.Total(), gt.TotalBytes())
		costs = append(costs, gt)
	}
	if window, whole := costs[0].TotalBytes(), costs[1].TotalBytes(); window >= whole {
		t.Errorf("a 10-minute window moved %d bytes, the whole series %d", window, whole)
	}
}
