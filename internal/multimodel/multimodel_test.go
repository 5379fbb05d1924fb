package multimodel

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/tseries"
	"repro/internal/types"
)

// fixedNow is the deterministic statement clock for all tests.
var fixedNow = time.Unix(1_700_000_000, 0).UTC()

func newMMDB(t *testing.T) (*DB, *cluster.Session) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	c.Clock = func() time.Time { return fixedNow }
	db := Attach(c, tseries.NewStore())
	return db, c.NewSession()
}

// newCallGraph declares graph g, persons with a cid and calls with a ts,
// written through s.
func newCallGraph(t *testing.T, s *cluster.Session) *graph.Graph {
	t.Helper()
	g, err := graph.Create(s, "g",
		[]types.Column{{Name: "cid", Kind: types.KindInt}, {Name: "phone", Kind: types.KindString}},
		[]types.Column{{Name: "ts", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func addVertex(t *testing.T, g *graph.Graph, label string, props map[string]types.Datum) graph.VID {
	t.Helper()
	id, err := g.AddVertex(label, props)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func addEdge(t *testing.T, g *graph.Graph, from, to graph.VID, label string, props map[string]types.Datum) {
	t.Helper()
	if err := g.AddEdge(from, to, label, props); err != nil {
		t.Fatal(err)
	}
}

func mustExec(t *testing.T, s *cluster.Session, sql string) *cluster.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestGGraphTableFunction(t *testing.T) {
	_, s := newMMDB(t)
	g := newCallGraph(t, s)
	a := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(1)})
	b := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(2)})
	addEdge(t, g, a, b, "knows", nil)

	res := mustExec(t, s, "SELECT cid FROM ggraph('g.V().hasLabel(person).values(cid)') AS g ORDER BY cid")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT count FROM ggraph('g.V().out(knows).count()') AS g")
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("count = %v", res.Rows)
	}
	if _, err := s.Exec("SELECT * FROM ggraph('g.bogus()') AS g"); err == nil {
		t.Error("bad traversal should error at plan time")
	}
	if _, err := s.Exec("SELECT * FROM ggraph('g.V().has(age, 3)') AS g"); err == nil {
		t.Error("an undeclared property should error at plan time")
	}
}

func TestGTimeseriesWindow(t *testing.T) {
	db, s := newMMDB(t)
	// Points: every minute for the past 2 hours.
	for i := 0; i < 120; i++ {
		db.TS.Append("speed", fixedNow.Add(-time.Duration(i)*time.Minute), 80+float64(i%40), map[string]string{"carid": fmt.Sprintf("car%d", i%5)})
	}
	if err := db.ExposeSeries("speed_ts", "speed", 24*time.Hour, "carid"); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, `SELECT count(*) FROM gtimeseries(
		SELECT ts, value, carid FROM speed_ts
		WHERE now() - ts < INTERVAL '30 minutes') AS g`)
	// Ages 0..29 minutes inclusive -> 30 points.
	if res.Rows[0][0].Int() != 30 {
		t.Errorf("window count = %v, want 30", res.Rows[0][0])
	}
	// Rows come out time-ordered.
	res = mustExec(t, s, `SELECT ts FROM gtimeseries(
		SELECT ts, value FROM speed_ts WHERE now() - ts < INTERVAL '10 minutes') AS g`)
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i][0].Time().Before(res.Rows[i-1][0].Time()) {
			t.Fatalf("rows not time ordered at %d", i)
		}
	}
}

// newPoints creates the points table name, distributed by id.
func newPoints(t *testing.T, s *cluster.Session, name string) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE "+name+" (id BIGINT PRIMARY KEY, x DOUBLE, y DOUBLE) DISTRIBUTE BY HASH(id)")
}

func TestGSpatialQueries(t *testing.T) {
	_, s := newMMDB(t)
	newPoints(t, s, "pts")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO pts VALUES (%d, %d.0, 0.0)", i, i*10))
	}
	res := mustExec(t, s, "SELECT id FROM gspatial('pts.bbox(0, -1, 25, 1)') AS g ORDER BY id")
	if len(res.Rows) != 3 {
		t.Errorf("bbox rows = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM gspatial('pts.nearest(42, 0, 2)') AS g")
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 4 {
		t.Errorf("nearest rows = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT count(*) FROM gspatial('pts.radius(50, 0, 15)') AS g")
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("radius count = %v", res.Rows[0][0])
	}
	if _, err := s.Exec("SELECT * FROM gspatial('pts.frob(1)') AS g"); err == nil {
		t.Error("unknown spatial fn should error")
	}
}

// TestGraphTablesAreClusterTables: a graph's vertices and edges are
// ordinary cluster tables, joinable with SQL and current as of each
// statement.
func TestGraphTablesAreClusterTables(t *testing.T) {
	_, s := newMMDB(t)
	g := newCallGraph(t, s)
	a := addVertex(t, g, "car", nil)
	b := addVertex(t, g, "junction", nil)
	addEdge(t, g, a, b, "passed", nil)
	res := mustExec(t, s, "SELECT count(*) FROM g_vertices")
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("vertices = %v", res.Rows[0][0])
	}
	// Join graph data with itself relationally.
	res = mustExec(t, s, `SELECT v.label FROM g_edges e JOIN g_vertices v ON e.dst = v.id`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "junction" {
		t.Errorf("join = %v", res.Rows)
	}
	addVertex(t, g, "car", nil)
	res = mustExec(t, s, "SELECT count(*) FROM g_vertices")
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("live vertices = %v", res.Rows[0][0])
	}
}

func TestVirtualNameCollisionRejected(t *testing.T) {
	db, s := newMMDB(t)
	mustExec(t, s, "CREATE TABLE taken (a BIGINT) DISTRIBUTE BY HASH(a)")
	if err := db.ExposeSeries("taken", "speed", time.Hour); err == nil {
		t.Error("collision with stored table must be rejected")
	}
}

// TestExample1UnifiedQuery reproduces the paper's Example 1 (§II-B): a
// single SQL statement combining a time-series window (cars on the highway
// in the last 30 minutes), a Gremlin traversal (suspects with more than 3
// recent incoming calls) and a relational mapping table, with a correlated
// scalar subquery joining them.
func TestExample1UnifiedQuery(t *testing.T) {
	db, s := newMMDB(t)

	// Time-series engine: high-speed sightings. Cars car1, car2 seen
	// recently; car9 seen two hours ago.
	db.TS.Append("high_speed", fixedNow.Add(-5*time.Minute), 130, map[string]string{"carid": "car1", "juncid": "j1"})
	db.TS.Append("high_speed", fixedNow.Add(-10*time.Minute), 125, map[string]string{"carid": "car2", "juncid": "j2"})
	db.TS.Append("high_speed", fixedNow.Add(-8*time.Minute), 140, map[string]string{"carid": "car1", "juncid": "j3"})
	db.TS.Append("high_speed", fixedNow.Add(-2*time.Hour), 150, map[string]string{"carid": "car9", "juncid": "j1"})
	if err := db.ExposeSeries("high_speed_view", "high_speed", 24*time.Hour, "carid", "juncid"); err != nil {
		t.Fatal(err)
	}

	// Graph engine: person 11111 (suspect, 4 recent calls, owns car1),
	// person 22222 (1 recent call, owns car2).
	g := newCallGraph(t, s)
	suspect := addVertex(t, g, "person", map[string]types.Datum{
		"cid": types.NewInt(11111), "phone": types.NewString("555-0100"),
	})
	clean := addVertex(t, g, "person", map[string]types.Datum{
		"cid": types.NewInt(22222), "phone": types.NewString("555-0101"),
	})
	for i := 0; i < 4; i++ {
		caller := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(int64(30000 + i))})
		addEdge(t, g, caller, suspect, "call", map[string]types.Datum{"ts": types.NewInt(int64(20180610 + i))})
	}
	onecaller := addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(40000)})
	addEdge(t, g, onecaller, clean, "call", map[string]types.Datum{"ts": types.NewInt(20180615)})

	// Relational mapping: car registration.
	mustExec(t, s, "CREATE TABLE car2cid (carid TEXT, cid BIGINT) DISTRIBUTE BY REPLICATION")
	mustExec(t, s, "INSERT INTO car2cid VALUES ('car1', 11111), ('car2', 22222), ('car9', 99999)")

	// The unified query (dialect-adjusted Example 1). Its traffic is
	// deterministic: EXPERIMENTS E5 reports it.
	before := db.Cluster.Fabric().Stats()
	res := mustExec(t, s, `
		with cars (carid) as (
		    select distinct carid from gtimeseries(
		        select ts, value, carid, juncid from high_speed_view
		        where now() - ts < INTERVAL '30 minutes') AS g),
		 suspects (cid) as (
		    select cid from ggraph('g.V().hasLabel(person).where(inE(call).has(ts, gt(20180601)).count().gt(3)).values(cid)') AS gg)
		select s.cid, c.carid
		from suspects s, cars c
		where s.cid = (select cid from car2cid as cc where cc.carid = c.carid)`)

	traffic := db.Cluster.Fabric().Stats().Sub(before)
	t.Logf("Example 1: %d fabric messages, %d bytes", traffic.Total(), traffic.TotalBytes())

	if len(res.Rows) != 1 {
		t.Fatalf("Example 1 returned %d rows: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Int() != 11111 || res.Rows[0][1].Str() != "car1" {
		t.Errorf("Example 1 = %v, want (11111, car1)", res.Rows[0])
	}
}
