package multimodel

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/sqlx"
	"repro/internal/transport"
	"repro/internal/types"
)

// fixedNow is the deterministic statement clock for all tests.
var fixedNow = time.Unix(1_700_000_000, 0).UTC()

func newMMDB(t *testing.T) (*cluster.Cluster, *cluster.Session) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	c.Clock = func() time.Time { return fixedNow }
	Attach(c)
	return c, c.NewSession()
}

// newSeries creates the time-series table name, (ts TIMESTAMP, value
// DOUBLE, <tag> TEXT...), distributed by its first tag.
func newSeries(t *testing.T, s *cluster.Session, name string, tags ...string) {
	t.Helper()
	cols := "ts TIMESTAMP, value DOUBLE"
	for _, tag := range tags {
		cols += ", " + tag + " TEXT"
	}
	mustExec(t, s, "CREATE TABLE "+name+" ("+cols+") DISTRIBUTE BY HASH("+tags[0]+")")
}

// sample is one row of a series table.
type sample struct {
	at    time.Time
	value float64
	tags  []string
}

// addSamples inserts samples into the series table name in one INSERT.
func addSamples(t *testing.T, s *cluster.Session, name string, samples ...sample) {
	t.Helper()
	ins := &sqlx.Insert{Table: name}
	for _, p := range samples {
		row := []sqlx.Expr{&sqlx.Literal{Value: types.NewTime(p.at)}, &sqlx.Literal{Value: types.NewFloat(p.value)}}
		for _, tag := range p.tags {
			row = append(row, &sqlx.Literal{Value: types.NewString(tag)})
		}
		ins.Rows = append(ins.Rows, row)
	}
	if _, err := s.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
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
	// The argument is read with SQL's quoting and numbers.
	addVertex(t, g, "person", map[string]types.Datum{"cid": types.NewInt(1000), "phone": types.NewString("O'Brien")})
	for _, sql := range []string{
		"SELECT cid FROM ggraph('g.V().has(''phone'', ''O''''Brien'').values(cid)') AS g",
		"SELECT cid FROM ggraph('g.V().has(cid, 1e3).values(cid)') AS g",
		`SELECT cid FROM ggraph('g.V().has("phone", eq(''O''''Brien'')).values(cid)') AS g`,
	} {
		if res := mustExec(t, s, sql); len(res.Rows) != 1 || res.Rows[0][0].Int() != 1000 {
			t.Errorf("%s: rows = %v, want cid 1000", sql, res.Rows)
		}
	}
	if _, err := s.Exec("SELECT * FROM ggraph('g.bogus()') AS g"); err == nil {
		t.Error("bad traversal should error at plan time")
	}
	if _, err := s.Exec("SELECT * FROM ggraph('g.V().has(age, 3)') AS g"); err == nil {
		t.Error("an undeclared property should error at plan time")
	}
}

func TestGTimeseriesWindow(t *testing.T) {
	_, s := newMMDB(t)
	// Points: every minute for the past 2 hours.
	newSeries(t, s, "speed_ts", "carid")
	var pts []sample
	for i := 0; i < 120; i++ {
		pts = append(pts, sample{fixedNow.Add(-time.Duration(i) * time.Minute), 80 + float64(i%40), []string{fmt.Sprintf("car%d", i%5)}})
	}
	addSamples(t, s, "speed_ts", pts...)
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
	if len(res.Rows) != 10 {
		t.Errorf("10-minute window = %d rows, want 10", len(res.Rows))
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
	res = mustExec(t, s, "SELECT id, x FROM gspatial('pts.nearest(0, - 1, 1e0)') AS g")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || res.Rows[0][1].Float() != 0 {
		t.Errorf("nearest(0, - 1, 1e0) rows = %v", res.Rows)
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

// TestVirtualNameCollisionRejected: a series is a table, so it cannot take
// a name another table holds.
func TestVirtualNameCollisionRejected(t *testing.T) {
	_, s := newMMDB(t)
	mustExec(t, s, "CREATE TABLE taken (a BIGINT) DISTRIBUTE BY HASH(a)")
	if _, err := s.Exec("CREATE TABLE taken (ts TIMESTAMP, value DOUBLE) DISTRIBUTE BY HASH(ts)"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("a series over a taken name: %v, want already exists", err)
	}
}

// TestExample1UnifiedQuery reproduces the paper's Example 1 (§II-B): a
// single SQL statement combining a time-series window (cars on the highway
// in the last 30 minutes), a Gremlin traversal (suspects with more than 3
// recent incoming calls) and a relational mapping table, with a correlated
// scalar subquery joining them.
func TestExample1UnifiedQuery(t *testing.T) {
	c, s := newMMDB(t)

	// Time series: high-speed sightings. Cars car1, car2 seen recently;
	// car9 seen two hours ago.
	newSeries(t, s, "high_speed", "carid", "juncid")
	addSamples(t, s, "high_speed",
		sample{fixedNow.Add(-5 * time.Minute), 130, []string{"car1", "j1"}},
		sample{fixedNow.Add(-10 * time.Minute), 125, []string{"car2", "j2"}},
		sample{fixedNow.Add(-8 * time.Minute), 140, []string{"car1", "j3"}},
		sample{fixedNow.Add(-2 * time.Hour), 150, []string{"car9", "j1"}})

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
	before := c.Fabric().Stats()
	res := mustExec(t, s, `
		with cars (carid) as (
		    select distinct carid from gtimeseries(
		        select ts, value, carid, juncid from high_speed
		        where now() - ts < INTERVAL '30 minutes') AS g),
		 suspects (cid) as (
		    select cid from ggraph('g.V().hasLabel(person).where(inE(call).has(ts, gt(20180601)).count().gt(3)).values(cid)') AS gg)
		select s.cid, c.carid
		from suspects s, cars c
		where s.cid = (select cid from car2cid as cc where cc.carid = c.carid)`)

	traffic := c.Fabric().Stats().Sub(before)
	t.Logf("Example 1: %d fabric messages, %d bytes", traffic.Total(), traffic.TotalBytes())
	// Two GTM rounds for the statement's global snapshot, and scan
	// fragments on both data nodes: 4 for the series, the rest for the
	// graph tables and the correlated lookups in car2cid.
	if g, f := traffic.Get(transport.GTMRound).Count, traffic.Get(transport.ScanFrag).Count; g != 2 || f != 40 || traffic.Total() != g+f {
		t.Errorf("Example 1 traffic: %d gtm_round, %d scan_frag, %d in all; want 2, 40, 42", g, f, traffic.Total())
	}
	if b := traffic.TotalBytes(); b != 1536 {
		t.Errorf("Example 1 moved %d bytes, want 1536", b)
	}

	if len(res.Rows) != 1 {
		t.Fatalf("Example 1 returned %d rows: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Int() != 11111 || res.Rows[0][1].Str() != "car1" {
		t.Errorf("Example 1 = %v, want (11111, car1)", res.Rows[0])
	}
}
