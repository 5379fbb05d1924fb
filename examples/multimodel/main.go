// Multi-model example: the paper's Example 1 (§II-B) end to end. One SQL
// statement combines:
//   - a time-series window (cars seen speeding in the last 30 minutes),
//   - a Gremlin graph traversal (persons with > 3 recent incoming calls),
//   - a relational mapping table (car registrations),
//
// joined by a correlated scalar subquery — the multi-model database's
// "integrated query processing across models".
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/types"
)

func main() {
	now := time.Now().UTC().Truncate(time.Second)
	db, err := core.Open(core.Options{DataNodes: 2, Clock: func() time.Time { return now }})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// --- Time series: highway speed sensors ----------------------------
	// A series is a cluster table of (ts, value, tags...) samples.
	db.MustExec("CREATE TABLE high_speed (ts TIMESTAMP, value DOUBLE, carid TEXT, juncid TEXT) DISTRIBUTE BY HASH(carid)")
	ago := func(d time.Duration) string { return now.Add(-d).Format(time.RFC3339) }
	db.MustExec(fmt.Sprintf(`INSERT INTO high_speed VALUES
		('%s', 132.0, 'car1', 'j1'), ('%s', 140.0, 'car1', 'j3'),
		('%s', 125.0, 'car2', 'j2'), ('%s', 150.0, 'car9', 'j1')`,
		ago(5*time.Minute), ago(8*time.Minute), ago(10*time.Minute), ago(2*time.Hour)))

	// --- Graph engine: call graph of persons ---------------------------
	// A graph is two cluster tables, g_vertices and g_edges, whose property
	// columns are declared up front.
	g, err := db.CreateGraph("g",
		[]types.Column{{Name: "cid", Kind: types.KindInt}, {Name: "phone", Kind: types.KindString}},
		[]types.Column{{Name: "ts", Kind: types.KindInt}})
	if err != nil {
		log.Fatal(err)
	}
	suspect := must(g.AddVertex("person", map[string]types.Datum{
		"cid": types.NewInt(11111), "phone": types.NewString("555-0100"),
	}))
	clean := must(g.AddVertex("person", map[string]types.Datum{
		"cid": types.NewInt(22222), "phone": types.NewString("555-0101"),
	}))
	for i := 0; i < 4; i++ {
		caller := must(g.AddVertex("person", map[string]types.Datum{"cid": types.NewInt(int64(30000 + i))}))
		check(g.AddEdge(caller, suspect, "call", map[string]types.Datum{"ts": types.NewInt(int64(20180610 + i))}))
	}
	one := must(g.AddVertex("person", map[string]types.Datum{"cid": types.NewInt(40000)}))
	check(g.AddEdge(one, clean, "call", map[string]types.Datum{"ts": types.NewInt(20180615)}))

	// --- Relational: car registration mapping --------------------------
	db.MustExec("CREATE TABLE car2cid (carid TEXT, cid BIGINT) DISTRIBUTE BY REPLICATION")
	db.MustExec("INSERT INTO car2cid VALUES ('car1', 11111), ('car2', 22222), ('car9', 99999)")

	// --- The unified query (Example 1) ----------------------------------
	fabric := db.Cluster().Fabric()
	before := fabric.Stats()
	res := db.MustExec(`
		with cars (carid) as (
		    select distinct carid from gtimeseries(
		        select ts, value, carid, juncid from high_speed
		        where now() - ts < INTERVAL '30 minutes') AS g),
		 suspects (cid) as (
		    select cid from ggraph('g.V().hasLabel(person).where(inE(call).has(ts, gt(20180601)).count().gt(3)).values(cid)') AS gg)
		select s.cid, c.carid
		from suspects s, cars c
		where s.cid = (select cid from car2cid as cc where cc.carid = c.carid)`)
	traffic := fabric.Stats().Sub(before)

	fmt.Println("suspects driving cars seen speeding in the last 30 minutes:")
	for _, r := range res.Rows {
		fmt.Printf("  cid=%v car=%v\n", r[0], r[1])
	}
	fmt.Printf("the series scan and the traversal ran on the data nodes: %d fabric messages, %d bytes\n", traffic.Total(), traffic.TotalBytes())

	// The graph and the series are ordinary tables: plain SQL reads them too.
	counts := db.MustExec("SELECT count(*) FROM g_edges")
	samples := db.MustExec("SELECT count(*) FROM high_speed")
	fmt.Printf("\nunified storage: g_edges has %v rows, high_speed %v\n", counts.Rows[0][0], samples.Rows[0][0])
}

func must(id graph.VID, err error) graph.VID {
	check(err)
	return id
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
