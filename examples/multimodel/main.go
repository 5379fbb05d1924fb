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
	now := time.Now().UTC()
	db, err := core.Open(core.Options{DataNodes: 2, Clock: func() time.Time { return now }})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// --- Time-series engine: highway speed sensors ---------------------
	ts := db.TimeSeries()
	ts.Append("high_speed", now.Add(-5*time.Minute), 132, map[string]string{"carid": "car1", "juncid": "j1"})
	ts.Append("high_speed", now.Add(-8*time.Minute), 140, map[string]string{"carid": "car1", "juncid": "j3"})
	ts.Append("high_speed", now.Add(-10*time.Minute), 125, map[string]string{"carid": "car2", "juncid": "j2"})
	ts.Append("high_speed", now.Add(-2*time.Hour), 150, map[string]string{"carid": "car9", "juncid": "j1"})
	if err := db.MultiModel().ExposeSeries("high_speed_view", "high_speed", 24*time.Hour, "carid", "juncid"); err != nil {
		log.Fatal(err)
	}

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
		        select ts, value, carid, juncid from high_speed_view
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
	fmt.Printf("the traversal ran on the data nodes: %d fabric messages, %d bytes\n", traffic.Total(), traffic.TotalBytes())

	// The graph is ordinary tables: plain SQL reads them too.
	counts := db.MustExec("SELECT count(*) FROM g_edges")
	fmt.Printf("\nunified storage: g_edges has %v rows\n", counts.Rows[0][0])
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
