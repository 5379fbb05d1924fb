// Autonomous-vehicle data management (paper §IV-B3): the three challenges
// the paper poses, exercised end to end on the reproduction's substrates.
//
//  1. Massive amount of data -> a time series in a cluster table,
//     pre-aggregated per minute by a GROUP BY the data nodes run, and
//     hot/cold separation (a retention DELETE).
//  2. High-dimensional data management -> AI feature vectors indexed for
//     sub-second nearest-scene queries, with incremental ingestion and
//     index rebuilding.
//  3. Spatial queries over the fleet -> positions in a cluster table,
//     queried with gspatial(...) SQL.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/highdim"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	// One database holds the sensor series (§1) and the fleet (§3). Its
	// clock is fixed on a whole minute, so the per-minute buckets of §1,
	// counted back from now(), are whole clock minutes.
	now := time.Now().UTC().Truncate(time.Minute)
	db, err := core.Open(core.Options{DataNodes: 4, Clock: func() time.Time { return now }})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// ------ 1. Sensor firehose with edge pre-aggregation ---------------
	// A series is a cluster table, ingested by multi-row INSERTs.
	db.MustExec("CREATE TABLE lidar_points (ts TIMESTAMP, value DOUBLE) DISTRIBUTE BY HASH(ts)")
	const samples = 8 * 3600 // one sample per second for 8 hours
	var batch []string
	for i := 0; i < samples; i++ {
		at := now.Add(-time.Duration(samples-i) * time.Second)
		batch = append(batch, fmt.Sprintf("('%s', %d.0)", at.Format(time.RFC3339), 90000+rng.Intn(20000)))
		if len(batch) == 1000 || i == samples-1 {
			db.MustExec("INSERT INTO lidar_points VALUES " + strings.Join(batch, ", "))
			batch = batch[:0]
		}
	}
	hot := func() int64 { return db.MustExec("SELECT count(*) FROM lidar_points").Rows[0][0].Int() }
	fmt.Printf("ingested %d lidar samples\n", hot())

	// The paper's "perform data pre-aggregation for time series data at
	// devices and edges": a GROUP BY on the sample's age in whole minutes,
	// aggregated partially on each data node before anything crosses the
	// fabric.
	buckets := db.MustExec(`SELECT (now() - ts) / 60000000000 AS age, avg(value), max(value)
		FROM lidar_points WHERE now() - ts < INTERVAL '10 minutes'
		GROUP BY (now() - ts) / 60000000000 ORDER BY age DESC LIMIT 3`)
	fmt.Printf("last 10 minutes (1-min buckets, pre-aggregated on the data nodes):\n")
	for _, b := range buckets.Rows {
		start := now.Add(-time.Duration(b[0].Int()+1) * time.Minute)
		fmt.Printf("  %s  avg=%.0f pts/s  max=%.0f\n", start.Format("15:04"), b[1].Float(), b[2].Float())
	}

	// Hot/cold separation: expire raw data older than 1 hour (in
	// production it would move to cloud cold storage first).
	removed := db.MustExec("DELETE FROM lidar_points WHERE now() - ts > INTERVAL '1 hour'").RowsAffected
	fmt.Printf("cold-tiered %d raw samples; %d remain hot\n\n", removed, hot())

	// ------ 2. High-dimensional scene features -------------------------
	const dim = 128
	ix, err := highdim.NewIndex(dim)
	if err != nil {
		log.Fatal(err)
	}
	// "AI algorithms extract many properties from the raw data": simulate
	// feature vectors for 5 scene classes (rain, night, highway, ...).
	classes := []string{"rain", "night", "highway", "urban", "tunnel"}
	vecOf := func(class int) highdim.Vector {
		v := make(highdim.Vector, dim)
		for d := range v {
			v[d] = float32(class*10) + float32(rng.NormFloat64())
		}
		return v
	}
	frameClass := make(map[int64]int)
	for id := int64(0); id < 3000; id++ {
		c := rng.Intn(len(classes))
		frameClass[id] = c
		ix.Add(id, vecOf(c))
	}
	if err := ix.Train(16, 5, 1); err != nil {
		log.Fatal(err)
	}
	// Query: "find frames most similar to this rainy scene".
	query := vecOf(0)
	start := time.Now()
	res, err := ix.Search(query, 5, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nearest scenes to a 'rain' query (IVF, %v):\n", time.Since(start).Round(time.Microsecond))
	for _, r := range res {
		fmt.Printf("  frame %4d  class=%s  dist=%.1f\n", r.ID, classes[frameClass[r.ID]], r.Dist)
	}
	// Incremental ingestion continues after training; rebuilding handles
	// churn (the paper's "(re)building" challenge).
	ix.Add(999999, vecOf(2))
	if err := ix.Rebuild(3, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index rebuilt over %d live vectors\n\n", ix.Len())

	// ------ 3. Fleet positions --------------------------------------
	db.MustExec("CREATE TABLE fleet (id BIGINT PRIMARY KEY, x DOUBLE, y DOUBLE) DISTRIBUTE BY HASH(id)")
	var rows []string
	for car := 0; car < 500; car++ {
		rows = append(rows, fmt.Sprintf("(%d, %f, %f)", car, rng.Float64()*10000, rng.Float64()*10000))
	}
	db.MustExec("INSERT INTO fleet VALUES " + strings.Join(rows, ", "))
	nearby := db.MustExec("SELECT count(*) FROM gspatial('fleet.radius(5000, 5000, 500)') AS f")
	fmt.Printf("cars within 500m of the incident at (5000,5000): %d\n", nearby.Rows[0][0].Int())
	closest := db.MustExec("SELECT id FROM gspatial('fleet.nearest(5000, 5000, 3)') AS f")
	fmt.Printf("three closest responders: %v %v %v\n", closest.Rows[0][0], closest.Rows[1][0], closest.Rows[2][0])
}
