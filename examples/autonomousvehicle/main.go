// Autonomous-vehicle data management (paper §IV-B3): the three challenges
// the paper poses, exercised end to end on the reproduction's substrates.
//
//  1. Massive amount of data -> time-series pre-aggregation at the edge
//     (continuous rollups) and hot/cold separation (retention expiry).
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
	"repro/internal/tseries"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	now := time.Now().UTC()

	// ------ 1. Sensor firehose with edge pre-aggregation ---------------
	ts := tseries.NewStore()
	// Continuous rollup maintained incrementally while ingesting — the
	// paper's "perform data pre-aggregation for time series data at
	// devices and edges".
	if err := ts.EnableRollup("lidar_points", time.Minute); err != nil {
		log.Fatal(err)
	}
	const samples = 8 * 3600 // one sample per second for 8 hours
	for i := 0; i < samples; i++ {
		at := now.Add(-time.Duration(samples-i) * time.Second)
		ts.Append("lidar_points", at, 90000+float64(rng.Intn(20000)), nil)
	}
	fmt.Printf("ingested %d lidar samples\n", ts.Len("lidar_points"))

	// Dashboards read the pre-aggregated rollup, not the raw points.
	buckets := ts.Window("lidar_points", now.Add(-10*time.Minute), now, time.Minute, nil)
	fmt.Printf("last 10 minutes (1-min rollups, served pre-aggregated):\n")
	for _, b := range buckets[:3] {
		fmt.Printf("  %s  avg=%.0f pts/s  max=%.0f\n", b.Start.Format("15:04"), b.Value(tseries.AggAvg), b.Max)
	}

	// Hot/cold separation: expire raw data older than 1 hour (in
	// production it would move to cloud cold storage first).
	removed := ts.Expire("lidar_points", now.Add(-time.Hour))
	fmt.Printf("cold-tiered %d raw samples; %d remain hot\n\n", removed, ts.Len("lidar_points"))

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
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
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
