// Package multimodel integrates the graph, time-series and spatial engines
// with the relational FI-MPPDB core, reproducing the paper's multi-model
// database architecture (§II-B, Fig 4):
//
//   - Unified storage: a graph is two ordinary cluster tables
//     (internal/graph) and spatial points are rows of one
//     (internal/spatial); ggraph(...) and gspatial(...) compile into a
//     query block over them that the planner plans like a derived table,
//     so they run under the statement's snapshot on the data nodes. A time
//     series is exposed relationally as a virtual table (ExposeSeries).
//   - Integrated runtime: gtimeseries(...) is its inner query in time
//     order, planned by the SQL planner, so one plan spans all engines
//     (Example 1).
//   - Uniform framework: everything is reachable through the ordinary SQL
//     session API.
package multimodel

import (
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/tseries"
	"repro/internal/types"
)

// DB bundles the time-series store attached to a cluster.
type DB struct {
	Cluster *cluster.Cluster
	TS      *tseries.Store
}

// Attach wires the ggraph and gspatial compilers into the cluster's
// planner hooks and returns the handle used to expose time series as
// virtual tables.
func Attach(c *cluster.Cluster, ts *tseries.Store) *DB {
	c.Hooks = plan.Hooks{GGraph: graph.Compile, GSpatial: spatial.Compile}
	return &DB{Cluster: c, TS: ts}
}

// ---------------------------------------------------------------------------
// Time series as a virtual table
// ---------------------------------------------------------------------------

// ExposeSeries registers a virtual table over one time series with schema
// (ts TIMESTAMP, value DOUBLE, <tag> TEXT...). The window covers
// [now-lookback, now+lookback] at scan time.
func (db *DB) ExposeSeries(tableName, seriesName string, lookback time.Duration, tagCols ...string) error {
	cols := []types.Column{
		{Name: "ts", Kind: types.KindTime},
		{Name: "value", Kind: types.KindFloat},
	}
	for _, tc := range tagCols {
		cols = append(cols, types.Column{Name: strings.ToLower(tc), Kind: types.KindString})
	}
	schema := &types.Schema{Columns: cols}
	return db.Cluster.RegisterVirtual(tableName, schema, func() []types.Row {
		now := db.Cluster.Clock()
		pts := db.TS.Range(seriesName, now.Add(-lookback), now.Add(lookback), nil)
		rows := make([]types.Row, len(pts))
		for i, p := range pts {
			row := make(types.Row, 2+len(tagCols))
			row[0] = types.NewTime(p.Ts)
			row[1] = types.NewFloat(p.Value)
			for j, tc := range tagCols {
				if v, ok := p.Tags[tc]; ok {
					row[2+j] = types.NewString(v)
				} else {
					row[2+j] = types.Null
				}
			}
			rows[i] = row
		}
		return rows
	})
}
