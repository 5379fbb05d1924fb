// Package multimodel integrates the graph, time-series and spatial engines
// with the relational FI-MPPDB core, reproducing the paper's multi-model
// database architecture (§II-B, Fig 4):
//
//   - Unified storage: a graph is two ordinary cluster tables
//     (internal/graph), spatial points are rows of one (internal/spatial)
//     and so are a time series' samples (internal/tseries). ggraph(...) and
//     gspatial(...) compile into a query block over their tables that the
//     planner plans like a derived table, so every engine's reads run under
//     the statement's snapshot on the data nodes.
//   - Integrated runtime: gtimeseries(...) is its inner query in time
//     order, planned by the SQL planner, so one plan spans all engines
//     (Example 1).
//   - Uniform framework: everything is reachable through the ordinary SQL
//     session API.
package multimodel

import (
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/spatial"
)

// Attach wires the ggraph and gspatial compilers into the cluster's
// planner hooks.
func Attach(c *cluster.Cluster) {
	c.Hooks = plan.Hooks{GGraph: graph.Compile, GSpatial: spatial.Compile}
}
