// Package multimodel integrates the graph, time-series and spatial engines
// with the relational FI-MPPDB core, reproducing the paper's multi-model
// database architecture (§II-B, Fig 4):
//
//   - Unified storage: a graph is two ordinary cluster tables
//     (internal/graph), and ggraph(...) compiles its traversal into a query
//     block over them that the planner plans like a derived table, so the
//     traversal runs under the statement's snapshot on the data nodes.
//     A time series is exposed relationally as a virtual table
//     (ExposeSeries).
//   - Integrated runtime engines: the gtimeseries(...) and gspatial(...)
//     table expressions plug each engine's native execution into the SQL
//     planner via plan.Hooks, so one plan spans all engines (Example 1).
//   - Uniform framework: everything is reachable through the ordinary SQL
//     session API.
package multimodel

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/tseries"
	"repro/internal/types"
)

// DB bundles the engines attached to a cluster beside its graph tables.
type DB struct {
	Cluster *cluster.Cluster
	TS      *tseries.Store
	Spatial *spatial.Index
}

// Attach wires the engines into the cluster's planner hooks and returns
// the handle used to expose engine data as virtual tables.
func Attach(c *cluster.Cluster, ts *tseries.Store, sp *spatial.Index) *DB {
	db := &DB{Cluster: c, TS: ts, Spatial: sp}
	c.Hooks = plan.Hooks{
		GGraph:      graph.Compile,
		GTimeseries: db.gtimeseries,
		GSpatial:    db.gspatial,
	}
	return db
}

// gtimeseries wraps the already-planned inner query. The inner query
// expresses the window (WHERE now() - ts < INTERVAL ...); the wrapper's
// job in this engine is to guarantee time order on the first TIMESTAMP
// column, which downstream window operators rely on.
func (db *DB) gtimeseries(inner exec.Operator) (exec.Operator, error) {
	schema := inner.Schema()
	tsCol := -1
	for i, c := range schema.Columns {
		if c.Kind == types.KindTime {
			tsCol = i
			break
		}
	}
	if tsCol < 0 {
		// No timestamp column: pass through unchanged.
		return inner, nil
	}
	return &exec.Sort{Child: inner, Keys: []exec.SortKey{{Expr: &exec.ColRef{Index: tsCol}}}}, nil
}

// gspatial compiles a spatial query expression: bbox(minX,minY,maxX,maxY),
// radius(x,y,r) or nearest(x,y,k); rows are (id, x, y).
func (db *DB) gspatial(raw string) (exec.Operator, error) {
	if db.Spatial == nil {
		return nil, fmt.Errorf("multimodel: no spatial index attached")
	}
	fn, args, err := parseCall(raw)
	if err != nil {
		return nil, err
	}
	var items []spatial.Item
	switch fn {
	case "bbox":
		if len(args) != 4 {
			return nil, fmt.Errorf("multimodel: bbox needs 4 arguments")
		}
		items = db.Spatial.BBox(args[0], args[1], args[2], args[3])
	case "radius":
		if len(args) != 3 {
			return nil, fmt.Errorf("multimodel: radius needs 3 arguments")
		}
		items = db.Spatial.Radius(args[0], args[1], args[2])
	case "nearest":
		if len(args) != 3 {
			return nil, fmt.Errorf("multimodel: nearest needs 3 arguments")
		}
		items = db.Spatial.Nearest(args[0], args[1], int(args[2]))
	default:
		return nil, fmt.Errorf("multimodel: unknown spatial query %q (want bbox/radius/nearest)", fn)
	}
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "x", Kind: types.KindFloat},
		types.Column{Name: "y", Kind: types.KindFloat},
	)
	rows := make([]types.Row, len(items))
	for i, it := range items {
		rows[i] = types.Row{types.NewInt(it.ID), types.NewFloat(it.X), types.NewFloat(it.Y)}
	}
	return exec.NewValues(schema, rows), nil
}

// parseCall parses "name(a, b, c)" with float arguments.
func parseCall(raw string) (string, []float64, error) {
	raw = strings.TrimSpace(raw)
	open := strings.IndexByte(raw, '(')
	if open < 0 || !strings.HasSuffix(raw, ")") {
		return "", nil, fmt.Errorf("multimodel: bad spatial expression %q", raw)
	}
	name := strings.ToLower(strings.TrimSpace(raw[:open]))
	body := raw[open+1 : len(raw)-1]
	var args []float64
	if strings.TrimSpace(body) != "" {
		for _, part := range strings.Split(body, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return "", nil, fmt.Errorf("multimodel: bad numeric argument %q", part)
			}
			args = append(args, f)
		}
	}
	return name, args, nil
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
