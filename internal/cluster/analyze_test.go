package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// analyzeReference is ANALYZE computed the straightforward way, the oracle
// of TestAnalyzeMatchesReference: every column's non-NULL values sorted by
// types.MustCompare, distinct values counted as distinct AppendKey images,
// and the equi-depth histogram cut from the sorted values.
func analyzeReference(schema *types.Schema, rows []types.Row) *plan.TableStats {
	ts := &plan.TableStats{Rows: int64(len(rows)), Cols: make([]plan.ColStats, schema.Len())}
	for c := range schema.Columns {
		var vals []types.Datum
		nulls := 0
		distinct := make(map[string]struct{})
		var key []byte
		for _, r := range rows {
			if r[c].IsNull() {
				nulls++
				continue
			}
			vals = append(vals, r[c])
			key = types.AppendKey(key[:0], r[c])
			distinct[string(key)] = struct{}{}
		}
		cs := plan.ColStats{NDV: int64(len(distinct))}
		if len(rows) > 0 {
			cs.NullFrac = float64(nulls) / float64(len(rows))
		}
		if len(vals) > 0 {
			sort.Slice(vals, func(i, j int) bool { return types.MustCompare(vals[i], vals[j]) < 0 })
			cs.Min, cs.Max = vals[0], vals[len(vals)-1]
			nb := plan.HistogramBuckets
			if len(vals) < nb {
				nb = len(vals)
			}
			per := len(vals) / nb
			if per == 0 {
				per = 1
			}
			for i := per - 1; i < len(vals); i += per {
				cs.Hist = append(cs.Hist, plan.Bucket{Hi: vals[i], Count: int64(per)})
			}
			if rem := len(vals) % per; rem != 0 {
				cs.Hist = append(cs.Hist, plan.Bucket{Hi: vals[len(vals)-1], Count: int64(rem)})
			}
		}
		ts.Cols[c] = cs
	}
	return ts
}

// referenceStats runs the oracle over the rows a scan of ti sees: a
// replicated table's one copy, else each node's rows under the ownership
// filter.
func referenceStats(c *Cluster, ti *TableInfo) *plan.TableStats {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	var rows []types.Row
	if ti.replicated {
		rows = c.partitionRows(ti, 0, nil)
	} else {
		for dn := 0; dn < c.DataNodeCount(); dn++ {
			rows = append(rows, c.partitionRows(ti, dn, c.ownsRow(ti, dn))...)
		}
	}
	return analyzeReference(ti.Meta.Schema, rows)
}

// sameDatum: the same kind and the same AppendKey image — Compare's
// equality within one kind, under which a sort may put −0 or +0 (or one
// NaN or another) first among equals.
func sameDatum(a, b types.Datum) bool {
	return a.Kind() == b.Kind() && bytes.Equal(types.AppendKey(nil, a), types.AppendKey(nil, b))
}

// statsDiff describes the first difference between got and want, or "".
func statsDiff(schema *types.Schema, got, want *plan.TableStats) string {
	if got.Rows != want.Rows || len(got.Cols) != len(want.Cols) {
		return fmt.Sprintf("rows %d / %d cols, want %d / %d", got.Rows, len(got.Cols), want.Rows, len(want.Cols))
	}
	for c := range want.Cols {
		g, w := &got.Cols[c], &want.Cols[c]
		name := schema.Columns[c].Name
		switch {
		case g.NDV != w.NDV:
			return fmt.Sprintf("%s: NDV %d, want %d", name, g.NDV, w.NDV)
		case g.NullFrac != w.NullFrac:
			return fmt.Sprintf("%s: NullFrac %v, want %v", name, g.NullFrac, w.NullFrac)
		case !sameDatum(g.Min, w.Min) || !sameDatum(g.Max, w.Max):
			return fmt.Sprintf("%s: min/max %v/%v, want %v/%v", name, g.Min, g.Max, w.Min, w.Max)
		case len(g.Hist) != len(w.Hist):
			return fmt.Sprintf("%s: %d buckets, want %d", name, len(g.Hist), len(w.Hist))
		}
		for i := range w.Hist {
			if g.Hist[i].Count != w.Hist[i].Count || !sameDatum(g.Hist[i].Hi, w.Hist[i].Hi) {
				return fmt.Sprintf("%s: bucket %d = %v×%d, want %v×%d", name, i, g.Hist[i].Hi, g.Hist[i].Count, w.Hist[i].Hi, w.Hist[i].Count)
			}
		}
	}
	return ""
}

// analyzeCase is one random table of TestAnalyzeMatchesReference.
type analyzeCase struct {
	rows     int
	domain   int     // distinct values per column to draw from: small means heavy ties
	nullRate float64 // per non-key value; 1 makes every non-key column all-NULL
}

// randomDatum draws a value of kind from a domain of about domain values,
// the awkward ones included: NaN with another payload or sign, ±0, ±Inf,
// the BIGINT extremes, the empty string, timestamps before 1970.
func randomDatum(rng *rand.Rand, kind types.Kind, domain int) types.Datum {
	pick := rng.Intn(domain)
	switch kind {
	case types.KindBool:
		return types.NewBool(pick%2 == 1)
	case types.KindInt:
		switch pick {
		case 0:
			return types.NewInt(math.MinInt64)
		case 1:
			return types.NewInt(math.MaxInt64)
		}
		return types.NewInt(int64(pick - domain/2))
	case types.KindFloat:
		special := []float64{
			math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000abc),
			math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 2.5, -2.5, 1 << 60,
		}
		if pick < len(special) {
			return types.NewFloat(special[pick])
		}
		return types.NewFloat(float64(pick-domain/2) / 4)
	case types.KindString, types.KindBytes:
		s := "ab\x00\xffBA\xff\x00"[:pick%7] + fmt.Sprint(pick%11)
		if pick == 0 {
			s = ""
		}
		if kind == types.KindBytes {
			return types.NewBytes([]byte(s))
		}
		return types.NewString(s)
	default: // KindTime
		return types.NewTime(time.Unix(int64(pick-domain/2)*3600, int64(pick%3)))
	}
}

// loadAnalyzeTable creates table name with one column of every kind
// (BYTEA only on row storage, which alone stores it) and fills it with
// tc's rows through a parameterised INSERT, a batch per statement,
// flushing a columnar table's delta buffer half-way. A row table also
// loses a few rows to a DELETE, and an open transaction holds an insert no
// snapshot sees.
func loadAnalyzeTable(t *testing.T, c *Cluster, rng *rand.Rand, name, storage string, tc analyzeCase) {
	t.Helper()
	s := c.NewSession()
	cols := "k BIGINT, b BOOL, i BIGINT, f DOUBLE, s TEXT, ts TIMESTAMP"
	kinds := []types.Kind{types.KindInt, types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindTime}
	if storage == "ROW" {
		cols += ", y BYTEA"
		kinds = append(kinds, types.KindBytes)
	}
	mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (%s) DISTRIBUTE BY HASH(k) USING %s", name, cols, storage))
	row := func(k int) []types.Datum {
		r := []types.Datum{types.NewInt(int64(k))}
		for _, kind := range kinds[1:] {
			if rng.Float64() < tc.nullRate {
				r = append(r, types.Null)
			} else {
				r = append(r, randomDatum(rng, kind, tc.domain))
			}
		}
		return r
	}
	insert := func(s *Session, lo, hi int) {
		// Each value is a literal 0 lifted into a parameter, as the front
		// door lifts literals, and bound to the datum drawn for it.
		var sb strings.Builder
		var params []types.Datum
		var pos []int
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
		for k := lo; k < hi; k++ {
			if k > lo {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, d := range row(k) {
				if j > 0 {
					sb.WriteString(", ")
				}
				params, pos = append(params, d), append(pos, sb.Len())
				sb.WriteByte('0')
			}
			sb.WriteByte(')')
		}
		stmt, err := sqlx.ParseLifted(sb.String(), pos)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Prepare(stmt).Exec(params); err != nil {
			t.Fatalf("insert into %s: %v", name, err)
		}
	}
	const batch = 100
	for lo := 0; lo < tc.rows; lo += batch {
		if lo >= tc.rows/2 && lo < tc.rows/2+batch && storage == "COLUMN" {
			ti, _ := c.tableInfo(name)
			for _, part := range *ti.parts.Load() {
				part.col.Flush()
			}
		}
		insert(s, lo, min(lo+batch, tc.rows))
	}
	if storage == "ROW" && tc.rows > 0 {
		mustExec(t, s, fmt.Sprintf("DELETE FROM %s WHERE k %% 7 = 3", name))
	}
	open := c.NewSession()
	if err := open.Begin(); err != nil {
		t.Fatal(err)
	}
	insert(open, tc.rows, tc.rows+3)
	t.Cleanup(func() { open.Exec("ROLLBACK") })
}

// checkAnalyze runs ANALYZE on name and compares its statistics with the
// oracle's over the same visible rows.
func checkAnalyze(t *testing.T, c *Cluster, name, when string) {
	t.Helper()
	if err := c.Analyze(name); err != nil {
		t.Fatalf("%s: ANALYZE %s: %v", when, name, err)
	}
	ti, err := c.tableInfo(name)
	if err != nil {
		t.Fatal(err)
	}
	if d := statsDiff(ti.Meta.Schema, ti.Meta.Stats, referenceStats(c, ti)); d != "" {
		t.Fatalf("%s: ANALYZE %s: %s", when, name, d)
	}
}

// TestAnalyzeMatchesReference: ANALYZE's typed sort and run-counted NDV
// give the statistics of the comparator sort and AppendKey map of
// analyzeReference — row count, null fraction, NDV, min, max and every
// histogram bucket — for every kind, NULLs and all-NULL columns, empty
// tables, fewer rows than histogram buckets and heavy ties, on row and
// columnar storage, and on a table analysed while bucket moves hold
// copied-but-not-cut-over rows the ownership filter must hide.
func TestAnalyzeMatchesReference(t *testing.T) {
	cases := []analyzeCase{
		{rows: 0, domain: 10},
		{rows: 5, domain: 50, nullRate: 0.2},
		{rows: 31, domain: 1000},
		{rows: 333, domain: 3, nullRate: 0.3},
		{rows: 100, domain: 10, nullRate: 1},
		{rows: 1200, domain: 400, nullRate: 0.1},
	}
	for _, storage := range []string{"ROW", "COLUMN"} {
		for seed, tc := range cases {
			t.Run(fmt.Sprintf("%s/%d", storage, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(seed)))
				c := newCluster(t, 3, ModeGTMLite)
				loadAnalyzeTable(t, c, rng, "a", storage, tc)
				checkAnalyze(t, c, "a", "loaded")
			})
		}
		t.Run(storage+"/moving", func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			c := newCluster(t, 2, ModeGTMLite)
			loadAnalyzeTable(t, c, rng, "a", storage, analyzeCase{rows: 600, domain: 40, nullRate: 0.1})
			id, err := c.AddDataNode()
			if err != nil {
				t.Fatal(err)
			}
			ti, err := c.tableInfo("a")
			if err != nil {
				t.Fatal(err)
			}
			phantoms := 0 // stored rows of the table ANALYZE must not count
			c.MoveHook = func(stage string, bucket, target int) {
				if stage != "copied" {
					return
				}
				checkAnalyze(t, c, "a", fmt.Sprintf("bucket %d -> dn%d copied", bucket, target))
				stored := 0
				for dn := 0; dn < c.DataNodeCount(); dn++ {
					stored += len(c.partitionRows(ti, dn, nil))
				}
				phantoms += stored - int(ti.Meta.Stats.Rows)
			}
			for n, b := range c.ExpansionPlan(id) {
				if n == 6 {
					break
				}
				if _, err := c.MoveBucket(b, id); err != nil {
					t.Fatal(err)
				}
			}
			c.MoveHook = nil
			if phantoms == 0 {
				t.Fatal("no bucket move left copied rows for the ownership filter to hide")
			}
			checkAnalyze(t, c, "a", "after the moves")
		})
	}
}
