package plan

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/types"
)

// ndpCatalog wraps fakeCatalog with NDPAccess support. The returned scan
// reads its ScanPushdown at emit time (late binding, like the engine) and
// honors Pred, Bloom, Cols (sparse rows) or Out (output rows, every output
// filled), TopN's order — the planner leaves no Sort above a pushed ORDER
// BY — and Agg, over a single "partition". TopN's bound is deliberately
// ignored: shipping more sorted rows than the fragment heap would is always
// safe, and it keeps the fake honest about the CN not depending on DN
// truncation.
type ndpCatalog struct {
	*fakeCatalog
	refuse    bool // refuse every spec
	refuseAgg bool // refuse specs with Agg
	aggCalls  int  // specs with Agg taken
	specs     map[string]*ScanPushdown
}

func (c *ndpCatalog) ScanNDP(meta *TableMeta, spec *ScanPushdown) (exec.Operator, bool) {
	if c.refuse || c.refuseAgg && spec.Agg != nil {
		return nil, false
	}
	if c.specs == nil {
		c.specs = map[string]*ScanPushdown{}
	}
	c.specs[strings.ToLower(meta.Name)] = spec
	tb := c.tables[strings.ToLower(meta.Name)]
	ctx := exec.NewCtx(time.Unix(0, 0))
	schema := meta.Schema
	if spec.Out != nil {
		schema = spec.OutSchema
	}
	src := exec.NewSource(meta.Name, schema, func(emit func(types.Row) bool) {
		bf := spec.Bloom.Get()
		var rows []types.Row
		for _, r := range tb.rows {
			if spec.Pred != nil {
				ok, err := exec.EvalBool(spec.Pred, ctx, r)
				if err != nil || !ok {
					continue
				}
			}
			if bf != nil {
				d := r[spec.BloomCol]
				if d.IsNull() || !bf.MayContain(d) {
					continue
				}
			}
			if spec.Out != nil {
				out := make(types.Row, len(spec.Out))
				for i, ci := range spec.Out {
					out[i] = r[ci]
				}
				r = out
			}
			rows = append(rows, r)
		}
		if spec.TopN != nil && len(spec.TopN.Keys) > 0 {
			sorted, err := exec.Collect(ctx, &exec.Sort{Child: exec.NewValues(schema, rows), Keys: spec.TopN.Keys})
			if err != nil {
				panic(err)
			}
			rows = sorted
		}
		for _, r := range rows {
			out := r
			if spec.Cols != nil && spec.Agg == nil && spec.Out == nil { // the aggregate reads whole rows
				out = make(types.Row, len(r))
				for _, ci := range spec.Cols {
					out[ci] = r[ci]
				}
			}
			if !emit(out) {
				return
			}
		}
	})
	if spec.Agg == nil {
		return src, true
	}
	c.aggCalls++
	return &exec.Agg{Child: src, GroupBy: spec.Agg.GroupBy, Aggs: spec.Agg.Aggs, Out: spec.Agg.Out}, true
}

func newNDPPlanner() (*ndpCatalog, *Planner) {
	nc := &ndpCatalog{fakeCatalog: newFixture()}
	return nc, &Planner{Catalog: nc, Access: nc}
}

func TestNDPScanSpecFilterProjectionTopN(t *testing.T) {
	nc, p := newNDPPlanner()
	rows, plan := planAndRun(t, p, "SELECT a1 FROM olap.t1 WHERE b1 < 100 ORDER BY a1 DESC LIMIT 5")
	want := []int64{49, 49, 48, 48, 47}
	if len(rows) != len(want) {
		t.Fatalf("rows = %v", rows)
	}
	for i, w := range want {
		if rows[i][0].Int() != w {
			t.Fatalf("row %d = %v, want %d", i, rows[i], w)
		}
	}
	spec := nc.specs["olap.t1"]
	if spec == nil || spec.Pred == nil {
		t.Fatal("predicate not pushed into the NDP spec")
	}
	// Only a1 is needed above the scan: the pushed filter consumed b1 and
	// the planner dropped its own Filter, so the ship set is just col 0.
	if len(spec.Cols) != 1 || spec.Cols[0] != 0 {
		t.Errorf("spec.Cols = %v, want [0]", spec.Cols)
	}
	if spec.TopN == nil || spec.TopN.Limit != 5 || len(spec.TopN.Keys) != 1 || !spec.TopN.Keys[0].Desc {
		t.Errorf("spec.TopN = %+v, want 1 desc key limit 5", spec.TopN)
	}
	// The CN plan must not re-filter: NDP filtering is exact.
	for _, cn := range plan.Counted {
		if strings.HasPrefix(cn.StepText, "FILTER(") {
			t.Errorf("CN filter survived NDP pushdown: %s", cn.StepText)
		}
	}
}

// cnSorts counts the Sort and TopN operators the coordinator runs.
func cnSorts(op exec.Operator) int {
	switch o := op.(type) {
	case *exec.Sort:
		return 1 + cnSorts(o.Child)
	case *exec.TopN:
		return 1 + cnSorts(o.Child)
	case *exec.Limit:
		return cnSorts(o.Child)
	case *exec.Project:
		return cnSorts(o.Child)
	case *exec.Filter:
		return cnSorts(o.Child)
	case *exec.Distinct:
		return cnSorts(o.Child)
	case *exec.Agg:
		return cnSorts(o.Child)
	case *exec.Counted:
		return cnSorts(o.Child)
	}
	return 0
}

// TestNDPOrderByPushdown: ORDER BY over a bare scan, with or without a
// LIMIT, is sorted by the scan (an unbounded TopN when there is no LIMIT)
// and the coordinator keeps neither Sort nor TopN — only the Limit, which
// applies LIMIT and OFFSET to the merged stream. Below +topn, and above
// anything but a bare scan, the coordinator sorts.
func TestNDPOrderByPushdown(t *testing.T) {
	for _, tc := range []struct {
		sql   string
		level PushdownLevel
		limit int64 // of the pushed TopN; -2: none pushed
		sorts int   // CN Sort and TopN operators
		first int64 // the first row's value
	}{
		{"SELECT a1 FROM olap.t1 WHERE b1 < 100 ORDER BY a1 DESC", PushdownBloom, -1, 0, 49},
		{"SELECT b1 FROM olap.t1 ORDER BY a1, b1 DESC LIMIT 3 OFFSET 2", PushdownBloom, 5, 0, 50},
		{"SELECT b1 FROM olap.t1 ORDER BY b1 + 1 DESC", PushdownTopN, -1, 0, 199},
		{"SELECT a1 FROM olap.t1 WHERE b1 < 100 ORDER BY a1 DESC", PushdownProjection, -2, 1, 49},
		{"SELECT a1 FROM olap.t1 ORDER BY a1 DESC LIMIT 5", PushdownFilter, -2, 1, 49},
		{"SELECT a1, count(*) FROM olap.t1 GROUP BY a1 ORDER BY a1 DESC", PushdownBloom, -2, 1, 49},
		{"SELECT DISTINCT a1 FROM olap.t1 ORDER BY a1 DESC", PushdownBloom, -2, 1, 49},
		{"SELECT t1.a1 FROM olap.t1, olap.t2 WHERE t1.a1 = t2.a2 ORDER BY t1.a1 DESC", PushdownBloom, -2, 1, 49},
	} {
		nc, p := newNDPPlanner()
		p.Pushdown = tc.level
		rows, plan := planAndRun(t, p, tc.sql)
		if len(rows) == 0 || rows[0][0].Int() != tc.first {
			t.Errorf("%s at %s: first row of %v, want %d", tc.sql, tc.level, rows[:min(3, len(rows))], tc.first)
		}
		limit := int64(-2)
		if spec := nc.specs["olap.t1"]; spec != nil && spec.TopN != nil {
			limit = spec.TopN.Limit
		}
		if limit != tc.limit {
			t.Errorf("%s at %s: pushed TopN limit %d, want %d", tc.sql, tc.level, limit, tc.limit)
		}
		if n := cnSorts(plan.Root); n != tc.sorts {
			t.Errorf("%s at %s: %d CN sorts, want %d", tc.sql, tc.level, n, tc.sorts)
		}
	}
}

func TestNDPBareLimitPushdown(t *testing.T) {
	nc, p := newNDPPlanner()
	rows, _ := planAndRun(t, p, "SELECT b1 FROM olap.t1 LIMIT 3")
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	spec := nc.specs["olap.t1"]
	if spec == nil || spec.TopN == nil || spec.TopN.Limit != 3 || len(spec.TopN.Keys) != 0 {
		t.Errorf("spec.TopN = %+v, want keyless limit 3", spec.TopN)
	}
	if spec != nil && spec.Pred != nil {
		t.Errorf("unexpected pred: %v", spec.Pred)
	}
}

func TestNDPTopNFallbacks(t *testing.T) {
	nc, p := newNDPPlanner()
	// DISTINCT must not push TopN (dedup happens above the scan) and must
	// ship all columns.
	planAndRun(t, p, "SELECT DISTINCT a1 FROM olap.t1 ORDER BY a1 LIMIT 3")
	if spec := nc.specs["olap.t1"]; spec == nil || spec.TopN != nil {
		t.Errorf("DISTINCT pushed TopN: %+v", spec)
	}
	// Aggregates consume the scan; the limit applies to groups, not rows.
	nc.specs = nil
	planAndRun(t, p, "SELECT a1, count(*) FROM olap.t1 GROUP BY a1 ORDER BY a1 LIMIT 4")
	if spec := nc.specs["olap.t1"]; spec != nil && spec.TopN != nil {
		t.Errorf("aggregate pushed TopN: %+v", spec.TopN)
	}
	// ORDER BY over a join output cannot push below either scan.
	nc.specs = nil
	planAndRun(t, p, "SELECT t1.b1 FROM olap.t1, olap.t2 WHERE t1.a1 = t2.a2 ORDER BY t1.b1 LIMIT 2")
	for name, spec := range nc.specs {
		if spec.TopN != nil {
			t.Errorf("join scan %s got TopN: %+v", name, spec.TopN)
		}
	}
}

func TestNDPSubqueryPredNotPushed(t *testing.T) {
	nc, p := newNDPPlanner()
	rows, _ := planAndRun(t, p, "SELECT b1 FROM olap.t1 WHERE b1 = (SELECT min(a2) FROM olap.t2)")
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Fatalf("rows = %v", rows)
	}
	// A subquery predicate is not partition-pure: it must stay in a CN
	// filter, never inside an NDP spec (the scan itself may still use NDP
	// with a nil pred).
	if spec, ok := nc.specs["olap.t1"]; ok && spec.Pred != nil {
		t.Errorf("impure predicate pushed into NDP spec: %v", spec.Pred)
	}
}

func TestNDPBloomOnInnerHashJoin(t *testing.T) {
	nc, p := newNDPPlanner()
	rows, _ := planAndRun(t, p, "SELECT t1.b1, t2.c2 FROM olap.t1, olap.t2 WHERE t1.a1 = t2.a2")
	if len(rows) != 200 {
		t.Fatalf("join rows = %d, want 200", len(rows))
	}
	probe := nc.specs["olap.t1"]
	if probe == nil || probe.Bloom == nil || probe.BloomCol != 0 {
		t.Fatalf("probe-side spec = %+v, want bloom on col 0", probe)
	}
	if build := nc.specs["olap.t2"]; build == nil || build.Bloom != nil {
		t.Errorf("build-side spec = %+v, want no bloom", build)
	}
}

// TestProjectionPushdownThroughPermutation: a two-table join written small
// side first is planned probing the larger side, under a projection that
// restores the written column order. That permutation must not widen the
// scans: each ships exactly the columns it ships when the join is written
// the other way round.
func TestProjectionPushdownThroughPermutation(t *testing.T) {
	for _, sel := range []string{"t2.c2", "t1.b1", "count(*)", "t1.b1, t2.c2"} {
		var cols [2]map[string][]int
		var rows [2][]types.Row
		for i, from := range []string{"olap.t1, olap.t2", "olap.t2, olap.t1"} {
			nc, p := newNDPPlanner()
			rows[i], _ = planAndRun(t, p, "SELECT "+sel+" FROM "+from+" WHERE t1.a1 = t2.a2")
			cols[i] = map[string][]int{}
			for name, spec := range nc.specs {
				cols[i][name] = spec.Cols
			}
			// Both orders probe with t1 (200 rows) and build on t2 (50).
			if probe := nc.specs["olap.t1"]; probe == nil || probe.Bloom == nil {
				t.Errorf("SELECT %s FROM %s: t1 is not the probe side", sel, from)
			}
		}
		if fmt.Sprint(cols[0]) != fmt.Sprint(cols[1]) {
			t.Errorf("SELECT %s: scans ship %v written t1 first, %v written t2 first", sel, cols[0], cols[1])
		}
		if fmt.Sprint(rows[0]) != fmt.Sprint(rows[1]) {
			t.Errorf("SELECT %s: the two FROM orders return different rows", sel)
		}
	}
}

func TestNDPBloomSkipsOuterJoin(t *testing.T) {
	nc, p := newNDPPlanner()
	rows, _ := planAndRun(t, p, "SELECT t1.b1 FROM olap.t1 LEFT JOIN olap.t2 ON t1.a1 = t2.a2")
	if len(rows) != 200 {
		t.Fatalf("left join rows = %d, want 200", len(rows))
	}
	// A bloom drop on the probe side would eat unmatched outer rows.
	if spec := nc.specs["olap.t1"]; spec == nil || spec.Bloom != nil {
		t.Errorf("outer join probe spec = %+v, want no bloom", spec)
	}
}

func TestNDPRefusalFallsBack(t *testing.T) {
	nc, p := newNDPPlanner()
	nc.refuse = true
	rows, plan := planAndRun(t, p, "SELECT a1 FROM olap.t1 WHERE b1 < 10")
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	// With the engine refusing, the filter must stay in the CN plan.
	var filtered bool
	for _, cn := range plan.Counted {
		if strings.HasPrefix(cn.StepText, "FILTER(") || strings.Contains(cn.StepText, "SCAN(") {
			filtered = true
		}
	}
	if !filtered {
		t.Error("no scan/filter step in fallback plan")
	}
}

// cnProjects counts the Project operators the coordinator runs.
func cnProjects(op exec.Operator) int {
	switch o := op.(type) {
	case *exec.Project:
		return 1 + cnProjects(o.Child)
	case *exec.Sort:
		return cnProjects(o.Child)
	case *exec.TopN:
		return cnProjects(o.Child)
	case *exec.Limit:
		return cnProjects(o.Child)
	case *exec.Distinct:
		return cnProjects(o.Child)
	case *exec.Counted:
		return cnProjects(o.Child)
	case *exec.HashJoin:
		return cnProjects(o.Left) + cnProjects(o.Right)
	}
	return 0
}

// TestNDPProjectionFold: from +projection up, a select list of bare
// columns over a bare scan — hidden ORDER BY columns included — becomes the
// scan's output row (ScanPushdown.Out) and the block builds no Project, but
// for the one that strips hidden columns. A pushed ORDER BY then keeps the
// block's keys, positions in that row. A computed output, a level below
// +projection, or a block over a join keeps the coordinator Project; a
// folded derived table ships only the outputs its reader reads, and takes
// no bloom filter.
func TestNDPProjectionFold(t *testing.T) {
	for _, tc := range []struct {
		sql      string
		level    PushdownLevel
		out      []int // the t1 scan's Out
		cols     []int // and its Cols
		projects int   // CN Project operators
		keys     string
		first    string // the first row
	}{
		{"SELECT b1, a1 FROM olap.t1 WHERE b1 < 100 ORDER BY a1 DESC LIMIT 5", PushdownBloom, []int{1, 0}, nil, 0, "$1 DESC", "(49, 49)"},
		{"SELECT b1, b1 FROM olap.t1 ORDER BY a1, b1 DESC LIMIT 3", PushdownBloom, []int{1, 1, 0}, []int{1}, 1, "$2, $0 DESC", "(150, 150)"},
		{"SELECT b1 FROM olap.t1 WHERE b1 > 10", PushdownProjection, []int{1}, []int{1}, 0, "", "(11)"},
		{"SELECT DISTINCT a1 FROM olap.t1", PushdownBloom, []int{0}, []int{0}, 0, "", "(0)"},
		{"SELECT x.b1 FROM (SELECT a1, b1 FROM olap.t1) x", PushdownBloom, []int{0, 1}, []int{1}, 1, "", "(0)"},
		{"SELECT b1 + 1 FROM olap.t1 ORDER BY a1 LIMIT 2", PushdownBloom, nil, []int{1}, 2, "OLAP.T1.A1", "(1)"},
		{"SELECT b1, a1 FROM olap.t1", PushdownFilter, nil, nil, 1, "", "(0, 0)"},
		{"SELECT t1.b1 FROM olap.t1, olap.t2 WHERE t1.a1 = t2.a2", PushdownBloom, nil, nil, 1, "", "(0)"},
		{"SELECT x.a1 FROM (SELECT b1, a1 FROM olap.t1) x, olap.t2 WHERE x.a1 = t2.a2", PushdownBloom, []int{1, 0}, []int{0}, 1, "", "(0)"},
	} {
		nc, p := newNDPPlanner()
		p.Pushdown = tc.level
		rows, plan := planAndRun(t, p, tc.sql)
		spec := nc.specs["olap.t1"]
		var keys []string
		if spec.TopN != nil {
			for _, k := range spec.TopN.Keys {
				keys = append(keys, k.Expr.String()+map[bool]string{true: " DESC"}[k.Desc])
			}
		}
		switch {
		case fmt.Sprintf("%#v %#v", spec.Out, spec.Cols) != fmt.Sprintf("%#v %#v", tc.out, tc.cols):
			t.Errorf("%s at %s: Out %#v, Cols %#v; want %#v, %#v", tc.sql, tc.level, spec.Out, spec.Cols, tc.out, tc.cols)
		case cnProjects(plan.Root) != tc.projects:
			t.Errorf("%s at %s: %d CN Projects, want %d", tc.sql, tc.level, cnProjects(plan.Root), tc.projects)
		case strings.Join(keys, ", ") != tc.keys:
			t.Errorf("%s at %s: pushed keys %q, want %q", tc.sql, tc.level, keys, tc.keys)
		case spec.Out != nil && spec.Bloom != nil:
			t.Errorf("%s at %s: a folded scan took a bloom filter", tc.sql, tc.level)
		case len(rows) == 0 || rows[0].String() != tc.first:
			t.Errorf("%s at %s: first row of %v, want %s", tc.sql, tc.level, rows[:min(3, len(rows))], tc.first)
		}
	}
}
