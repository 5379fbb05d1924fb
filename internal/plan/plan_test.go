package plan

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// fakeCatalog serves in-memory tables.
type fakeCatalog struct {
	tables map[string]*fakeTable
}

type fakeTable struct {
	meta *TableMeta
	rows []types.Row
}

func (c *fakeCatalog) Resolve(name string) (*TableMeta, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, &ErrTableNotFound{Name: name}
	}
	return t.meta, nil
}

func (c *fakeCatalog) Scan(meta *TableMeta, _ *exec.Counted) exec.Operator {
	t := c.tables[strings.ToLower(meta.Name)]
	return exec.NewSource(meta.Name, meta.Schema, func(emit func(types.Row) bool) {
		for _, r := range t.rows {
			if !emit(r) {
				return
			}
		}
	})
}

func newFixture() *fakeCatalog {
	c := &fakeCatalog{tables: map[string]*fakeTable{}}

	t1schema := types.NewSchema(
		types.Column{Name: "a1", Kind: types.KindInt},
		types.Column{Name: "b1", Kind: types.KindInt},
	)
	var t1rows []types.Row
	for i := 0; i < 200; i++ {
		t1rows = append(t1rows, types.Row{types.NewInt(int64(i % 50)), types.NewInt(int64(i))})
	}
	c.tables["olap.t1"] = &fakeTable{
		meta: &TableMeta{Name: "olap.t1", Schema: t1schema, DistKey: 0, Stats: analyzeRows(t1schema, t1rows)},
		rows: t1rows,
	}

	t2schema := types.NewSchema(
		types.Column{Name: "a2", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindString},
	)
	var t2rows []types.Row
	for i := 0; i < 50; i++ {
		t2rows = append(t2rows, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("name%d", i))})
	}
	c.tables["olap.t2"] = &fakeTable{
		meta: &TableMeta{Name: "olap.t2", Schema: t2schema, DistKey: 0, Stats: analyzeRows(t2schema, t2rows)},
		rows: t2rows,
	}
	return c
}

func planAndRun(t *testing.T, p *Planner, sql string) ([]types.Row, *Plan) {
	t.Helper()
	stmt, err := sqlx.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := p.PlanSelect(stmt.(*sqlx.Select))
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	rows, err := exec.Collect(exec.NewCtx(time.Unix(5000, 0)), plan.Root)
	if err != nil {
		t.Fatalf("run %q: %v", sql, err)
	}
	return rows, plan
}

func newPlanner(c *fakeCatalog) *Planner {
	return &Planner{Catalog: c, Access: c}
}

func TestSimpleSelect(t *testing.T) {
	p := newPlanner(newFixture())
	rows, plan := planAndRun(t, p, "SELECT a1, b1 FROM olap.t1 WHERE b1 < 10")
	if len(rows) != 10 {
		t.Errorf("rows = %d, want 10", len(rows))
	}
	if len(plan.OutputNames) != 2 || plan.OutputNames[0] != "a1" {
		t.Errorf("names = %v", plan.OutputNames)
	}
}

func TestStarExpansion(t *testing.T) {
	p := newPlanner(newFixture())
	rows, plan := planAndRun(t, p, "SELECT * FROM olap.t2 LIMIT 3")
	if len(rows) != 3 || len(rows[0]) != 2 {
		t.Errorf("rows = %v", rows)
	}
	if plan.OutputNames[1] != "c2" {
		t.Errorf("names = %v", plan.OutputNames)
	}
}

func TestPaperTableIQueryShape(t *testing.T) {
	// The exact §II-C / Table I query: implicit join + scan predicate.
	p := newPlanner(newFixture())
	rows, plan := planAndRun(t, p,
		"select * from olap.t1, olap.t2 where t1.a1 = t2.a2 and t1.b1 > 10")
	// b1 > 10 leaves 189 t1 rows, all a1 in [0,50) match exactly one t2 row.
	if len(rows) != 189 {
		t.Errorf("rows = %d, want 189", len(rows))
	}
	// Plan must contain an instrumented SCAN step with the predicate and a
	// JOIN step referencing both scans.
	var scanStep, joinStep *exec.Counted
	for _, c := range plan.Counted {
		if strings.HasPrefix(c.StepText, "SCAN(OLAP.T1") {
			scanStep = c
		}
		if strings.HasPrefix(c.StepText, "JOIN(") {
			joinStep = c
		}
	}
	if scanStep == nil {
		t.Fatalf("no t1 scan step; steps: %v", stepTexts(plan))
	}
	if want := "SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1 > 10))"; scanStep.StepText != want {
		t.Errorf("scan step = %q, want %q", scanStep.StepText, want)
	}
	if scanStep.ActualRows != 189 {
		t.Errorf("scan actual = %d, want 189", scanStep.ActualRows)
	}
	if joinStep == nil {
		t.Fatalf("no join step; steps: %v", stepTexts(plan))
	}
	if !strings.Contains(joinStep.StepText, "SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1 > 10))") ||
		!strings.Contains(joinStep.StepText, "SCAN(OLAP.T2)") ||
		!strings.Contains(joinStep.StepText, "PREDICATE(OLAP.T1.A1 = OLAP.T2.A2)") {
		t.Errorf("join step = %q", joinStep.StepText)
	}
	if joinStep.ActualRows != 189 {
		t.Errorf("join actual = %d", joinStep.ActualRows)
	}
	// Estimates come from histogram stats: b1 in [0,200), > 10 ≈ 94%.
	if scanStep.EstimatedRows < 120 || scanStep.EstimatedRows > 200 {
		t.Errorf("scan estimate = %f, want ≈ 189", scanStep.EstimatedRows)
	}
}

func stepTexts(p *Plan) []string {
	var out []string
	for _, c := range p.Counted {
		out = append(out, c.StepText)
	}
	return out
}

func TestJoinOrderIndependentStepText(t *testing.T) {
	p := newPlanner(newFixture())
	_, plan1 := planAndRun(t, p, "select * from olap.t1, olap.t2 where t1.a1 = t2.a2 and t1.b1 > 10")
	_, plan2 := planAndRun(t, p, "select * from olap.t2, olap.t1 where t2.a2 = t1.a1 and 10 < t1.b1")
	var j1, j2 string
	for _, c := range plan1.Counted {
		if strings.HasPrefix(c.StepText, "JOIN(") {
			j1 = c.StepText
		}
	}
	for _, c := range plan2.Counted {
		if strings.HasPrefix(c.StepText, "JOIN(") {
			j2 = c.StepText
		}
	}
	// Children sort lexicographically and predicates normalize, so the two
	// spellings must produce comparable join steps. A scan predicate's
	// spelling (B1 > 10 vs 10 < B1) may differ; children order must not.
	if !strings.HasPrefix(j1, "JOIN(SCAN(OLAP.T1") || !strings.HasPrefix(j2, "JOIN(SCAN(OLAP.T1") {
		t.Errorf("join children not canonically ordered:\n  %s\n  %s", j1, j2)
	}
}

// TestJoinStepIgnoresOrientation: which side a join probes follows the
// estimates, which the plan store itself corrects. The step a join's
// actuals are learned under must not move with it, or a learned estimate
// that flips the orientation would no longer be found.
func TestJoinStepIgnoresOrientation(t *testing.T) {
	c := newFixture()
	p := newPlanner(c)
	const q = "select * from olap.t1, olap.t2 where t1.a1 = t2.a2"
	step := func() string {
		_, plan := planAndRun(t, p, q)
		for _, cn := range plan.Counted {
			if strings.HasPrefix(cn.StepText, "JOIN(") {
				return cn.StepText
			}
		}
		t.Fatal("no join step")
		return ""
	}
	probeT1 := step() // t1 (200 rows) is larger: probed, as written
	t2 := c.tables["olap.t2"].meta
	saved := t2.Stats
	defer func() { t2.Stats = saved }()
	t2.Stats = &TableStats{Rows: 5000, Cols: saved.Cols}
	if probeT2 := step(); probeT2 != probeT1 {
		t.Errorf("join step moved with the probe side:\n  %s\n  %s", probeT1, probeT2)
	}
}

func TestExplicitJoinOn(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p, "SELECT t2.c2 FROM olap.t1 t1 JOIN olap.t2 t2 ON t1.a1 = t2.a2 WHERE t1.b1 = 0")
	if len(rows) != 1 || rows[0][0].Str() != "name0" {
		t.Errorf("rows = %v", rows)
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	p := newPlanner(newFixture())
	// b1 values 0..199; t2 has a2 0..49. Join t2 to t1 rows with b1=a2*0
	// trick: join ON t2.a2 = t1.b1 keeps t2 rows with a2 < 200 matched.
	rows, _ := planAndRun(t, p, "SELECT t2.a2, t1.b1 FROM olap.t2 t2 LEFT JOIN olap.t1 t1 ON t2.c2 = 'nomatch' AND t2.a2 = t1.b1")
	if len(rows) != 50 {
		t.Fatalf("left join rows = %d, want 50", len(rows))
	}
	for _, r := range rows {
		if !r[1].IsNull() {
			t.Errorf("expected all null-extended, got %v", r)
		}
	}
}

func TestAggregationGrouped(t *testing.T) {
	p := newPlanner(newFixture())
	rows, plan := planAndRun(t, p,
		"SELECT a1, count(*) AS n, sum(b1) AS s FROM olap.t1 GROUP BY a1 HAVING count(*) > 1 ORDER BY n DESC, a1 LIMIT 5")
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every a1 appears 4 times (200 rows, 50 distinct).
	if rows[0][1].Int() != 4 {
		t.Errorf("count = %v", rows[0][1])
	}
	if rows[0][0].Int() != 0 {
		t.Errorf("first group should be a1=0 after DESC count + a1 tiebreak: %v", rows[0])
	}
	// sum(b1) for a1=0: rows 0,50,100,150 -> 300.
	if rows[0][2].Int() != 300 {
		t.Errorf("sum = %v", rows[0][2])
	}
	// Aggregation step is instrumented.
	foundAgg := false
	for _, c := range plan.Counted {
		if strings.HasPrefix(c.StepText, "AGG(") {
			foundAgg = true
			if c.ActualRows != 50 {
				t.Errorf("agg actual = %d, want 50", c.ActualRows)
			}
		}
	}
	if !foundAgg {
		t.Error("no AGG step instrumented")
	}
}

func TestAggregationNoGroup(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p, "SELECT count(*), min(b1), max(b1), avg(b1) FROM olap.t1")
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[0].Int() != 200 || r[1].Int() != 0 || r[2].Int() != 199 || r[3].Float() != 99.5 {
		t.Errorf("aggregates = %v", r)
	}
}

func TestGroupByExpressionReuse(t *testing.T) {
	p := newPlanner(newFixture())
	// Select references the group expression with different qualification.
	rows, _ := planAndRun(t, p, "SELECT t1.a1 % 10, count(*) FROM olap.t1 t1 GROUP BY a1 % 10 ORDER BY 1")
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].Int() != 0 || rows[0][1].Int() != 20 {
		t.Errorf("first group = %v", rows[0])
	}
}

func TestUnaggregatedColumnRejected(t *testing.T) {
	p := newPlanner(newFixture())
	stmt, _ := sqlx.Parse("SELECT b1, count(*) FROM olap.t1 GROUP BY a1")
	if _, err := p.PlanSelect(stmt.(*sqlx.Select)); err == nil {
		t.Error("ungrouped column must be rejected")
	}
}

func TestDistinctAndOrderByPosition(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p, "SELECT DISTINCT a1 FROM olap.t1 ORDER BY 1 DESC LIMIT 3")
	if len(rows) != 3 || rows[0][0].Int() != 49 || rows[2][0].Int() != 47 {
		t.Errorf("rows = %v", rows)
	}
}

func TestOrderByHiddenColumn(t *testing.T) {
	p := newPlanner(newFixture())
	// ORDER BY expression not in the select list -> hidden sort column.
	rows, _ := planAndRun(t, p, "SELECT a1 FROM olap.t1 WHERE b1 < 5 ORDER BY b1 DESC")
	if len(rows) != 5 || len(rows[0]) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Int() != 4 || rows[4][0].Int() != 0 {
		t.Errorf("order wrong: %v", rows)
	}
}

func TestCTEsMaterializeOnce(t *testing.T) {
	c := newFixture()
	scans := 0
	base := c.tables["olap.t1"]
	c.tables["counted"] = &fakeTable{meta: base.meta, rows: base.rows}
	p := &Planner{Catalog: c, Access: scanCounter{c, &scans}}
	rows, _ := planAndRun(t, p,
		"WITH x AS (SELECT a1 FROM olap.t1 WHERE b1 < 20) SELECT * FROM x AS u, x AS v WHERE u.a1 = v.a1")
	if len(rows) != 20 {
		t.Errorf("rows = %d, want 20", len(rows))
	}
	if scans != 1 {
		t.Errorf("CTE body scanned %d times, want 1", scans)
	}
}

type scanCounter struct {
	inner *fakeCatalog
	n     *int
}

func (s scanCounter) Scan(meta *TableMeta, step *exec.Counted) exec.Operator {
	*s.n++
	return s.inner.Scan(meta, step)
}

func TestScalarSubqueryCorrelated(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p,
		"SELECT a2, (SELECT min(b1) FROM olap.t1 WHERE t1.a1 = t2.a2) FROM olap.t2 t2 WHERE a2 < 3 ORDER BY a2")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// min(b1) for a1=k is k (rows are b1 = i, a1 = i%50).
	for i, r := range rows {
		if r[1].Int() != int64(i) {
			t.Errorf("correlated min for a2=%d = %v", i, r[1])
		}
	}
}

// TestSubqueryCorrelatedThroughDerivedTable: a subquery whose only outer
// reference sits in a derived table of its FROM list is correlated, and is
// evaluated per outer row rather than once.
func TestSubqueryCorrelatedThroughDerivedTable(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p,
		"SELECT a2, (SELECT min(b1) FROM (SELECT b1 FROM olap.t1 WHERE t1.a1 = t2.a2) d) FROM olap.t2 t2 WHERE a2 < 3 ORDER BY a2")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i, r := range rows {
		if r[1].Int() != int64(i) {
			t.Errorf("min through a derived table for a2=%d = %v", i, r[1])
		}
	}
}

func TestInSubquery(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p,
		"SELECT c2 FROM olap.t2 WHERE a2 IN (SELECT a1 FROM olap.t1 WHERE b1 < 3) ORDER BY c2")
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p, "SELECT 1 + 2 AS three, 'x'")
	if len(rows) != 1 || rows[0][0].Int() != 3 || rows[0][1].Str() != "x" {
		t.Errorf("rows = %v", rows)
	}
}

func TestTableFuncHooks(t *testing.T) {
	c := newFixture()
	p := newPlanner(c)
	p.Hooks.GGraph = func(raw string, cat Catalog) (*sqlx.Select, error) {
		if _, err := cat.Resolve("olap.t1"); err != nil {
			return nil, err
		}
		stmt, err := sqlx.Parse("SELECT 11111 AS cid")
		return stmt.(*sqlx.Select), err
	}
	p.Hooks.GSpatial = func(raw string, cat Catalog) (*sqlx.Select, error) {
		stmt, err := sqlx.Parse("SELECT a1 AS id FROM olap.t1 WHERE b1 < 2")
		return stmt.(*sqlx.Select), err
	}
	rows, _ := planAndRun(t, p, "SELECT g.cid FROM ggraph('g.V().count()') AS g")
	if len(rows) != 1 || rows[0][0].Int() != 11111 {
		t.Errorf("rows = %v", rows)
	}
	rows, _ = planAndRun(t, p, "SELECT s.id FROM gspatial('t1.bbox(0, 0, 1, 1)') AS s")
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	// gtimeseries needs no hook.
	rows, _ = planAndRun(t, p, "SELECT * FROM gtimeseries(SELECT a1 FROM olap.t1 WHERE b1 < 2) AS ts")
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	// Unconfigured hooks error cleanly.
	p2 := newPlanner(c)
	for _, sql := range []string{"SELECT * FROM ggraph('g.V()') AS g", "SELECT * FROM gspatial('t1.bbox(0, 0, 1, 1)') AS g"} {
		stmt, _ := sqlx.Parse(sql)
		if _, err := p2.PlanSelect(stmt.(*sqlx.Select)); err == nil || !strings.Contains(err.Error(), "not configured") {
			t.Errorf("%s with no hook: %v, want not configured", sql, err)
		}
	}
}

func TestEstimatorOverride(t *testing.T) {
	c := newFixture()
	p := newPlanner(c)
	p.Estimator = fixedEstimator{"SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1 > 10))": 42}
	_, plan := planAndRun(t, p, "SELECT * FROM olap.t1 WHERE b1 > 10")
	for _, cn := range plan.Counted {
		if strings.HasPrefix(cn.StepText, "SCAN(OLAP.T1") && cn.EstimatedRows != 42 {
			t.Errorf("estimate = %f, want learned 42", cn.EstimatedRows)
		}
	}
}

type fixedEstimator map[string]float64

func (f fixedEstimator) LookupStep(s string) (float64, bool) {
	v, ok := f[s]
	return v, ok
}

func TestPlanErrors(t *testing.T) {
	p := newPlanner(newFixture())
	bad := []string{
		"SELECT nosuch FROM olap.t1",
		"SELECT * FROM nosuch",
		"SELECT t9.a1 FROM olap.t1 t1",
		"SELECT sum(b1) FROM olap.t1 WHERE sum(b1) > 1", // agg in WHERE
	}
	for _, sql := range bad {
		stmt, err := sqlx.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := p.PlanSelect(stmt.(*sqlx.Select)); err == nil {
			t.Errorf("PlanSelect(%q) should fail", sql)
		}
	}
}

func TestAnalyzeRowsStats(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindString},
	)
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		var b types.Datum
		if i%10 == 0 {
			b = types.Null
		} else {
			b = types.NewString(fmt.Sprintf("s%d", i%7))
		}
		rows = append(rows, types.Row{types.NewInt(int64(i)), b})
	}
	ts := analyzeRows(schema, rows)
	if ts.Rows != 1000 {
		t.Errorf("rows = %d", ts.Rows)
	}
	if ts.Cols[0].NDV != 1000 || ts.Cols[1].NDV != 7 {
		t.Errorf("ndv = %d, %d", ts.Cols[0].NDV, ts.Cols[1].NDV)
	}
	if ts.Cols[1].NullFrac != 0.1 {
		t.Errorf("nullfrac = %f", ts.Cols[1].NullFrac)
	}
	if ts.Cols[0].Min.Int() != 0 || ts.Cols[0].Max.Int() != 999 {
		t.Errorf("min/max = %v/%v", ts.Cols[0].Min, ts.Cols[0].Max)
	}
	// Histogram: P(a <= 500) ≈ 0.5.
	sel := ts.Cols[0].SelectivityLE(types.NewInt(500))
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("selectivity(a<=500) = %f", sel)
	}
	if got := ts.Cols[0].SelectivityLE(types.NewInt(-5)); got != 0 {
		t.Errorf("selectivity below min = %f", got)
	}
	if got := ts.Cols[0].SelectivityLE(types.NewInt(5000)); got != 1 {
		t.Errorf("selectivity above max = %f", got)
	}
}

func TestStepHelpers(t *testing.T) {
	s := ScanStep("olap.t1", []string{"OLAP.T1.B1 > 10"})
	if s != "SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1 > 10))" {
		t.Errorf("ScanStep = %q", s)
	}
	j1 := JoinStep("B", "A", []string{"p2", "p1"})
	j2 := JoinStep("A", "B", []string{"p1", "p2"})
	if j1 != j2 {
		t.Errorf("JoinStep not canonical: %q vs %q", j1, j2)
	}
	if h := StepHash(s); len(h) != 32 {
		t.Errorf("StepHash length = %d", len(h))
	}
	if NormalizePredicate("((a > 1))") != "a > 1" {
		t.Errorf("NormalizePredicate broken")
	}
	if NormalizePredicate("(a) AND (b)") != "(a) AND (b)" {
		t.Errorf("NormalizePredicate must not strip non-wrapping parens")
	}
}

func TestUnionAll(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p,
		"SELECT a1 FROM olap.t1 WHERE b1 < 2 UNION ALL SELECT a2 FROM olap.t2 WHERE a2 < 3 ORDER BY 1")
	// t1: b1 in {0,1} -> a1 {0,1}; t2: a2 {0,1,2} -> 5 rows with dups kept.
	if len(rows) != 5 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Int() != 0 || rows[4][0].Int() != 2 {
		t.Errorf("order = %v", rows)
	}
}

func TestUnionDistinct(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p,
		"SELECT a1 FROM olap.t1 WHERE b1 < 2 UNION SELECT a2 FROM olap.t2 WHERE a2 < 3 ORDER BY 1")
	// Distinct union of {0,1} and {0,1,2} = {0,1,2}.
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestUnionMixedAllSemantics(t *testing.T) {
	p := newPlanner(newFixture())
	// (A UNION B) dedupes; then UNION ALL C keeps C's duplicates.
	rows, _ := planAndRun(t, p,
		"SELECT 1 UNION SELECT 1 UNION ALL SELECT 1")
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestUnionWithCTE(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p,
		"WITH x AS (SELECT a1 FROM olap.t1 WHERE b1 < 2) SELECT * FROM x UNION ALL SELECT * FROM x")
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	p := newPlanner(newFixture())
	stmt, _ := sqlx.Parse("SELECT a1, b1 FROM olap.t1 UNION ALL SELECT a2 FROM olap.t2")
	if _, err := p.PlanSelect(stmt.(*sqlx.Select)); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestUnionLimit(t *testing.T) {
	p := newPlanner(newFixture())
	rows, _ := planAndRun(t, p,
		"SELECT a1 FROM olap.t1 UNION ALL SELECT a2 FROM olap.t2 LIMIT 7")
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// analyzeRows is ANALYZE over rows held in memory.
func analyzeRows(schema *types.Schema, rows []types.Row) *TableStats {
	b := NewStatsBuilder(schema)
	for _, r := range rows {
		b.AddRow(r)
	}
	return b.Stats()
}
