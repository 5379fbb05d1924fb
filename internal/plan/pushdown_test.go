package plan

import (
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sqlx"
	"repro/internal/types"
)

func TestPartialAggPushdownPlannerSide(t *testing.T) {
	ac, p := newNDPPlanner()
	rows, plan := planAndRun(t, p, "SELECT a1, count(*), sum(b1) FROM olap.t1 WHERE b1 < 100 GROUP BY a1")
	if len(rows) != 50 {
		t.Fatalf("groups = %d", len(rows))
	}
	if ac.aggCalls != 1 {
		t.Errorf("pushdown used %d times, want 1", ac.aggCalls)
	}
	// The scan step stays instrumented beside the AGG step: the pushed
	// aggregate's spec counts into it.
	var scan *exec.Counted
	for _, c := range plan.Counted {
		if strings.HasPrefix(c.StepText, "SCAN(") {
			scan = c
		}
	}
	if scan == nil || ac.specs["olap.t1"].Step != scan || !scan.OnDataNodes {
		t.Errorf("the pushed aggregate's spec does not count the scan step %v", scan)
	}
}

func TestPartialAggPushdownFallbacks(t *testing.T) {
	ac, p := newNDPPlanner()
	// avg is not mergeable.
	rows, _ := planAndRun(t, p, "SELECT avg(b1) FROM olap.t1")
	if rows[0][0].Float() != 99.5 {
		t.Errorf("avg = %v", rows[0][0])
	}
	// distinct is not mergeable.
	planAndRun(t, p, "SELECT count(DISTINCT a1) FROM olap.t1")
	// join input is not a single scan.
	planAndRun(t, p, "SELECT count(*) FROM olap.t1, olap.t2 WHERE t1.a1 = t2.a2")
	// A plain scan (PushdownOff) has no spec to carry the aggregate.
	p.Pushdown = PushdownOff
	rows, _ = planAndRun(t, p, "SELECT a1, count(*) FROM olap.t1 WHERE b1 < 100 GROUP BY a1")
	if len(rows) != 50 {
		t.Errorf("groups at %s = %d", p.Pushdown, len(rows))
	}
	p.Pushdown = PushdownBloom
	if ac.aggCalls != 0 {
		t.Errorf("fallback cases pushed down %d times", ac.aggCalls)
	}
	// Engine refusal falls back too.
	ac.refuseAgg = true
	rows, _ = planAndRun(t, p, "SELECT count(*) FROM olap.t1")
	if rows[0][0].Int() != 200 {
		t.Errorf("count = %v", rows[0][0])
	}
}

func TestCompileScalarHelper(t *testing.T) {
	c := newFixture()
	p := newPlanner(c)
	meta, _ := c.Resolve("olap.t1")
	scope := TableScope(meta, "t1")
	if i, err := scope.Resolve("t1", "b1"); err != nil || i != 1 {
		t.Fatalf("Resolve = %d, %v", i, err)
	}
	ast, _ := sqlx.ParseExpr("b1 * 2 + abs(a1)")
	ce, err := p.CompileScalar(ast, scope)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ce.Eval(exec.NewCtx(time.Unix(0, 0)), types.Row{types.NewInt(-3), types.NewInt(10)})
	if err != nil || v.Int() != 23 {
		t.Errorf("eval = %v, %v", v, err)
	}
}

func TestCompileExprShapes(t *testing.T) {
	// Exercise the remaining compile paths through full queries.
	p := newPlanner(newFixture())
	queries := map[string]int{
		"SELECT a1 FROM olap.t1 WHERE a1 IN (1, 2, 3) AND b1 IS NOT NULL":            12,
		"SELECT a1 FROM olap.t1 WHERE NOT (a1 BETWEEN 5 AND 49) AND b1 < 50":         5,
		"SELECT CASE WHEN a1 < 25 THEN 'lo' ELSE 'hi' END FROM olap.t1 WHERE b1 = 0": 1,
		"SELECT a1 FROM olap.t1 WHERE length('ab' || 'c') = a1 AND b1 < 50":          1,
		"SELECT a1 FROM olap.t1 WHERE coalesce(NULL, b1) = 7":                        1,
		"SELECT a1 FROM olap.t1 WHERE -a1 = -3 AND b1 < 50":                          1,
		"SELECT a1 FROM olap.t1 WHERE b1 < INTERVAL '10 nanoseconds'":                10,
	}
	for q, want := range queries {
		rows, _ := planAndRun(t, p, q)
		if len(rows) != want {
			t.Errorf("%q returned %d rows, want %d", q, len(rows), want)
		}
	}
}

func TestErrorTypesRender(t *testing.T) {
	msgs := []string{
		(&ErrTableNotFound{Name: "x"}).Error(),
		(&ErrColumnNotFound{Column: "c"}).Error(),
		(&ErrColumnNotFound{Table: "t", Column: "c"}).Error(),
		(&ErrAmbiguousColumn{Column: "c"}).Error(),
	}
	for _, m := range msgs {
		if m == "" {
			t.Error("empty error message")
		}
	}
}

func TestDefaultSelectivitiesWithoutStats(t *testing.T) {
	// A catalog without stats uses the classic defaults.
	c := newFixture()
	meta := c.tables["olap.t1"].meta
	saved := meta.Stats
	meta.Stats = nil
	defer func() { meta.Stats = saved }()
	p := newPlanner(c)
	_, plan := planAndRun(t, p, "SELECT * FROM olap.t1 WHERE b1 > 10 AND a1 IN (1,2) AND b1 BETWEEN 1 AND 5")
	for _, cn := range plan.Counted {
		if strings.HasPrefix(cn.StepText, "SCAN(") && cn.EstimatedRows <= 0 {
			t.Errorf("estimate = %f", cn.EstimatedRows)
		}
	}
}
