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

// starFixture builds a small star schema: a wide fact table and two
// dimensions of very different sizes, so greedy ordering has a real
// choice to make.
func starFixture() *fakeCatalog {
	c := &fakeCatalog{tables: map[string]*fakeTable{}}

	factSchema := types.NewSchema(
		types.Column{Name: "fk1", Kind: types.KindInt},
		types.Column{Name: "fk2", Kind: types.KindInt},
		types.Column{Name: "fv", Kind: types.KindInt},
	)
	var factRows []types.Row
	for i := 0; i < 400; i++ {
		factRows = append(factRows, types.Row{
			types.NewInt(int64(i % 20)), types.NewInt(int64(i % 5)), types.NewInt(int64(i)),
		})
	}
	c.tables["star.fact"] = &fakeTable{
		meta: &TableMeta{Name: "star.fact", Schema: factSchema, DistKey: 0, Stats: analyzeRows(factSchema, factRows)},
		rows: factRows,
	}

	d1Schema := types.NewSchema(
		types.Column{Name: "d1k", Kind: types.KindInt},
		types.Column{Name: "d1n", Kind: types.KindString},
	)
	var d1Rows []types.Row
	for i := 0; i < 20; i++ {
		d1Rows = append(d1Rows, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d1-%d", i))})
	}
	c.tables["star.d1"] = &fakeTable{
		meta: &TableMeta{Name: "star.d1", Schema: d1Schema, DistKey: 0, Stats: analyzeRows(d1Schema, d1Rows)},
		rows: d1Rows,
	}

	d2Schema := types.NewSchema(
		types.Column{Name: "d2k", Kind: types.KindInt},
		types.Column{Name: "d2n", Kind: types.KindString},
	)
	var d2Rows []types.Row
	for i := 0; i < 5; i++ {
		d2Rows = append(d2Rows, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d2-%d", i))})
	}
	c.tables["star.d2"] = &fakeTable{
		meta: &TableMeta{Name: "star.d2", Schema: d2Schema, DistKey: 0, Stats: analyzeRows(d2Schema, d2Rows)},
		rows: d2Rows,
	}
	return c
}

// TestGreedyThreeWayJoinCorrect checks a 3-table implicit join produces
// the same rows regardless of the order tables are written in FROM, and
// that SELECT * column order always follows the FROM clause even when the
// greedy planner reorders the joins internally.
func TestGreedyThreeWayJoinCorrect(t *testing.T) {
	queries := []string{
		"select * from star.fact, star.d1, star.d2 where fact.fk1 = d1.d1k and fact.fk2 = d2.d2k",
		"select * from star.d1, star.d2, star.fact where fact.fk1 = d1.d1k and fact.fk2 = d2.d2k",
		"select * from star.d2, star.fact, star.d1 where fact.fk1 = d1.d1k and fact.fk2 = d2.d2k",
	}
	wantCols := [][]string{
		{"fk1", "fk2", "fv", "d1k", "d1n", "d2k", "d2n"},
		{"d1k", "d1n", "d2k", "d2n", "fk1", "fk2", "fv"},
		{"d2k", "d2n", "fk1", "fk2", "fv", "d1k", "d1n"},
	}
	for qi, sql := range queries {
		p := newPlanner(starFixture())
		rows, plan := planAndRun(t, p, sql)
		// Every fact row matches exactly one d1 and one d2 row.
		if len(rows) != 400 {
			t.Errorf("q%d: rows = %d, want 400", qi, len(rows))
		}
		if len(plan.OutputNames) != len(wantCols[qi]) {
			t.Fatalf("q%d: names = %v", qi, plan.OutputNames)
		}
		for i, n := range wantCols[qi] {
			if plan.OutputNames[i] != n {
				t.Errorf("q%d: output col %d = %q, want %q (FROM order must survive reordering)", qi, i, plan.OutputNames[i], n)
			}
		}
		// Spot-check value alignment: the fv column must sit where the
		// FROM order puts it and agree with the fact row's keys.
		fvIdx := indexOf(plan.OutputNames, "fv")
		fk1Idx := indexOf(plan.OutputNames, "fk1")
		d1kIdx := indexOf(plan.OutputNames, "d1k")
		for _, r := range rows[:5] {
			if r[fk1Idx].Int() != r[d1kIdx].Int() {
				t.Fatalf("q%d: join key mismatch in row %v", qi, r)
			}
			if r[fvIdx].Int()%20 != r[fk1Idx].Int() {
				t.Fatalf("q%d: columns scrambled in row %v", qi, r)
			}
		}
	}
}

func indexOf(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}

// TestGreedyDeterministic plans the same statement repeatedly and expects
// the identical step list every time — tie-breaks must be stable.
func TestGreedyDeterministic(t *testing.T) {
	const sql = "select * from star.fact, star.d1, star.d2 where fact.fk1 = d1.d1k and fact.fk2 = d2.d2k"
	var first []string
	for i := 0; i < 20; i++ {
		p := newPlanner(starFixture())
		stmt, err := sqlx.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := p.PlanSelect(stmt.(*sqlx.Select))
		if err != nil {
			t.Fatal(err)
		}
		var steps []string
		for _, c := range plan.Counted {
			steps = append(steps, c.StepText)
		}
		if i == 0 {
			first = steps
			continue
		}
		if len(steps) != len(first) {
			t.Fatalf("run %d: %d steps, first run had %d", i, len(steps), len(first))
		}
		for j := range steps {
			if steps[j] != first[j] {
				t.Fatalf("run %d: step %d = %q, first run had %q", i, j, steps[j], first[j])
			}
		}
	}
}

// chainCatalog builds n small tables star.j0 … star.j<n-1>, keyed 0 … 9 and
// up, and the SQL of a count(*) over their join chain j0.k0 = j1.k1 = ….
func chainCatalog(n int) (*fakeCatalog, string) {
	c := &fakeCatalog{tables: map[string]*fakeTable{}}
	var from, where []string
	for ti := 0; ti < n; ti++ {
		schema := types.NewSchema(
			types.Column{Name: fmt.Sprintf("k%d", ti), Kind: types.KindInt},
			types.Column{Name: fmt.Sprintf("v%d", ti), Kind: types.KindInt},
		)
		var rows []types.Row
		for i := 0; i < 10*(ti%6+1); i++ { // unique keys: the chain joins 10 rows
			rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i))})
		}
		name := fmt.Sprintf("star.j%d", ti)
		c.tables[name] = &fakeTable{
			meta: &TableMeta{Name: name, Schema: schema, DistKey: 0, Stats: analyzeRows(schema, rows)},
			rows: rows,
		}
		from = append(from, name)
		if ti > 0 {
			where = append(where, fmt.Sprintf("j%d.k%d = j%d.k%d", ti-1, ti-1, ti, ti))
		}
	}
	return c, "select count(*) from " + strings.Join(from, ", ") + " where " + strings.Join(where, " and ")
}

// planBlock plans sql as PlanSelect does and returns the root block's
// planning context with the operator tree.
func planBlock(t *testing.T, c *fakeCatalog, sql string) (*pctx, exec.Operator) {
	t.Helper()
	stmt, err := sqlx.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var counted []*exec.Counted
	scans := map[*exec.Counted]*scanInfo{}
	pc := &pctx{p: newPlanner(c), ctes: map[string]*cteDef{}, counted: &counted, scans: &scans}
	op, _, _, err := pc.planSelect(stmt.(*sqlx.Select))
	if err != nil {
		t.Fatal(err)
	}
	return pc, op
}

// TestGreedySixTableBudget pins the greedy pass's budget as a count of
// scored pairs, not a clock: a 6-table chain scores every round (15 + 10 +
// 6 + 3 + 1 pairs) well inside greedyMaxPairs, so its order is the greedy
// one on any machine under any load, and it answers; a 30-table chain
// scores its first five rounds (435 + 406 + 378 + 351 + 325 = 1 895 pairs),
// stops at the sixth (300 more would pass 2 016) and folds the rest in list
// order — the same cut on every run.
func TestGreedySixTableBudget(t *testing.T) {
	for _, tc := range []struct{ tables, pairs int }{{6, 35}, {30, 1895}} {
		c, sql := chainCatalog(tc.tables)
		pc, op := planBlock(t, c, sql)
		if pc.pairsScored != tc.pairs || pc.pairsScored > greedyMaxPairs {
			t.Errorf("%d-table chain scored %d pairs, want %d (budget %d)", tc.tables, pc.pairsScored, tc.pairs, greedyMaxPairs)
		}
		if tc.tables > 6 {
			continue // list-order folding cross-joins what greedy merged apart: correct, but slow to run
		}
		rows, err := exec.Collect(exec.NewCtx(time.Unix(5000, 0)), op)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][0].Int() != 10 {
			t.Errorf("%d-table count = %v, want 10", tc.tables, rows)
		}
	}
}

// TestEstimateJoinCapsAtSmallerInput exercises the fixed estimator: an
// equi-join on the same key chain can never yield more rows than the
// larger input and never fewer than the smaller — the old multiplicative
// formula exploded on transitively-joined chains.
func TestEstimateJoinCapsAtSmallerInput(t *testing.T) {
	pc := &pctx{p: newPlanner(starFixture())}
	cases := []struct {
		l, r  float64
		nkeys int
		min   float64
		max   float64
	}{
		{1000, 10, 1, 10, 1000}, // one key: bounded by the inputs
		{1000, 10, 3, 10, 1000}, // extra keys only shrink the estimate
		{500, 500, 2, 500, 500}, // equal inputs with 2 keys floor at 500
		{0, 10, 1, 10, 1000},    // unknown side defaults, still bounded
	}
	for _, tc := range cases {
		got := pc.estimateJoin(tc.l, tc.r, tc.nkeys)
		if got < tc.min || got > tc.max {
			t.Errorf("estimateJoin(%v, %v, %d) = %v, want within [%v, %v]",
				tc.l, tc.r, tc.nkeys, got, tc.min, tc.max)
		}
	}
	// Cross joins keep the multiplicative form.
	if got := pc.estimateJoin(1000, 1000, 0); got <= 1000 {
		t.Errorf("cross join estimate = %v, want > input size", got)
	}
}

// costCatalog overrides the planner's selectivity constants — the
// CostCatalog seam tests (and experiments) use to steer ordering without
// rebuilding data.
type costCatalog struct {
	*fakeCatalog
	cm CostModel
}

func (c *costCatalog) Costs() CostModel { return c.cm }

// TestCostCatalogOverridesSelectivity checks a catalog-supplied cost model
// replaces the package defaults in join estimation.
func TestCostCatalogOverridesSelectivity(t *testing.T) {
	base := starFixture()
	cheap := &costCatalog{fakeCatalog: base, cm: CostModel{
		EqSelectivity: 0.5, RangeSelectivity: 0.5, LikeSelectivity: 0.5, JoinSelectivity: 0.5,
	}}
	pcDefault := &pctx{p: newPlanner(base)}
	pcCheap := &pctx{p: &Planner{Catalog: cheap, Access: base}}

	// With two extra keys the default model shrinks the estimate by
	// JoinSelectivity² = 0.0001 (clamped at the smaller input, 10); the
	// override's 0.5² = 0.25 keeps the estimate at 2500.
	d := pcDefault.estimateJoin(10000, 10, 3)
	o := pcCheap.estimateJoin(10000, 10, 3)
	if d != 10 {
		t.Errorf("default est = %v, want the smaller-input floor of 10", d)
	}
	if o != 10000*0.5*0.5 {
		t.Errorf("override est = %v, want %v", o, 10000*0.5*0.5)
	}
}
