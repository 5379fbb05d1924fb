package cluster

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/types"
)

// setupColFacts loads a columnar table whose aggregate answers are known.
func setupColFacts(t *testing.T, rows int) (*Cluster, *Session) {
	t.Helper()
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE cf (k BIGINT, grp BIGINT, vi BIGINT, vf DOUBLE, name TEXT) DISTRIBUTE BY HASH(k) USING COLUMN")
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO cf VALUES (%d, %d, %d, %d.5, 'n%d')", i, i%3, i, i, i%5))
	}
	return c, s
}

func TestVectorizedAggMatchesRowPath(t *testing.T) {
	_, s := setupColFacts(t, 300)
	// The vectorized path fires for this shape (columnar, no WHERE, plain
	// column refs); verify values against hand-computed answers.
	res := mustExec(t, s, "SELECT grp, count(*), sum(vi), min(vi), max(vi), sum(vf) FROM cf GROUP BY grp ORDER BY grp")
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for g := int64(0); g < 3; g++ {
		r := res.Rows[g]
		if r[0].Int() != g || r[1].Int() != 100 {
			t.Errorf("group %d header = %v", g, r)
		}
		wantSum := int64(100*g) + 3*4950 // g, g+3, ..., g+297
		if r[2].Int() != wantSum {
			t.Errorf("group %d sum = %v, want %d", g, r[2], wantSum)
		}
		if r[3].Int() != g || r[4].Int() != g+297 {
			t.Errorf("group %d min/max = %v/%v", g, r[3], r[4])
		}
		if r[5].Float() != float64(wantSum)+50 { // vf = vi + 0.5 each
			t.Errorf("group %d float sum = %v", g, r[5])
		}
	}
	// Global aggregate (no groups) through the same path.
	res = mustExec(t, s, "SELECT count(*), min(name), max(name) FROM cf")
	r := res.Rows[0]
	if r[0].Int() != 300 || r[1].Str() != "n0" || r[2].Str() != "n4" {
		t.Errorf("global agg = %v", r)
	}
	// WHERE stays on the vectorized path (the fragment program's select
	// stage runs first); results must agree with the generic path.
	res = mustExec(t, s, "SELECT count(*) FROM cf WHERE vi < 100")
	if res.Rows[0][0].Int() != 100 {
		t.Errorf("filtered count = %v", res.Rows[0][0])
	}
}

func TestVectorizedAggEmptyTable(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE e (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a) USING COLUMN")
	res := mustExec(t, s, "SELECT count(*), sum(b) FROM e")
	if res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty vectorized agg = %v", res.Rows[0])
	}
}

func TestVectorizedAggNulls(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE n (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a) USING COLUMN")
	mustExec(t, s, "INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30)")
	res := mustExec(t, s, "SELECT count(*), count(b), sum(b), min(b) FROM n")
	r := res.Rows[0]
	if r[0].Int() != 3 || r[1].Int() != 2 || r[2].Int() != 40 || r[3].Int() != 10 {
		t.Errorf("null handling = %v", r)
	}
}

func TestBuildVecPlanRejections(t *testing.T) {
	// A program scanning table columns 1 and 2 (positions 0 and 1).
	prog := &ndpProgram{scanCols: []int{1, 2}}
	// Non-column group expression.
	if _, ok := buildVecPlan(prog, []exec.Expr{&exec.BinOp{Op: "+", Left: &exec.ColRef{Index: 1}, Right: &exec.Const{Value: types.NewInt(1)}}}, nil); ok {
		t.Error("computed group expr must not vectorize")
	}
	// Non-column agg argument.
	specs := []exec.AggSpec{{Kind: exec.AggSum, Arg: &exec.Func{Name: "abs", Args: []exec.Expr{&exec.ColRef{Index: 1}}}}}
	if _, ok := buildVecPlan(prog, nil, specs); ok {
		t.Error("computed agg arg must not vectorize")
	}
	// A column the program does not scan.
	if _, ok := buildVecPlan(prog, []exec.Expr{&exec.ColRef{Index: 0}}, nil); ok {
		t.Error("unscanned group column must not vectorize")
	}
	// Plain shape vectorizes, sum and min sharing one scanned column.
	specs = []exec.AggSpec{
		{Kind: exec.AggCountStar},
		{Kind: exec.AggSum, Arg: &exec.ColRef{Index: 2}},
		{Kind: exec.AggMin, Arg: &exec.ColRef{Index: 2}},
	}
	p, ok := buildVecPlan(prog, []exec.Expr{&exec.ColRef{Index: 1}}, specs)
	if !ok {
		t.Fatal("plain shape must vectorize")
	}
	if fmt.Sprint(p.groupIdx, p.aggIdx) != "[0] [-1 1 1]" {
		t.Errorf("groupIdx, aggIdx = %v %v", p.groupIdx, p.aggIdx)
	}
}

func BenchmarkVectorizedVsRowAgg(b *testing.B) {
	mk := func(storage string) *Session {
		c, _ := New(Config{DataNodes: 1})
		s := c.NewSession()
		s.Exec(fmt.Sprintf("CREATE TABLE f (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING %s", storage))
		s.Exec("BEGIN")
		for i := 0; i < 30000; i++ {
			s.Exec(fmt.Sprintf("INSERT INTO f VALUES (%d, %d, %d)", i, i%4, i))
		}
		s.Exec("COMMIT")
		return s
	}
	b.Run("columnar-vectorized", func(b *testing.B) {
		s := mk("COLUMN")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec("SELECT grp, count(*), sum(v) FROM f GROUP BY grp"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("row-generic", func(b *testing.B) {
		s := mk("ROW")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec("SELECT grp, count(*), sum(v) FROM f GROUP BY grp"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
