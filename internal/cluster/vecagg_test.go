package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/colstore"
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

// Row store and column store answer alike (issue 19): the DN-side vector
// sink, the DN-side row sink and the coordinator's operators share one group
// table, one accumulator and one key codec, so the three statements below —
// each wrong on one storage or the other before — cannot differ by storage.

// TestGroupKeysIdenticalAcrossStorage groups by two text columns whose
// values collide under a joined-text key: ('a, b','c') with ('a','b, c'),
// and NULL with 'NULL'.
func TestGroupKeysIdenticalAcrossStorage(t *testing.T) {
	var answers []string
	for _, st := range randomStorages {
		c := newCluster(t, 2, ModeGTMLite)
		s := c.NewSession()
		mustExec(t, s, "CREATE TABLE g (id BIGINT, a TEXT, b TEXT) DISTRIBUTE BY HASH(id)"+st.clause)
		mustExec(t, s, "INSERT INTO g VALUES (1, 'a, b', 'c'), (2, 'a', 'b, c'), (3, NULL, 'x'), (4, 'NULL', 'x')")
		sweepPushdown(c, func(label string) {
			res := mustExec(t, s, "SELECT a, b, count(*) FROM g GROUP BY a, b")
			if len(res.Rows) != 4 {
				t.Errorf("%s %s: %d groups, want 4: %v", st.name, label, len(res.Rows), res.Rows)
			}
			answers = append(answers, canon(res.Rows))
		})
	}
	for _, a := range answers {
		if a != answers[0] {
			t.Fatalf("answers differ by storage, level or degree:\n%s\n--- vs ---\n%s", answers[0], a)
		}
	}
}

// TestAggregateErrorsIdenticalAcrossStorage: sum() over TEXT or TIMESTAMP
// is the row path's error on every storage, not 0 or a number of
// nanoseconds on the columnar one; and a BIGINT sum is exact on every
// storage, at every pushdown level and degree, failing only when its total
// leaves the BIGINT range — not when a running or a data node's partial sum
// does — instead of wrapping around.
func TestAggregateErrorsIdenticalAcrossStorage(t *testing.T) {
	const maxI = "9223372036854775807"
	for _, st := range randomStorages {
		c := newCluster(t, 2, ModeGTMLite)
		s := c.NewSession()
		onto := func(id int64) int { return c.bmap.dn[BucketOf(types.NewInt(id))] }
		var ids []int64 // two ids on one data node, then one on the other
		for id := int64(1); len(ids) < 3; id++ {
			if n := len(ids); n == 0 || n == 1 && onto(id) == onto(ids[0]) || n == 2 && onto(id) != onto(ids[0]) {
				ids = append(ids, id)
			}
		}
		// All rows on one data node (by g), and spread by id: the sum of
		// rows ids[0] and ids[1] alone leaves the range.
		for _, dist := range []string{"g", "id"} {
			for _, tc := range []struct {
				table, values string
				sum           string // sum(v), or the error of a statement that sums
				avg, min      string
			}{
				{"o_" + dist, fmt.Sprintf("(%d, 1, %s), (%d, 1, 1)", ids[0], maxI, ids[1]),
					"exec: sum out of BIGINT range", "4.611686018427388e+18", "1"},
				{"r_" + dist, fmt.Sprintf("(%d, 1, %s), (%d, 1, 1), (%d, 1, -2)", ids[0], maxI, ids[1], ids[2]),
					"9223372036854775806", "3.0744573456182584e+18", "-2"},
			} {
				mustExec(t, s, "CREATE TABLE "+tc.table+" (id BIGINT, g BIGINT, v BIGINT) DISTRIBUTE BY HASH("+dist+")"+st.clause)
				mustExec(t, s, "INSERT INTO "+tc.table+" VALUES "+tc.values)
				n := strings.Count(tc.values, "(")
				sweepPushdown(c, func(label string) {
					for q, want := range map[string]string{
						"SELECT g, sum(v) FROM " + tc.table + " GROUP BY g": "[(1, " + tc.sum + ")]",
						"SELECT sum(v) FROM " + tc.table:                    "[(" + tc.sum + ")]",
						"SELECT count(*), sum(v) FROM " + tc.table:          fmt.Sprintf("[(%d, %s)]", n, tc.sum),
						"SELECT avg(v), min(v), max(v) FROM " + tc.table:    fmt.Sprintf("[(%s, %s, %s)]", tc.avg, tc.min, maxI),
					} {
						if strings.HasPrefix(tc.sum, "exec:") && strings.Contains(q, "sum(") {
							want = tc.sum
						}
						got := ""
						if res, err := s.Exec(q); err != nil {
							got = err.Error()
						} else {
							got = fmt.Sprint(res.Rows)
						}
						if got != want {
							t.Errorf("%s %s: %q = %s, want %s", st.name, label, q, got, want)
						}
					}
				})
			}
		}

		mustExec(t, s, "CREATE TABLE e (id BIGINT, a TEXT, ts TIMESTAMP) DISTRIBUTE BY HASH(id)"+st.clause)
		mustExec(t, s, "INSERT INTO e VALUES (1, 'x', '2024-01-01T00:00:00Z'), (2, 'y', '2024-01-02T00:00:00Z')")
		for q, want := range map[string]string{
			"SELECT sum(a) FROM e":                  "exec: sum over TEXT",
			"SELECT id, sum(ts) FROM e GROUP BY id": "exec: sum over TIMESTAMP",
		} {
			if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %q = %v, want error %q", st.name, q, err, want)
			}
		}
		// What does order still aggregates.
		res := mustExec(t, s, "SELECT min(a), max(a), count(ts), min(ts) < max(ts) FROM e")
		if got := fmt.Sprint(res.Rows[0]); got != "(x, y, 2, true)" {
			t.Errorf("%s: min/max over TEXT and TIMESTAMP = %s", st.name, got)
		}
	}
}

// TestBigIntsAbove2To53StayDistinct: DISTINCT, GROUP BY and an equi-join
// tell 2^53 from 2^53+1 (a key built from float64(v) did not), while INT 3
// still joins DOUBLE 3.0; and a pushed comparison of a BIGINT column with a
// DOUBLE, or of a DOUBLE column with a BIGINT above 2^53, selects exactly
// as types.Compare orders them, NaN above every number, at every level —
// the columnar kernels once compared through float64 and Go's NaN.
func TestBigIntsAbove2To53StayDistinct(t *testing.T) {
	for _, st := range randomStorages {
		c := newCluster(t, 2, ModeGTMLite)
		s := c.NewSession()
		mustExec(t, s, "CREATE TABLE big (id BIGINT, v BIGINT) DISTRIBUTE BY HASH(id)"+st.clause)
		mustExec(t, s, "CREATE TABLE fl (id BIGINT, f DOUBLE) DISTRIBUTE BY HASH(id)"+st.clause)
		mustExec(t, s, "CREATE TABLE edge (id BIGINT, v BIGINT, f DOUBLE) DISTRIBUTE BY HASH(id)"+st.clause)
		mustExec(t, s, "INSERT INTO big VALUES (1, 9007199254740992), (2, 9007199254740993), (3, 9007199254740992), (4, 3)")
		mustExec(t, s, "INSERT INTO fl VALUES (1, 3.0), (2, 3.5)")
		// f: 2^53, NaN, 1.5 and NULL beside v: 2^53 - 1, 2^53, 2^53 + 1 and NULL.
		mustExec(t, s, "INSERT INTO edge VALUES (1, 9007199254740991, 9007199254740992.0), "+
			"(2, 9007199254740992, 1e308 * 10 - 1e308 * 10), (3, 9007199254740993, 1.5), (4, NULL, NULL)")
		sweepPushdown(c, func(label string) {
			for q, want := range map[string]string{
				"SELECT id FROM edge WHERE v > 9007199254740992.0 ORDER BY id":       "[(3)]",
				"SELECT id FROM edge WHERE v = 9007199254740992.0 ORDER BY id":       "[(2)]",
				"SELECT id FROM edge WHERE v <> 9007199254740992.0 ORDER BY id":      "[(1) (3)]",
				"SELECT id FROM edge WHERE v >= 9007199254740991.5 ORDER BY id":      "[(2) (3)]",
				"SELECT id FROM edge WHERE f < 9007199254740993 ORDER BY id":         "[(1) (3)]",
				"SELECT id FROM edge WHERE f >= 9007199254740993 ORDER BY id":        "[(2)]",
				"SELECT id FROM edge WHERE f > 1.0 ORDER BY id":                      "[(1) (2) (3)]",
				"SELECT id FROM edge WHERE f > 1.0 AND f < 2.0 ORDER BY id":          "[(3)]",
				"SELECT id FROM edge WHERE f <> 1.5 ORDER BY id":                     "[(1) (2)]",
				"SELECT id FROM edge WHERE f >= 1e308 * 10 - 1e308 * 10 ORDER BY id": "[(2)]",
			} {
				if got := fmt.Sprint(mustExec(t, s, q).Rows); got != want {
					t.Errorf("%s %s: %q = %s, want %s", st.name, label, q, got, want)
				}
			}
			for q, want := range map[string]string{
				"SELECT DISTINCT v FROM big ORDER BY v":                               "[(3) (9007199254740992) (9007199254740993)]",
				"SELECT v, count(*) FROM big GROUP BY v ORDER BY v":                   "[(3, 1) (9007199254740992, 2) (9007199254740993, 1)]",
				"SELECT count(DISTINCT v) FROM big":                                   "[(3)]",
				"SELECT x.id, y.id FROM big x JOIN big y ON x.v = y.v WHERE x.id = 2": "[(2, 2)]",
				"SELECT count(*) FROM big x JOIN big y ON x.v = y.v":                  "[(6)]",
				"SELECT big.id, fl.id FROM big JOIN fl ON big.v = fl.f":               "[(4, 1)]",
			} {
				if got := fmt.Sprint(mustExec(t, s, q).Rows); got != want {
					t.Errorf("%s %s: %q = %s, want %s", st.name, label, q, got, want)
				}
			}
		})
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

// TestVectorizedAggAllocationCeiling: the vector sink's scratch belongs to
// the fragment — once a batch's groups exist, folding another batch
// allocates nothing, whether its groups are numbered through the BIGINT memo
// (NULL keys included) or by their key bytes — and a global aggregate
// borrows no group-number scratch at all.
func TestVectorizedAggAllocationCeiling(t *testing.T) {
	const n = colstore.BatchSize
	grp := &colstore.Vector{Kind: types.KindInt, Nulls: make([]bool, n)}
	vi := &colstore.Vector{Kind: types.KindInt}
	vf := &colstore.Vector{Kind: types.KindFloat}
	name := &colstore.Vector{Kind: types.KindString}
	sel := make([]bool, n)
	for i := 0; i < n; i++ {
		grp.Ints = append(grp.Ints, int64(i%40)<<40)
		grp.Nulls[i] = i%9 == 0
		vi.Ints = append(vi.Ints, int64(i))
		vf.Floats = append(vf.Floats, float64(i)/4)
		name.Strs = append(name.Strs, fmt.Sprintf("n%d", i%7))
		sel[i] = i%5 != 0
	}
	b := &colstore.Batch{Cols: []*colstore.Vector{grp, vi, vf, name}, N: n}
	prog := &ndpProgram{scanCols: []int{0, 1, 2, 3}}
	ref := func(i int) exec.Expr { return &exec.ColRef{Index: i} }
	specs := []exec.AggSpec{
		{Kind: exec.AggCountStar},
		{Kind: exec.AggSum, Arg: ref(1)}, {Kind: exec.AggMin, Arg: ref(1)}, {Kind: exec.AggMax, Arg: ref(1)},
		{Kind: exec.AggSum, Arg: ref(2)}, {Kind: exec.AggMax, Arg: ref(2)}, {Kind: exec.AggCount, Arg: ref(2)},
		{Kind: exec.AggMin, Arg: ref(3)},
	}
	for _, tc := range []struct {
		name    string
		groupBy []exec.Expr
	}{
		{"BIGINT group", []exec.Expr{ref(0)}},
		{"two group columns", []exec.Expr{ref(3), ref(0)}},
		{"global", nil},
	} {
		p, ok := buildVecPlan(prog, tc.groupBy, specs)
		if !ok {
			t.Fatalf("%s: not vectorized", tc.name)
		}
		table := exec.NewAggTable(tc.groupBy, specs)
		fold := func() {
			if err := p.addBatch(table, b, sel); err != nil {
				t.Fatal(err)
			}
		}
		fold() // the groups now exist
		if allocs := testing.AllocsPerRun(20, fold); allocs != 0 {
			t.Errorf("%s: folding a batch of known groups allocates %.0f objects", tc.name, allocs)
		}
		if tc.groupBy == nil && p.scratch != nil {
			t.Error("global: group-number scratch taken")
		}
		p.release()
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
