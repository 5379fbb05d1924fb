package spatial

import (
	"testing"

	"repro/internal/sqlx"
)

// FuzzSpatial: a gspatial(...) query arrives inside client SQL, so parsing
// and compiling any text must never panic. A text that parses as a call
// chain either compiles to a statement the planner accepts, or returns an
// error.
func FuzzSpatial(f *testing.F) {
	for _, seed := range []string{
		"pts.bbox(0, -1, 25, 1)",
		"pts.radius(50, 0, 15)",
		"pts.nearest(42, 0, 3)",
		"PTS.Nearest( -1e6 , 1E6 , 0 )",
		"pts.radius(0, 0, 2e5)",
		"pts.nearest(0, 0, 2.5)",
		"pts.radius(NaN, 0, 1)",
		"pts.radius(0x1p-2, 0, 1)",
		"bad.nearest(0, 0, 1)",
		"nosuch.bbox(1, 2, 3, 4)",
		"nearest(0, 0, 1)",
		"a.b.c.radius(1,2,3)",
		"pts.bbox(0, 0, 1, 1)(2)",
		"pts.nearest(0, - 1, 1e0)",
		"pts.radius(1e3, 'O''Brien', 1)",
		"values.in(1, 2, 3)",
		"pts.Limit(0, 0, 1).where(bbox(0, 0, 1, 1))",
	} {
		f.Add(seed)
	}
	c, s := newCluster(f, 2)
	createPoints(f, s, "pts", []point{{1, 1, 1}, {2, -3, 4}})
	mustExec(f, s, "CREATE TABLE bad (id BIGINT, x TEXT, y DOUBLE) DISTRIBUTE BY HASH(id)")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := sqlx.ParseChain(src); err != nil {
			return
		}
		sel, err := Compile(src, c)
		if err != nil {
			return
		}
		if _, err := s.ExecStmt(&sqlx.Explain{Stmt: sel}); err != nil {
			t.Fatalf("%q compiles to a statement the planner refuses: %v\n%s", src, err, sel)
		}
	})
}
