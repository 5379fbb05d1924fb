package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/types"
)

func newCluster(t testing.TB, dataNodes int) (*cluster.Cluster, *cluster.Session) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: dataNodes, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	c.Hooks = plan.Hooks{GSpatial: Compile}
	return c, c.NewSession()
}

// point is one row of a points table; a NaN coordinate stands for NULL.
type point struct {
	id   int64
	x, y float64
}

func (p point) String() string { return fmt.Sprintf("(%d, %v, %v)", p.id, p.x, p.y) }

func coord(f float64) sqlx.Expr {
	if math.IsNaN(f) {
		return &sqlx.Literal{Value: types.Null}
	}
	return lit(f)
}

// createPoints creates the points table name through s and inserts pts.
func createPoints(t testing.TB, s *cluster.Session, name string, pts []point) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE "+name+" (id BIGINT PRIMARY KEY, x DOUBLE, y DOUBLE) DISTRIBUTE BY HASH(id)")
	insert(t, s, name, pts...)
}

func insert(t testing.TB, s *cluster.Session, name string, pts ...point) {
	t.Helper()
	if len(pts) == 0 {
		return
	}
	ins := &sqlx.Insert{Table: name}
	for _, p := range pts {
		ins.Rows = append(ins.Rows, []sqlx.Expr{&sqlx.Literal{Value: types.NewInt(p.id)}, coord(p.x), coord(p.y)})
	}
	if _, err := s.ExecStmt(ins); err != nil {
		t.Fatal(err)
	}
}

func mustExec(t testing.TB, s *cluster.Session, sql string) *cluster.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// rows runs SELECT * FROM gspatial('<src>') on s and returns its rows as
// points, in the order they came.
func rows(t testing.TB, s *cluster.Session, src string) []point {
	t.Helper()
	res := mustExec(t, s, "SELECT * FROM gspatial('"+src+"') AS g")
	out := make([]point, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = point{id: r[0].Int(), x: r[1].Float(), y: r[2].Float()}
	}
	return out
}

func ids(pts []point) []int64 {
	out := make([]int64, len(pts))
	for i, p := range pts {
		out[i] = p.id
	}
	return out
}

// gridOf creates table name holding the points (0..n-1, 0..n-1), ids in
// row-major order.
func gridOf(t testing.TB, s *cluster.Session, name string, n int) []point {
	t.Helper()
	var pts []point
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			pts = append(pts, point{int64(len(pts)), float64(x), float64(y)})
		}
	}
	createPoints(t, s, name, pts)
	return pts
}

// oracle answers fn(args) over pts by brute force, in the order Compile
// promises: bbox by id, radius and nearest by (d², id).
func oracle(pts []point, fn string, a []float64) []point {
	d2 := func(p point) float64 {
		dx, dy := p.x-a[0], p.y-a[1]
		return float64(dx*dx) + float64(dy*dy)
	}
	var out []point
	for _, p := range pts {
		switch {
		case math.IsNaN(p.x) || math.IsNaN(p.y):
		case fn == "bbox" && p.x >= a[0] && p.y >= a[1] && p.x <= a[2] && p.y <= a[3],
			fn == "radius" && d2(p) <= a[2]*a[2],
			fn == "nearest":
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(p, q point) int {
		if fn != "bbox" {
			if c := cmpFloat(d2(p), d2(q)); c != 0 {
				return c
			}
		}
		return int(p.id - q.id)
	})
	if fn == "nearest" && len(out) > int(a[2]) {
		out = out[:int(a[2])]
	}
	return out
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func call(table, fn string, args ...float64) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = strconv.FormatFloat(a, 'g', -1, 64)
	}
	return table + "." + fn + "(" + strings.Join(parts, ", ") + ")"
}

// randomPoints draws n points for the differential test: mostly on a small
// integer grid (duplicate positions, equal distances), some off it, some
// 1e6 or more away, and some with a NULL x or y.
func randomPoints(rng *rand.Rand, n int) []point {
	pts := make([]point, n)
	for i := range pts {
		p := point{id: int64(i*7 + rng.Intn(7)), x: float64(rng.Intn(21) - 10), y: float64(rng.Intn(21) - 10)}
		switch rng.Intn(10) {
		case 0:
			p.x += rng.Float64()
			p.y -= rng.Float64()
		case 1:
			p.x, p.y = (rng.Float64()*2-1)*4e6, -1e6-rng.Float64()*1e6
		case 2:
			if rng.Intn(2) == 0 {
				p.x = math.NaN()
			} else {
				p.y = math.NaN()
			}
		}
		pts[i] = p
	}
	return pts
}

// randomCall draws a query over n points: centres on and off the grid and
// far away, integer radii (points on the circle), k from 0 past n.
func randomCall(rng *rand.Rand, n int) (string, []float64) {
	c := func() float64 {
		if rng.Intn(8) == 0 {
			return 1e6 + float64(rng.Intn(3))
		}
		return float64(rng.Intn(25)-12) + float64(rng.Intn(2))/2
	}
	switch rng.Intn(3) {
	case 0:
		x0, y0 := c(), c()
		return "bbox", []float64{x0, y0, x0 + float64(rng.Intn(15)) - 2, y0 + float64(rng.Intn(15)) - 2}
	case 1:
		r := float64(rng.Intn(12))
		if rng.Intn(10) == 0 {
			r = 2e5
		}
		return "radius", []float64{c(), c(), r}
	default:
		return "nearest", []float64{c(), c(), float64(rng.Intn(n + 4))}
	}
}

// TestDifferentialSpatial: random bbox, radius and nearest queries over
// random point sets — empty, one point, many; negative coordinates,
// duplicate positions, ties at the k-th place, NULL coordinates, points 1e6
// or more away — answer exactly what a brute-force oracle answers, in
// order, on 1 and 4 data nodes and at every pushdown level.
func TestDifferentialSpatial(t *testing.T) {
	queries, answered := 0, 0
	for _, dns := range []int{1, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := []int{0, 1, 40, 150, 150, 300}[seed-1]
			pts := randomPoints(rng, n)
			c, s := newCluster(t, dns)
			createPoints(t, s, "pts", pts)
			calls := []struct {
				fn   string
				args []float64
			}{{"radius", []float64{0, 0, 2e5}}, {"nearest", []float64{0, 0, float64(n + 5)}}, {"nearest", []float64{1e6, -1e6, 3}}}
			for i := 0; i < 30; i++ {
				fn, args := randomCall(rng, n)
				calls = append(calls, struct {
					fn   string
					args []float64
				}{fn, args})
			}
			for _, level := range plan.PushdownLadder {
				c.Pushdown = level
				for _, q := range calls {
					src := call("pts", q.fn, q.args...)
					got, want := rows(t, s, src), oracle(pts, q.fn, q.args)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%d DNs, seed %d, %v: %s\n got %v\nwant %v", dns, seed, level, src, got, want)
					}
					queries, answered = queries+1, answered+len(got)
				}
			}
		}
	}
	t.Logf("%d queries agree with the oracle, %d answer rows", queries, answered)
}

func TestInsertGetRemove(t *testing.T) {
	_, s := newCluster(t, 2)
	createPoints(t, s, "pts", []point{{1, 2, 3}})
	if got := rows(t, s, "pts.bbox(2, 3, 2, 3)"); fmt.Sprint(got) != "[(1, 2, 3)]" {
		t.Fatalf("get = %v", got)
	}
	// Move.
	mustExec(t, s, "UPDATE pts SET x = 100.0, y = 100.0 WHERE id = 1")
	if got := rows(t, s, "pts.nearest(0, 0, 5)"); fmt.Sprint(got) != "[(1, 100, 100)]" {
		t.Fatalf("after the move = %v", got)
	}
	if got := rows(t, s, "pts.bbox(0, 0, 10, 10)"); len(got) != 0 {
		t.Errorf("old position still found: %v", got)
	}
	mustExec(t, s, "DELETE FROM pts WHERE id = 1")
	if got := rows(t, s, "pts.nearest(0, 0, 5)"); len(got) != 0 {
		t.Errorf("after the delete: %v", got)
	}
}

func TestBBox(t *testing.T) {
	_, s := newCluster(t, 2)
	gridOf(t, s, "pts", 20) // points (0..19, 0..19)
	got := rows(t, s, "pts.bbox(5, 5, 7, 7)")
	if len(got) != 9 {
		t.Fatalf("bbox = %d points", len(got))
	}
	for i, p := range got {
		if p.x < 5 || p.x > 7 || p.y < 5 || p.y > 7 {
			t.Errorf("point outside box: %v", p)
		}
		if i > 0 && p.id <= got[i-1].id {
			t.Errorf("not ordered by id: %v", got)
		}
	}
	// Box spanning negative space.
	insert(t, s, "pts", point{9999, -3, -3})
	if got := rows(t, s, "pts.bbox(-5, -5, -1, -1)"); fmt.Sprint(ids(got)) != "[9999]" {
		t.Errorf("negative bbox = %v", got)
	}
}

func TestRadius(t *testing.T) {
	_, s := newCluster(t, 2)
	gridOf(t, s, "pts", 10)
	got := rows(t, s, "pts.radius(5, 5, 1.5)")
	// (5,5), 4 at distance 1 by id, 4 at distance sqrt(2) by id.
	if fmt.Sprint(ids(got)) != "[55 45 54 56 65 44 46 64 66]" {
		t.Errorf("radius = %v", got)
	}
	// The circle is inclusive: (5,5) to (8,9) is exactly 5.
	if got := rows(t, s, "pts.radius(8, 9, 5)"); !slices.Contains(ids(got), 55) {
		t.Errorf("a point on the circle was left out: %v", ids(got))
	}
}

func TestNearestExactness(t *testing.T) {
	// Compare k-NN against brute force on random data.
	rng := rand.New(rand.NewSource(7))
	pts := make([]point, 500)
	for i := range pts {
		pts[i] = point{int64(i), rng.Float64() * 1000, rng.Float64() * 1000}
	}
	_, s := newCluster(t, 2)
	createPoints(t, s, "pts", pts)
	for trial := 0; trial < 20; trial++ {
		qx, qy := rng.Float64()*1000, rng.Float64()*1000
		k := 1 + rng.Intn(10)
		got := rows(t, s, call("pts", "nearest", qx, qy, float64(k)))
		all := slices.Clone(pts)
		slices.SortFunc(all, func(p, q point) int {
			return cmpFloat(math.Hypot(p.x-qx, p.y-qy), math.Hypot(q.x-qx, q.y-qy))
		})
		if len(got) != k {
			t.Fatalf("k-NN returned %d, want %d", len(got), k)
		}
		for i := range got {
			gd, bd := math.Hypot(got[i].x-qx, got[i].y-qy), math.Hypot(all[i].x-qx, all[i].y-qy)
			if math.Abs(gd-bd) > 1e-9 {
				t.Fatalf("trial %d: k-NN[%d] distance %f, brute force %f", trial, i, gd, bd)
			}
		}
	}
}

func TestNearestEdgeCases(t *testing.T) {
	_, s := newCluster(t, 2)
	createPoints(t, s, "pts", nil)
	if got := rows(t, s, "pts.nearest(0, 0, 3)"); len(got) != 0 {
		t.Error("an empty table should return nothing")
	}
	insert(t, s, "pts", point{1, 5, 5})
	if got := rows(t, s, "pts.nearest(0, 0, 0)"); len(got) != 0 {
		t.Error("k=0 should return nothing")
	}
	if got := rows(t, s, "pts.nearest(0, 0, 5)"); fmt.Sprint(ids(got)) != "[1]" {
		t.Errorf("k > n should return all: %v", got)
	}
	// A query far from all data, and data far from the query.
	insert(t, s, "pts", point{2, 10000, 10000})
	if got := rows(t, s, "pts.nearest(-5000, -5000, 1)"); fmt.Sprint(ids(got)) != "[1]" {
		t.Errorf("far query = %v", got)
	}
	mustExec(t, s, "DELETE FROM pts WHERE id = 1")
	if got := rows(t, s, "pts.nearest(-1e6, -1e6, 1)"); fmt.Sprint(ids(got)) != "[2]" {
		t.Errorf("a point 1e6 away = %v", got)
	}
	// A radius far larger than the data costs no more than a small one.
	if got := rows(t, s, "pts.radius(0, 0, 2e5)"); fmt.Sprint(ids(got)) != "[2]" {
		t.Errorf("radius 2e5 = %v", got)
	}
}

func TestBBoxRadiusConsistencyProperty(t *testing.T) {
	// Property: radius(r) ⊆ bbox of side 2r and every radius result is
	// within r.
	_, s := newCluster(t, 2)
	tables := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]point, 200)
		for i := range pts {
			pts[i] = point{int64(i), rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		}
		tables++
		name := fmt.Sprintf("pts%d", tables)
		createPoints(t, s, name, pts)
		qx, qy, r := rng.Float64()*100, rng.Float64()*100, 5+rng.Float64()*30
		rad := rows(t, s, call(name, "radius", qx, qy, r))
		inBox := ids(rows(t, s, call(name, "bbox", qx-r, qy-r, qx+r, qy+r)))
		for _, p := range rad {
			if !slices.Contains(inBox, p.id) || math.Hypot(p.x-qx, p.y-qy) > r+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentUse(t *testing.T) {
	c, s := newCluster(t, 2)
	createPoints(t, s, "pts", nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(s *cluster.Session) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := s.ExecStmt(&sqlx.Insert{Table: "pts", Rows: [][]sqlx.Expr{{
					&sqlx.Literal{Value: types.NewInt(int64(w*200 + i))}, lit(float64(i)), lit(float64(w)),
				}}}); err != nil {
					t.Error(err)
					return
				}
				for _, src := range []string{"pts.bbox(0, 0, 50, 50)", call("pts", "nearest", float64(i), float64(w), 3)} {
					if _, err := s.Exec("SELECT * FROM gspatial('" + src + "') AS g"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c.NewSession())
	}
	wg.Wait()
	if got := rows(t, s, "pts.bbox(0, 0, 199, 3)"); len(got) != 800 {
		t.Errorf("len = %d", len(got))
	}
}

// TestInputErrors: what arrives from the SQL text is refused at plan time,
// with an error that names the cause.
func TestInputErrors(t *testing.T) {
	_, s := newCluster(t, 2)
	createPoints(t, s, "pts", []point{{1, 1, 1}})
	mustExec(t, s, "CREATE TABLE noy (id BIGINT, x DOUBLE) DISTRIBUTE BY HASH(id)")
	mustExec(t, s, "CREATE TABLE intx (id BIGINT, x BIGINT, y DOUBLE) DISTRIBUTE BY HASH(id)")
	for src, cause := range map[string]string{
		"pts.frob(1)":              `unknown function "frob"`,
		"nearest(0, 0, 1)":         "names no table",
		".nearest(0, 0, 1)":        "is not <table>",
		"pts.nearest(0, 0, 1":      "is not <table>",
		"pts.bbox(0, 0, 1)":        "bbox() takes 4 arguments, got 3",
		"pts.radius()":             "radius() takes 3 arguments, got 0",
		"pts.nearest(0, 0, 1, 2)":  "nearest() takes 3 arguments, got 4",
		"pts.radius(0, zero, 1)":   "argument 2 (zero) is not a number",
		"pts.radius(0, , 1)":       "unexpected , in expression",
		"pts.radius(NaN, 0, 1)":    "argument 1 (NaN) is not a number",
		"pts.bbox(0, 0, Inf, 1)":   "argument 3 (Inf) is not a number",
		"pts.bbox(0, 0, 1, -inf)":  "argument 4 ((- inf)) is not a number",
		"pts.radius(0x1p-2, 0, 1)": "argument 1 of radius()",
		"pts.radius(0, 'x', 1)":    "argument 2 ('x') is not a number",
		"pts.radius(0, 0, 1e999)":  `bad number "1e999"`,
		"pts.radius(0, 0, -1)":     "the radius -1 is negative",
		"pts.nearest(0, 0, -1)":    "k = -1 is not a non-negative integer",
		"pts.nearest(0, 0, 2.5)":   "k = 2.5 is not a non-negative integer",
		"pts.nearest(0, 0, 1e19)":  "k = 1e+19 is not a non-negative integer",
		"nosuch.nearest(0, 0, 1)":  `table "nosuch" does not exist`,
		"noy.nearest(0, 0, 1)":     "table noy has no column y",
		"intx.nearest(0, 0, 1)":    "intx.x is BIGINT, want DOUBLE",
		"pts.nearest(0, 0, 1) x)":  "unexpected x after the chain",
		"pts.bbox(0, 0, 1, 1)(2)":  "unexpected ( after the chain",
		"pts.nearest(0,0,1).x()":   "is not <table>",
		"pts.nearest(0, 0, 1)\t\n": "",
	} {
		_, err := s.ExecStmt(&sqlx.Select{
			Items: []sqlx.SelectItem{{Star: true}},
			From:  []sqlx.TableRef{&sqlx.TableFunc{Name: "gspatial", Arg: &sqlx.Literal{Value: types.NewString(src)}, Alias: "g"}},
			Limit: -1,
		})
		switch {
		case cause == "" && err != nil:
			t.Errorf("%q: %v", src, err)
		case cause != "" && (err == nil || !strings.Contains(err.Error(), cause)):
			t.Errorf("%q: error %v, want one naming %q", src, err, cause)
		}
	}
}
