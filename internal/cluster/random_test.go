package cluster

// Differential testing: random predicates and aggregates run through the
// whole SQL stack (parser -> planner -> distributed execution) and against
// an independent reference evaluator written directly in Go with SQL
// ternary-logic semantics. Any mismatch is a real engine bug. Every trial
// is swept over pushdown level × parallel degree on a row-store and a
// columnar table, so the one fragment program is checked against the model
// in every shape it is compiled to — and runs both as literal text and
// prepared by shape with its values bound (shapeTwin), which must agree on
// the answer and on what storage did for it: versions visited, segments and
// rows scanned and pruned.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// refRow is the reference copy of one table row; nil means SQL NULL.
type refRow struct {
	a, b *int64
	c, d *string
}

// tern is three-valued logic.
type tern int8

const (
	ternFalse tern = iota
	ternTrue
	ternUnknown
)

func ternOf(b bool) tern {
	if b {
		return ternTrue
	}
	return ternFalse
}

func (t tern) and(o tern) tern {
	if t == ternFalse || o == ternFalse {
		return ternFalse
	}
	if t == ternUnknown || o == ternUnknown {
		return ternUnknown
	}
	return ternTrue
}

func (t tern) or(o tern) tern {
	if t == ternTrue || o == ternTrue {
		return ternTrue
	}
	if t == ternUnknown || o == ternUnknown {
		return ternUnknown
	}
	return ternFalse
}

func (t tern) not() tern {
	switch t {
	case ternTrue:
		return ternFalse
	case ternFalse:
		return ternTrue
	default:
		return ternUnknown
	}
}

// pred is a generated predicate: it renders to SQL and evaluates natively.
type pred interface {
	sql() string
	eval(r refRow) tern
}

type cmpPred struct {
	col string // "a" | "b"
	op  string
	lit int64
}

func (p cmpPred) sql() string { return fmt.Sprintf("%s %s %d", p.col, p.op, p.lit) }

func (p cmpPred) eval(r refRow) tern {
	v := r.a
	if p.col == "b" {
		v = r.b
	}
	if v == nil {
		return ternUnknown
	}
	switch p.op {
	case "=":
		return ternOf(*v == p.lit)
	case "<>":
		return ternOf(*v != p.lit)
	case "<":
		return ternOf(*v < p.lit)
	case "<=":
		return ternOf(*v <= p.lit)
	case ">":
		return ternOf(*v > p.lit)
	case ">=":
		return ternOf(*v >= p.lit)
	}
	panic("bad op")
}

type nullPred struct {
	col string
	not bool
}

func (p nullPred) sql() string {
	if p.not {
		return p.col + " IS NOT NULL"
	}
	return p.col + " IS NULL"
}

func (p nullPred) eval(r refRow) tern {
	var isNull bool
	switch p.col {
	case "a":
		isNull = r.a == nil
	case "b":
		isNull = r.b == nil
	default:
		isNull = r.c == nil
	}
	return ternOf(isNull != p.not)
}

type inPred struct {
	col  string
	lits []int64
}

func (p inPred) sql() string {
	parts := make([]string, len(p.lits))
	for i, l := range p.lits {
		parts[i] = fmt.Sprintf("%d", l)
	}
	return fmt.Sprintf("%s IN (%s)", p.col, strings.Join(parts, ", "))
}

func (p inPred) eval(r refRow) tern {
	v := r.a
	if p.col == "b" {
		v = r.b
	}
	if v == nil {
		return ternUnknown
	}
	for _, l := range p.lits {
		if *v == l {
			return ternTrue
		}
	}
	return ternFalse
}

type betweenPred struct {
	col    string
	lo, hi int64
}

func (p betweenPred) sql() string { return fmt.Sprintf("%s BETWEEN %d AND %d", p.col, p.lo, p.hi) }

func (p betweenPred) eval(r refRow) tern {
	v := r.a
	if p.col == "b" {
		v = r.b
	}
	if v == nil {
		return ternUnknown
	}
	return ternOf(*v >= p.lo && *v <= p.hi)
}

type likePred struct{ prefix string }

func (p likePred) sql() string { return fmt.Sprintf("c LIKE '%s%%'", p.prefix) }

func (p likePred) eval(r refRow) tern {
	if r.c == nil {
		return ternUnknown
	}
	return ternOf(strings.HasPrefix(*r.c, p.prefix))
}

type logicPred struct {
	op   string // AND | OR
	l, r pred
}

func (p logicPred) sql() string { return "(" + p.l.sql() + ") " + p.op + " (" + p.r.sql() + ")" }

func (p logicPred) eval(r refRow) tern {
	if p.op == "AND" {
		return p.l.eval(r).and(p.r.eval(r))
	}
	return p.l.eval(r).or(p.r.eval(r))
}

type notPred struct{ c pred }

func (p notPred) sql() string        { return "NOT (" + p.c.sql() + ")" }
func (p notPred) eval(r refRow) tern { return p.c.eval(r).not() }

// genPred builds a random predicate tree of bounded depth.
func genPred(rng *rand.Rand, depth int) pred {
	if depth > 0 && rng.Float64() < 0.5 {
		switch rng.Intn(3) {
		case 0:
			return logicPred{"AND", genPred(rng, depth-1), genPred(rng, depth-1)}
		case 1:
			return logicPred{"OR", genPred(rng, depth-1), genPred(rng, depth-1)}
		default:
			return notPred{genPred(rng, depth-1)}
		}
	}
	col := []string{"a", "b"}[rng.Intn(2)]
	switch rng.Intn(5) {
	case 0:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return cmpPred{col, ops[rng.Intn(len(ops))], int64(rng.Intn(40))}
	case 1:
		return nullPred{[]string{"a", "b", "c"}[rng.Intn(3)], rng.Intn(2) == 0}
	case 2:
		n := 1 + rng.Intn(4)
		lits := make([]int64, n)
		for i := range lits {
			lits[i] = int64(rng.Intn(40))
		}
		return inPred{col, lits}
	case 3:
		lo := int64(rng.Intn(30))
		return betweenPred{col, lo, lo + int64(rng.Intn(15))}
	default:
		return likePred{[]string{"x", "y", "x1", ""}[rng.Intn(4)]}
	}
}

// randomStorages are the table layouts every differential test runs on.
var randomStorages = []struct{ name, clause string }{
	{"row", ""},
	{"columnar", " USING COLUMN"},
}

// keyBreakers are strings picked to break a row-key encoding: they carry the
// separators earlier encoders joined key parts with (", " and "|4:"), so two
// different (c, d) pairs concatenate to the same text, and the word a NULL
// used to be rendered as.
var (
	keyBreakersC = []string{"x, y", "x", "x|4:y", "NULL"}
	keyBreakersD = []string{"z", "y, z", "y|4:z", "x", "NULL"}
)

// loadRandomTable creates rt on the cluster (storage is the CREATE TABLE
// storage clause) and mirrors it in reference rows; column e is bigOf(id).
// A columnar table seals its first three quarters into segments, so scans
// cross both zone-mapped segments and the delta buffer.
func loadRandomTable(t *testing.T, c *Cluster, rng *rand.Rand, n int, storage string) []refRow {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE rt (id BIGINT, a BIGINT, b BIGINT, c TEXT, d TEXT, e BIGINT) DISTRIBUTE BY HASH(id)"+storage)
	rows := make([]refRow, 0, n)
	for i := 0; i < n; i++ {
		if i == n*3/4 {
			ti, err := c.tableInfo("rt")
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range *ti.parts.Load() {
				if part.col != nil {
					part.col.Flush()
				}
			}
		}
		var r refRow
		var aSQL, bSQL, cSQL, dSQL string
		if rng.Float64() < 0.1 {
			aSQL = "NULL"
		} else {
			v := int64(rng.Intn(40))
			r.a = &v
			aSQL = fmt.Sprintf("%d", v)
		}
		if rng.Float64() < 0.1 {
			bSQL = "NULL"
		} else {
			v := int64(rng.Intn(40))
			r.b = &v
			bSQL = fmt.Sprintf("%d", v)
		}
		if rng.Float64() < 0.1 {
			cSQL = "NULL"
		} else {
			v := fmt.Sprintf("%s%d", []string{"x", "y"}[rng.Intn(2)], rng.Intn(20))
			if rng.Float64() < 0.4 {
				v = keyBreakersC[rng.Intn(len(keyBreakersC))]
			}
			r.c = &v
			cSQL = "'" + v + "'"
		}
		if rng.Float64() < 0.1 {
			dSQL = "NULL"
		} else {
			v := keyBreakersD[rng.Intn(len(keyBreakersD))]
			r.d = &v
			dSQL = "'" + v + "'"
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO rt VALUES (%d, %s, %s, %s, %s, %d)", i, aSQL, bSQL, cSQL, dSQL, bigOf(int64(i))))
		rows = append(rows, r)
	}
	return rows
}

// bigOf is row id's e: a BIGINT within 200 of 2^60, where a DOUBLE — and so
// a 64-bit order prefix — keeps only multiples of 128 or 256. Runs of up to
// 128 values share one prefix and differ only under Compare, and rows id and
// id+400 share a value.
func bigOf(id int64) int64 { return 1<<60 + id*37%400 - 200 }

// sweepPushdown runs check under every pushdown level × parallel degree,
// handing it a label for failure messages.
func sweepPushdown(c *Cluster, check func(label string)) {
	defer func() { c.Pushdown, c.ParallelDegree = plan.PushdownBloom, 0 }()
	for _, lv := range plan.PushdownLadder {
		for _, degree := range []int{1, 2, 4} {
			c.Pushdown, c.ParallelDegree = lv, degree
			check(fmt.Sprintf("pushdown=%s degree=%d", lv, degree))
		}
	}
}

// canon renders result rows to a sorted multiset fingerprint; strings are
// quoted, so no two different rows render alike.
func canon(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
			if d.Kind() == types.KindString {
				parts[j] = strconv.Quote(d.Str())
			}
		}
		lines[i] = strings.Join(parts, ", ")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestDifferentialRandomPredicates(t *testing.T) {
	for _, st := range randomStorages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			c := newCluster(t, 4, ModeGTMLite)
			ref := loadRandomTable(t, c, rng, 120, st.clause)
			w := newShapeTwin(t, c)

			for trial := 0; trial < 120; trial++ {
				p := genPred(rng, 3)
				sql := "SELECT a, b, c FROM rt WHERE " + p.sql()
				var want []types.Row
				for _, r := range ref {
					if p.eval(r) == ternTrue {
						want = append(want, refToRow(r))
					}
				}
				exp := canon(want)
				sweepPushdown(c, func(label string) {
					res, err := w.exec("rt", sql)
					if err != nil {
						t.Fatalf("trial %d %s: %q failed: %v", trial, label, sql, err)
					}
					if got := canon(res.Rows); got != exp {
						t.Fatalf("trial %d %s: %q\nengine (%d rows) != reference (%d rows)\nengine:\n%s\nreference:\n%s",
							trial, label, sql, len(res.Rows), len(want), got, exp)
					}
				})
			}
		})
	}
}

func refToRow(r refRow) types.Row {
	out := make(types.Row, 3)
	if r.a != nil {
		out[0] = types.NewInt(*r.a)
	}
	if r.b != nil {
		out[1] = types.NewInt(*r.b)
	}
	if r.c != nil {
		out[2] = types.NewString(*r.c)
	}
	return out
}

// aggSQL is the aggregate shape the differential tests run: group by a
// (NULL group included) over the rows p keeps.
func aggSQL(p pred) string {
	return "SELECT a, count(*), sum(b), min(b), max(b) FROM rt WHERE " + p.sql() + " GROUP BY a"
}

// refAggregate is the model's answer to aggSQL(p).
func refAggregate(ref []refRow, p pred) []types.Row {
	type agg struct {
		key      *int64
		count    int64
		sum      int64
		sumSet   bool
		min, max int64
	}
	groups := map[string]*agg{}
	for _, r := range ref {
		if p.eval(r) != ternTrue {
			continue
		}
		k := "NULL"
		if r.a != nil {
			k = fmt.Sprintf("%d", *r.a)
		}
		g, ok := groups[k]
		if !ok {
			g = &agg{key: r.a}
			groups[k] = g
		}
		g.count++
		if r.b != nil {
			if !g.sumSet {
				g.min, g.max = *r.b, *r.b
			} else {
				if *r.b < g.min {
					g.min = *r.b
				}
				if *r.b > g.max {
					g.max = *r.b
				}
			}
			g.sum += *r.b
			g.sumSet = true
		}
	}
	var want []types.Row
	for _, g := range groups {
		row := make(types.Row, 5)
		if g.key != nil {
			row[0] = types.NewInt(*g.key)
		}
		row[1] = types.NewInt(g.count)
		if g.sumSet {
			row[2] = types.NewInt(g.sum)
			row[3] = types.NewInt(g.min)
			row[4] = types.NewInt(g.max)
		}
		want = append(want, row)
	}
	return want
}

func TestDifferentialRandomAggregates(t *testing.T) {
	for _, st := range randomStorages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			c := newCluster(t, 4, ModeGTMLite)
			ref := loadRandomTable(t, c, rng, 120, st.clause)
			w := newShapeTwin(t, c)

			for trial := 0; trial < 60; trial++ {
				p := genPred(rng, 2)
				sql := aggSQL(p)
				exp := canon(refAggregate(ref, p))
				sweepPushdown(c, func(label string) {
					res, err := w.exec("rt", sql)
					if err != nil {
						t.Fatalf("trial %d %s: %q failed: %v", trial, label, sql, err)
					}
					if got := canon(res.Rows); got != exp {
						t.Fatalf("trial %d %s: %q\nengine:\n%s\nreference:\n%s", trial, label, sql, got, exp)
					}
				})
			}

			exp := canon(loadWideKeys(t, c, st.clause))
			sweepPushdown(c, func(label string) {
				res, err := w.exec("wk", wideKeySQL)
				if err != nil {
					t.Fatalf("%s: %q failed: %v", label, wideKeySQL, err)
				}
				if got := canon(res.Rows); got != exp {
					t.Fatalf("%s: %q\nengine:\n%s\nreference:\n%s", label, wideKeySQL, got, exp)
				}
			})
		})
	}
}

// wideKeySQL groups wk by a BIGINT with more distinct values than the
// vector sink's memo has slots (memoSlots).
const wideKeySQL = "SELECT k, count(*), count(x), sum(x), min(x), max(x) FROM wk GROUP BY k"

// loadWideKeys creates and fills wk and returns the model's answer to
// wideKeySQL. Its keys come in sets that differ only in their high bits or
// only in their low bits, with NULL keys between them. A group's x values
// (1e16, 1, -1e16, 1, rotated per group, a few NULL) have a sum that depends
// on the order they are added in, since 1e16 + 1 is 1e16: wk is distributed
// by k, so a group's rows sit on one data node in the order they were
// inserted, and the model adds them in that order.
func loadWideKeys(t *testing.T, c *Cluster, storage string) []types.Row {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE wk (id BIGINT, k BIGINT, x DOUBLE) DISTRIBUTE BY HASH(k)"+storage)
	var keys []*int64
	for j := int64(1); j <= 64; j++ {
		for _, k := range []int64{j, j ^ 1<<62, j ^ math.MinInt64, j << 40, j<<40 | 1} {
			keys = append(keys, &k)
		}
		if j%7 == 0 {
			keys = append(keys, nil)
		}
	}
	type agg struct {
		key            *int64
		count, counted int64
		sum, min, max  float64
	}
	groups := map[string]*agg{}
	var order []*agg
	xs := []float64{1e16, 1, -1e16, 1}
	var values []string
	flush := func() {
		mustExec(t, s, "INSERT INTO wk VALUES "+strings.Join(values, ", "))
		values = values[:0]
	}
	for rep := 0; rep < len(xs); rep++ {
		if rep == len(xs)/2 {
			ti, err := c.tableInfo("wk")
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range *ti.parts.Load() {
				if part.col != nil {
					part.col.Flush()
				}
			}
		}
		for i, k := range keys {
			name, kSQL := "NULL", "NULL"
			if k != nil {
				name = strconv.FormatInt(*k, 10)
				kSQL = name
			}
			g := groups[name]
			if g == nil {
				g = &agg{key: k}
				groups[name] = g
				order = append(order, g)
			}
			g.count++
			xSQL := "NULL"
			if (i+rep)%11 != 0 {
				x := xs[(i+rep)%len(xs)]
				xSQL = strconv.FormatFloat(x, 'g', -1, 64)
				if g.counted == 0 || x < g.min {
					g.min = x
				}
				if g.counted == 0 || x > g.max {
					g.max = x
				}
				g.sum += x
				g.counted++
			}
			values = append(values, fmt.Sprintf("(%d, %s, %s)", rep*len(keys)+i, kSQL, xSQL))
			if len(values) == 200 {
				flush()
			}
		}
		flush()
	}
	want := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := types.Row{types.Null, types.NewInt(g.count), types.NewInt(g.counted), types.Null, types.Null, types.Null}
		if g.key != nil {
			row[0] = types.NewInt(*g.key)
		}
		if g.counted > 0 {
			row[3], row[4], row[5] = types.NewFloat(g.sum), types.NewFloat(g.min), types.NewFloat(g.max)
		}
		want = append(want, row)
	}
	return want
}

// TestDifferentialRandomStringGroups groups by the two text columns, whose
// values (keyBreakers, NULL beside 'NULL') collide under any group-key
// encoding that is not injective; the model keys its groups by a Go struct.
func TestDifferentialRandomStringGroups(t *testing.T) {
	type groupKey struct {
		cNull, dNull bool
		c, d         string
	}
	for _, st := range randomStorages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			c := newCluster(t, 4, ModeGTMLite)
			ref := loadRandomTable(t, c, rng, 120, st.clause)
			w := newShapeTwin(t, c)

			for trial := 0; trial < 20; trial++ {
				p := genPred(rng, 1)
				sql := "SELECT c, d, count(*), sum(b) FROM rt WHERE " + p.sql() + " GROUP BY c, d"
				type agg struct {
					c, d   *string
					count  int64
					sum    int64
					sumSet bool
				}
				groups := map[groupKey]*agg{}
				for _, r := range ref {
					if p.eval(r) != ternTrue {
						continue
					}
					k := groupKey{cNull: r.c == nil, dNull: r.d == nil}
					if r.c != nil {
						k.c = *r.c
					}
					if r.d != nil {
						k.d = *r.d
					}
					g, ok := groups[k]
					if !ok {
						g = &agg{c: r.c, d: r.d}
						groups[k] = g
					}
					g.count++
					if r.b != nil {
						g.sum += *r.b
						g.sumSet = true
					}
				}
				var want []types.Row
				for _, g := range groups {
					row := types.Row{types.Null, types.Null, types.NewInt(g.count), types.Null}
					if g.c != nil {
						row[0] = types.NewString(*g.c)
					}
					if g.d != nil {
						row[1] = types.NewString(*g.d)
					}
					if g.sumSet {
						row[3] = types.NewInt(g.sum)
					}
					want = append(want, row)
				}
				exp := canon(want)
				sweepPushdown(c, func(label string) {
					res, err := w.exec("rt", sql)
					if err != nil {
						t.Fatalf("trial %d %s: %q failed: %v", trial, label, sql, err)
					}
					if got := canon(res.Rows); got != exp {
						t.Fatalf("trial %d %s: %q\nengine (%d groups) != reference (%d groups)\nengine:\n%s\nreference:\n%s",
							trial, label, sql, len(res.Rows), len(want), got, exp)
					}
				})
			}
		})
	}
}

// TestDifferentialAggregatesDuringMoveBucket checks filtered GROUP BYs over
// a columnar table against the model while bucket moves are live — at the
// "copied" stage the target holds phantom copies the ownership check must
// hide, at "frozen" the cutover is in flight — and after them. The
// vectorized aggregate runs under the ownership check here.
func TestDifferentialAggregatesDuringMoveBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newCluster(t, 2, ModeGTMLite)
	ref := loadRandomTable(t, c, rng, 120, " USING COLUMN")
	check := func(when string) {
		p := genPred(rng, 2)
		sql := aggSQL(p)
		res, err := c.NewSession().Exec(sql)
		if err != nil {
			t.Fatalf("%s: %q failed: %v", when, sql, err)
		}
		if got, exp := canon(res.Rows), canon(refAggregate(ref, p)); got != exp {
			t.Fatalf("%s: %q\nengine:\n%s\nreference:\n%s", when, sql, got, exp)
		}
	}

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	c.MoveHook = func(stage string, bucket, target int) {
		if stage == "copied" || stage == "frozen" {
			live++
			check(fmt.Sprintf("bucket %d -> dn%d %s", bucket, target, stage))
		}
	}
	for _, b := range c.ExpansionPlan(id) {
		if _, err := c.MoveBucket(b, id); err != nil {
			t.Fatalf("MoveBucket(%d, %d): %v", b, id, err)
		}
		check(fmt.Sprintf("after moving bucket %d", b))
	}
	if live == 0 {
		t.Fatal("no query ran inside a live move")
	}
}

// orderKey is one ORDER BY key value in the model: NULL, a number (BIGINT
// and DOUBLE alike) or a string. exact orders BIGINTs that num rounds alike.
type orderKey struct {
	null  bool
	num   float64
	exact int64
	str   string
}

func bigKey(id int64) orderKey {
	e := bigOf(id)
	return orderKey{num: float64(e), exact: e}
}

func numKey(v *int64, plus float64) orderKey {
	if v == nil {
		return orderKey{null: true}
	}
	return orderKey{num: float64(*v) + plus}
}

func strKey(v *string) orderKey {
	if v == nil {
		return orderKey{null: true}
	}
	return orderKey{str: *v}
}

// cmpOrderKeys orders key tuples as ORDER BY does: NULL first, each key
// reversed when desc says so.
func cmpOrderKeys(a, b []orderKey, desc []bool) int {
	for i := range a {
		var c int
		switch {
		case a[i].null || b[i].null:
			c = map[bool]int{true: 1}[b[i].null] - map[bool]int{true: 1}[a[i].null]
		case a[i].num != b[i].num:
			c = map[bool]int{true: -1, false: 1}[a[i].num < b[i].num]
		case a[i].exact != b[i].exact:
			c = map[bool]int{true: -1, false: 1}[a[i].exact < b[i].exact]
		default:
			c = strings.Compare(a[i].str, b[i].str)
		}
		if desc[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// orderCases are the ORDER BY shapes TestDifferentialOrderLimit checks: %s is
// the predicate. key gives a model row's sort key; unique says the keys
// (ending in id) order the rows completely, so the model fixes the whole
// answer and not just its key sequence.
var orderCases = []struct {
	sql    string
	desc   []bool
	key    func(id int64, r refRow) []orderKey
	unique bool
}{
	{"SELECT id, a FROM rt WHERE %s ORDER BY id", []bool{false},
		func(id int64, _ refRow) []orderKey { return []orderKey{{num: float64(id)}} }, true},
	{"SELECT id, a FROM rt WHERE %s ORDER BY id DESC", []bool{true},
		func(id int64, _ refRow) []orderKey { return []orderKey{{num: float64(id)}} }, true},
	// A key with ties and NULLs, with and without a tiebreak column.
	{"SELECT id, b FROM rt WHERE %s ORDER BY a", []bool{false},
		func(_ int64, r refRow) []orderKey { return []orderKey{numKey(r.a, 0)} }, false},
	{"SELECT id, b FROM rt WHERE %s ORDER BY a DESC", []bool{true},
		func(_ int64, r refRow) []orderKey { return []orderKey{numKey(r.a, 0)} }, false},
	{"SELECT id, a, b FROM rt WHERE %s ORDER BY a DESC, id", []bool{true, false},
		func(id int64, r refRow) []orderKey { return []orderKey{numKey(r.a, 0), {num: float64(id)}} }, true},
	// One key whose values are BIGINT for some rows and DOUBLE for others.
	{"SELECT id, b FROM rt WHERE %s ORDER BY CASE WHEN b < 20 THEN a ELSE a + 0.5 END, id", []bool{false, false},
		func(id int64, r refRow) []orderKey {
			k := numKey(r.a, 0.5)
			if r.b != nil && *r.b < 20 {
				k = numKey(r.a, 0)
			}
			return []orderKey{k, {num: float64(id)}}
		}, true},
	// Strings that share their first bytes, and 'NULL' beside NULL.
	{"SELECT id, c FROM rt WHERE %s ORDER BY c DESC, id DESC", []bool{true, true},
		func(id int64, r refRow) []orderKey { return []orderKey{strKey(r.c), {num: float64(id)}} }, true},
	{"SELECT id, a FROM rt WHERE %s ORDER BY c", []bool{false},
		func(_ int64, r refRow) []orderKey { return []orderKey{strKey(r.c)} }, false},
	// BIGINTs above 2^53 that share their prefixes in runs: a full fragment
	// heap's worst kept row ties its prefix with rows of every fragment, and
	// only the full compare orders them. Each value is two rows' (ties).
	{"SELECT id, e FROM rt WHERE %s ORDER BY e", []bool{false},
		func(id int64, _ refRow) []orderKey { return []orderKey{bigKey(id)} }, false},
	{"SELECT id, e FROM rt WHERE %s ORDER BY e DESC, id", []bool{true, false},
		func(id int64, _ refRow) []orderKey { return []orderKey{bigKey(id), {num: float64(id)}} }, true},
	{"SELECT id, a, e FROM rt WHERE %s ORDER BY a, e DESC", []bool{false, true},
		func(id int64, r refRow) []orderKey { return []orderKey{numKey(r.a, 0), bigKey(id)} }, false},
}

// TestDifferentialOrderLimit runs ORDER BY shapes — ascending and
// descending, unique keys and keys with ties and NULLs, BIGINT beside
// DOUBLE, BIGINTs above 2^53, strings — with no LIMIT, a LIMIT, and a LIMIT
// with an OFFSET, on 4 DNs under every pushdown level and degree. The model
// fixes each answer's key sequence (and, for a unique key, its rows). Every
// level and degree must then return exactly the rows of pushdown off at
// degree 1 — a stable sort of the rows in the order the fragments deliver
// them — ties included. Each LIMIT shape runs twice: once under a predicate
// that passes at least four times the fragment heap's size on every DN, so
// every heap fills and turns rows away by their first key, and once under a
// freely drawn one, so heaps that never fill, empty fragments and OFFSETs at
// and past the end of the answer stay in the sweep. Last, keys that fail to
// evaluate on one row — one a full heap's threshold would turn away — fail
// alike everywhere.
func TestDifferentialOrderLimit(t *testing.T) {
	for _, st := range randomStorages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			c := newCluster(t, 4, ModeGTMLite)
			ref := loadRandomTable(t, c, rng, 800, st.clause)
			w := newShapeTwin(t, c)
			owners := c.BucketOwners()
			// fewest is the fewest rows p passes on any DN.
			fewest := func(p pred) int {
				per := map[int]int{}
				for i, r := range ref {
					if p.eval(r) == ternTrue {
						per[owners[BucketOf(types.NewInt(int64(i)))]]++
					}
				}
				n := len(ref)
				for _, dn := range c.PrimaryIDs() {
					n = min(n, per[dn])
				}
				return n
			}
			// Trials whose heaps cannot all fill, that leave a DN no rows,
			// and whose OFFSET reaches the end of the answer.
			var short, empty, past int

			// Passes over orderCases: no LIMIT; a LIMIT, and a LIMIT with an
			// OFFSET, under a predicate that fills every heap; the same two
			// under a free predicate, every other OFFSET drawn around the
			// answer's end.
			for trial := 0; trial < 5*len(orderCases); trial++ {
				oc := orderCases[trial%len(orderCases)]
				pass := trial / len(orderCases)
				limit, offset := -1, 0
				switch pass {
				case 1, 3:
					limit = 1 + rng.Intn(10)
				case 2, 4:
					limit, offset = 1+rng.Intn(10), rng.Intn(8)
				}
				p := genPred(rng, 2)
				for tries := 0; (pass == 1 || pass == 2) && fewest(p) < 4*(limit+offset); tries++ {
					if tries == 100 {
						t.Fatalf("trial %d: no predicate fills every fragment's heap", trial)
					}
					p = genPred(rng, 2)
				}
				var want []int64
				for i, r := range ref {
					if p.eval(r) == ternTrue {
						want = append(want, int64(i))
					}
				}
				if pass == 4 && trial%2 == 1 {
					offset = max(0, len(want)-limit) + rng.Intn(limit+2)
				}
				if limit >= 0 {
					fewestRows := fewest(p)
					if fewestRows < limit+offset {
						short++
					}
					if fewestRows == 0 {
						empty++
					}
					if offset >= len(want) {
						past++
					}
				}
				sql := fmt.Sprintf(oc.sql, p.sql())
				if limit >= 0 {
					sql += fmt.Sprintf(" LIMIT %d", limit)
				}
				if offset > 0 {
					sql += fmt.Sprintf(" OFFSET %d", offset)
				}
				keyOf := func(id int64) []orderKey { return oc.key(id, ref[id]) }
				sort.SliceStable(want, func(i, j int) bool { return cmpOrderKeys(keyOf(want[i]), keyOf(want[j]), oc.desc) < 0 })
				want = want[min(offset, len(want)):]
				if limit >= 0 && len(want) > limit {
					want = want[:limit]
				}

				var base []string
				sweepPushdown(c, func(label string) {
					res, err := w.exec("rt", sql)
					if err != nil {
						t.Fatalf("trial %d %s: %q failed: %v", trial, label, sql, err)
					}
					if len(res.Rows) != len(want) {
						t.Fatalf("trial %d %s: %q: %d rows, want %d", trial, label, sql, len(res.Rows), len(want))
					}
					got := make([]string, len(res.Rows))
					for i, r := range res.Rows {
						id := r[0].Int()
						if oc.unique && id != want[i] || cmpOrderKeys(keyOf(id), keyOf(want[i]), oc.desc) != 0 {
							t.Fatalf("trial %d %s: %q: row %d id=%d, want id %d (key %v)", trial, label, sql, i, id, want[i], keyOf(want[i]))
						}
						got[i] = r.String()
					}
					if base == nil {
						base = got // pushdown off, degree 1: the stable sort
					} else if fmt.Sprint(got) != fmt.Sprint(base) {
						t.Fatalf("trial %d %s: %q:\n got %v\nwant %v (pushdown off, degree 1)", trial, label, sql, got, base)
					}
				})
			}
			if short == 0 || empty == 0 || past == 0 {
				t.Fatalf("LIMIT trials: %d with a heap that cannot fill, %d with an empty fragment, %d with an OFFSET at or past the end; want each > 0", short, empty, past)
			}

			// Row 700 comes late in every fragment, after its heap has filled
			// with smaller keys: a first key read off a bare column would be
			// turned away by it, unevaluated. (A failed statement's storage
			// work depends on when its fragments stop: no shape twin.)
			s := c.NewSession()
			for _, sql := range []string{
				"SELECT id, a FROM rt ORDER BY id + 1 / (id - 700) LIMIT 3",
				"SELECT id, a FROM rt ORDER BY id, 1 / (id - 700) LIMIT 3",
				"SELECT id, e FROM rt ORDER BY e DESC, a / (id - 700) LIMIT 2 OFFSET 1",
			} {
				var base string
				sweepPushdown(c, func(label string) {
					_, err := s.Exec(sql)
					switch {
					case err == nil || !strings.Contains(err.Error(), "division by zero"):
						t.Fatalf("%s: %q: err = %v, want division by zero", label, sql, err)
					case base == "":
						base = err.Error()
					case err.Error() != base:
						t.Fatalf("%s: %q: err = %v, want %v (pushdown off, degree 1)", label, sql, err, base)
					}
				})
			}
		})
	}
}

// projectedCases are the select lists TestDifferentialProjectedScan checks:
// %s is the predicate. From +projection up, a list of bare columns over a
// bare scan is folded into it, hidden ORDER BY columns included; a computed
// list, and a block over a derived table or a join, keeps its coordinator
// Project.
var projectedCases = []string{
	"SELECT b, id FROM rt WHERE %s",                                                  // a permutation
	"SELECT a, a FROM rt WHERE %s",                                                   // a duplicate
	"SELECT c FROM rt WHERE %s",                                                      // a subset
	"SELECT * FROM rt WHERE %s",                                                      // every column
	"SELECT c, a FROM rt WHERE %s ORDER BY id DESC",                                  // a hidden key, stripped
	"SELECT e, e, id FROM rt WHERE %s ORDER BY e, id",                                // a duplicated key
	"SELECT DISTINCT a FROM rt WHERE %s",                                             // DISTINCT
	"SELECT DISTINCT b, a FROM rt WHERE %s ORDER BY a, b",                            // DISTINCT, ordered
	"SELECT b, id FROM rt WHERE %s LIMIT 5",                                          // a bare LIMIT
	"SELECT c, id FROM rt WHERE %s LIMIT 4 OFFSET 3",                                 // and an OFFSET
	"SELECT c, id FROM rt WHERE %s ORDER BY a DESC, id LIMIT 4 OFFSET 2",             // keys, LIMIT and OFFSET
	"SELECT d FROM rt WHERE %s ORDER BY e DESC, id LIMIT 5",                          // hidden keys under a LIMIT
	"SELECT id, a + b, c FROM rt WHERE %s ORDER BY id DESC LIMIT 5",                  // computed
	"SELECT a * 2, id FROM rt WHERE %s",                                              // computed, unordered
	"SELECT x.b FROM (SELECT id, b, c FROM rt WHERE %s) x",                           // a folded block read in part
	"SELECT x.a, y.c FROM (SELECT a, id FROM rt WHERE %s) x, rt y WHERE x.id = y.id", // a folded block joined
}

// analyticalCount counts the statements an HTAP freshness gate admits to
// the replicas.
type analyticalCount struct {
	AnalyticalProvider
	admitted atomic.Int64
}

func (g *analyticalCount) Gate(dnIDs []int) bool {
	ok := g.AnalyticalProvider.Gate(dnIDs)
	if ok {
		g.admitted.Add(1)
	}
	return ok
}

// TestDifferentialProjectedScan runs select lists a scan folds — a
// permutation, a duplicate, a subset, hidden ORDER BY columns, DISTINCT, a
// LIMIT and an OFFSET with and without keys, a block read in part or joined
// as a derived table — beside computed ones, on row and columnar tables,
// read from the primaries and then from HTAP replicas. Every pushdown level
// and degree must return exactly the rows of pushdown off at degree 1 on
// the same copy, and a replica the primary's rows wherever the query fixes
// them.
//
// Last, computed outputs that fail on one row the query does not return. A
// coordinator Project evaluates only the rows its parent pulls, so the fold
// must leave computed outputs to it: under a bare LIMIT the statement
// answers at every level. Under ORDER BY … LIMIT it answers at every level
// too: where the fragments do not sort, the coordinator's TopN sits below
// the Project, which computes the select list for the kept rows only.
func TestDifferentialProjectedScan(t *testing.T) {
	for _, st := range randomStorages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			c := newCluster(t, 4, ModeGTMLite)
			loadRandomTable(t, c, rng, 300, st.clause)
			w := newShapeTwin(t, c)
			s := c.NewSession()
			preds := []string{"a IS NOT NULL OR a IS NULL"}
			for len(preds) < 3 {
				preds = append(preds, genPred(rng, 2).sql())
			}

			primary := map[string]string{}
			var stmts int // statements executed, for the replica gate's count
			check := func(copyName, sql string) {
				var base string
				sweepPushdown(c, func(label string) {
					res, err := w.exec("rt", sql)
					stmts += 2
					if err != nil {
						t.Fatalf("%s %s: %q failed: %v", copyName, label, sql, err)
					}
					if got := fmt.Sprint(res.Rows); base == "" {
						base = got
					} else if got != base {
						t.Fatalf("%s %s: %q:\n got %v\nwant %v (pushdown off, degree 1)", copyName, label, sql, got, base)
					}
					fixed := !strings.Contains(sql, "LIMIT") || strings.Contains(sql, "ORDER BY")
					if want, ok := primary[sql]; !ok {
						primary[sql] = canon(res.Rows)
					} else if fixed && canon(res.Rows) != want {
						t.Fatalf("%s %s: %q:\n got %s\nprimary %s", copyName, label, sql, canon(res.Rows), want)
					}
				})
			}
			run := func(copyName string) {
				for _, q := range projectedCases {
					for _, p := range preds {
						check(copyName, fmt.Sprintf(q, p))
					}
				}

				// The bare LIMIT's answer is the first 3 rows in fragment
				// order; the failing row is this copy's last.
				c.Pushdown, c.ParallelDegree = plan.PushdownOff, 1
				all := mustExec(t, s, "SELECT id FROM rt").Rows
				stmts++
				check(copyName, fmt.Sprintf("SELECT a, 10 / (id - %d) FROM rt LIMIT 3", all[len(all)-1][0].Int()))

				// The select list fails on id 5, a row the ORDER BY … LIMIT
				// never returns: every level computes it for the kept rows
				// only, pushed or not.
				const sorted = "SELECT a, 100000 / (id - 5) FROM rt ORDER BY id DESC LIMIT 3"
				var base string
				sweepPushdown(c, func(label string) {
					res, err := s.Exec(sorted)
					stmts++
					switch {
					case err != nil:
						t.Fatalf("%s %s: %q failed: %v", copyName, label, sorted, err)
					case len(res.Rows) != 3 || res.Rows[0][1].Int() != 100000/294 || res.Rows[2][1].Int() != 100000/292:
						t.Fatalf("%s %s: %q: %v, want ids 299, 298, 297", copyName, label, sorted, res.Rows)
					case base == "":
						base = fmt.Sprint(res.Rows)
					case fmt.Sprint(res.Rows) != base:
						t.Fatalf("%s %s: %q:\n got %v\nwant %v (pushdown off, degree 1)", copyName, label, sorted, res.Rows, base)
					}
				})
			}
			run("primary")

			LogFedReplicas(t, c)("rt")
			gate := &analyticalCount{AnalyticalProvider: c.analyticalReads()}
			c.SetAnalyticalReads(gate)
			stmts = 0
			if run("replica"); gate.admitted.Load() != int64(stmts) {
				t.Fatalf("%d of %d statements read the HTAP replicas", gate.admitted.Load(), stmts)
			}
		})
	}
}

// TestOrderByIncomparableKindsFails: a first sort key whose values mix kinds
// Compare cannot order fails with Compare's error under Sort, TopN and the
// DN sort with its merge, at every pushdown level and degree.
func TestOrderByIncomparableKindsFails(t *testing.T) {
	for _, st := range randomStorages {
		t.Run(st.name, func(t *testing.T) {
			c := newCluster(t, 4, ModeGTMLite)
			loadRandomTable(t, c, rand.New(rand.NewSource(7)), 60, st.clause)
			s := c.NewSession()
			for _, sql := range []string{
				"SELECT id FROM rt ORDER BY CASE WHEN id < 30 THEN id ELSE d END",
				"SELECT id FROM rt ORDER BY CASE WHEN id < 30 THEN id ELSE d END DESC LIMIT 5",
				"SELECT id FROM rt ORDER BY CASE WHEN id < 30 THEN id ELSE d END, id LIMIT 3 OFFSET 2",
			} {
				sweepPushdown(c, func(label string) {
					if _, err := s.Exec(sql); err == nil || !strings.Contains(err.Error(), "types: cannot compare") {
						t.Fatalf("%s: %q: err = %v, want types: cannot compare", label, sql, err)
					}
				})
			}
		})
	}
}

// ---------------------------------------------------------------------------
// The write half: seeded random DML against the same model
// ---------------------------------------------------------------------------

// LogFedReplicas is installed by replicas_test.go — package cluster_test,
// which may import internal/repl and internal/htap where this package
// cannot. It attaches a standby to every primary of c and enables the HTAP
// replicas, and returns a function that waits until both kinds have applied
// everything committed so far and then returns each HTAP replica's digest of
// table, by primary (none for a replicated table: it has no HTAP replica).
var LogFedReplicas func(t *testing.T, c *Cluster) (digests func(table string) map[int]TableDigest)

// dmlRow is a model row of the DML table: refRow plus the key.
type dmlRow struct {
	id int64
	refRow
}

// dmlModel is the reference copy of table wt.
type dmlModel struct {
	rows   []dmlRow
	nextID int64
	// keyed: wt has PRIMARY KEY(id), so an INSERT of a present key fails.
	// rowStore: wt accepts UPDATE and DELETE. scatterOnly: no UPDATE or
	// DELETE is narrowed to one key, so each visits every primary.
	keyed, rowStore, scatterOnly bool
}

func (m *dmlModel) clone() []dmlRow { return append([]dmlRow(nil), m.rows...) }

func (m *dmlModel) canon() string {
	out := make([]types.Row, len(m.rows))
	for i, r := range m.rows {
		row := types.Row{types.NewInt(r.id), types.Null, types.Null, types.Null, types.Null}
		if r.a != nil {
			row[1] = types.NewInt(*r.a)
		}
		if r.b != nil {
			row[2] = types.NewInt(*r.b)
		}
		if r.c != nil {
			row[3] = types.NewString(*r.c)
		}
		if r.d != nil {
			row[4] = types.NewString(*r.d)
		}
		out[i] = row
	}
	return canon(out)
}

func intSQL(v *int64) string {
	if v == nil {
		return "NULL"
	}
	return strconv.FormatInt(*v, 10)
}

func textSQL(v *string) string {
	if v == nil {
		return "NULL"
	}
	return "'" + *v + "'"
}

func randInt(rng *rand.Rand) *int64 {
	if rng.Float64() < 0.15 {
		return nil
	}
	v := int64(rng.Intn(40))
	return &v
}

func randText(rng *rand.Rand, pool []string) *string {
	if rng.Float64() < 0.15 {
		return nil
	}
	v := pool[rng.Intn(len(pool))]
	if rng.Float64() < 0.5 {
		v = fmt.Sprintf("%s%d", []string{"x", "y"}[rng.Intn(2)], rng.Intn(20))
	}
	return &v
}

// dmlStmt is one generated statement: its SQL, and what it does to the
// model — the rows it affects, or the error it must fail with (wrapping
// wantErr), leaving the model alone.
type dmlStmt struct {
	sql     string
	wantErr error
	apply   func() int
}

// genInsert builds a multi-row INSERT with an explicit column list in random
// order (omitted columns are NULL). On a keyed table one in five carries a
// key that is already present, or twice in the statement: it must fail whole.
func (m *dmlModel) genInsert(rng *rand.Rand) dmlStmt {
	cols := []string{"a", "b", "c", "d"}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	cols = append(cols[:rng.Intn(len(cols)+1)], "id")
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })

	n := 1 + rng.Intn(6)
	added := make([]dmlRow, n)
	for i := range added {
		added[i].id = m.nextID + int64(i)
	}
	collide := m.keyed && rng.Float64() < 0.2 && (n > 1 || len(m.rows) > 0)
	if collide {
		victim := rng.Intn(n)
		if n > 1 && (len(m.rows) == 0 || rng.Intn(2) == 0) {
			added[victim].id = added[(victim+1)%n].id
		} else {
			added[victim].id = m.rows[rng.Intn(len(m.rows))].id
		}
	}
	tuples := make([]string, n)
	for i := range added {
		r := &added[i]
		vals := make([]string, len(cols))
		for j, col := range cols {
			switch col {
			case "id":
				vals[j] = strconv.FormatInt(r.id, 10)
			case "a":
				r.a = randInt(rng)
				vals[j] = intSQL(r.a)
			case "b":
				r.b = randInt(rng)
				vals[j] = intSQL(r.b)
			case "c":
				r.c = randText(rng, keyBreakersC)
				vals[j] = textSQL(r.c)
			case "d":
				r.d = randText(rng, keyBreakersD)
				vals[j] = textSQL(r.d)
			}
		}
		tuples[i] = "(" + strings.Join(vals, ", ") + ")"
	}
	st := dmlStmt{sql: fmt.Sprintf("INSERT INTO wt (%s) VALUES %s", strings.Join(cols, ", "), strings.Join(tuples, ", "))}
	if collide {
		st.wantErr = storage.ErrDuplicateKey
		return st
	}
	st.apply = func() int {
		m.rows = append(m.rows, added...)
		m.nextID += int64(n)
		return n
	}
	return st
}

// genInsertSelect copies the rows a predicate keeps to fresh keys.
func (m *dmlModel) genInsertSelect(rng *rand.Rand) dmlStmt {
	p := genPred(rng, 2)
	shift := m.nextID
	for _, r := range m.rows {
		shift = max(shift, r.id+1)
	}
	return dmlStmt{
		sql: fmt.Sprintf("INSERT INTO wt (b, id, c) SELECT b, id + %d, c FROM wt WHERE (%s) AND id < %d", shift, p.sql(), shift),
		apply: func() int {
			n := 0
			for _, r := range m.clone() {
				if p.eval(r.refRow) == ternTrue {
					m.rows = append(m.rows, dmlRow{id: r.id + shift, refRow: refRow{b: r.b, c: r.c}})
					n++
				}
			}
			m.nextID = 2 * shift
			return n
		},
	}
}

// genVictims picks the WHERE clause of an UPDATE or DELETE: a random
// predicate, half the time narrowed to one key (the single-shard route).
func (m *dmlModel) genVictims(rng *rand.Rand) (string, func(dmlRow) bool) {
	p := genPred(rng, 2)
	if !m.scatterOnly && len(m.rows) > 0 && rng.Intn(2) == 0 {
		id := m.rows[rng.Intn(len(m.rows))].id
		return fmt.Sprintf("id = %d AND (%s)", id, p.sql()),
			func(r dmlRow) bool { return r.id == id && p.eval(r.refRow) == ternTrue }
	}
	return p.sql(), func(r dmlRow) bool { return p.eval(r.refRow) == ternTrue }
}

func (m *dmlModel) genDelete(rng *rand.Rand) dmlStmt {
	where, hit := m.genVictims(rng)
	return dmlStmt{sql: "DELETE FROM wt WHERE " + where, apply: func() int {
		kept := m.rows[:0:0]
		for _, r := range m.rows {
			if !hit(r) {
				kept = append(kept, r)
			}
		}
		n := len(m.rows) - len(kept)
		m.rows = kept
		return n
	}}
}

// genUpdate assigns one integer column (a constant, NULL, itself plus one,
// or the other integer column) and sometimes one text column; no assignment
// reads a column another one writes.
func (m *dmlModel) genUpdate(rng *rand.Rand) dmlStmt {
	where, hit := m.genVictims(rng)
	target, other := "a", "b"
	if rng.Intn(2) == 0 {
		target, other = other, target
	}
	lit := randInt(rng)
	kind := rng.Intn(3)
	set := target + " = " + []string{intSQL(lit), target + " + 1", other}[kind]
	var text *string
	textCol := ""
	if rng.Intn(3) == 0 {
		textCol = []string{"c", "d"}[rng.Intn(2)]
		text = randText(rng, keyBreakersC)
		set = textCol + " = " + textSQL(text) + ", " + set
	}
	return dmlStmt{sql: "UPDATE wt SET " + set + " WHERE " + where, apply: func() int {
		n := 0
		for i := range m.rows {
			r := &m.rows[i]
			if !hit(*r) {
				continue
			}
			n++
			tv, ov := &r.a, r.b
			if target == "b" {
				tv, ov = &r.b, r.a
			}
			switch kind {
			case 0:
				*tv = lit
			case 1:
				if *tv != nil {
					v := **tv + 1
					*tv = &v
				}
			default:
				*tv = ov
			}
			switch textCol {
			case "c":
				r.c = text
			case "d":
				r.d = text
			}
		}
		return n
	}}
}

func (m *dmlModel) gen(rng *rand.Rand) dmlStmt {
	if !m.rowStore {
		return m.genInsert(rng)
	}
	switch k := rng.Intn(10); {
	case k < 3:
		return m.genInsert(rng)
	case k < 4 && len(m.rows) < 100:
		// Bounded: a mirror applies each changed row by a scan, so a table
		// that kept doubling would make every later scatter UPDATE quadratic.
		return m.genInsertSelect(rng)
	case k < 8:
		return m.genUpdate(rng)
	default:
		return m.genDelete(rng)
	}
}

// TestDifferentialDML runs seeded random INSERT / UPDATE / DELETE sequences
// — autocommit, and BEGIN blocks that COMMIT or ROLLBACK — against the
// model, on a distributed and a replicated row table and a columnar one
// (INSERT only), at degree 1 and 4, through live bucket moves, with a
// standby and an HTAP replica attached to every primary. After every
// sequence the table equals the model, every standby mirror's digest equals
// its primary's, and so does every HTAP replica's.
func TestDifferentialDML(t *testing.T) {
	layouts := []struct {
		name, clause    string
		keyed, rowStore bool
		distributed     bool
	}{
		{"distributed", ", PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)", true, true, true},
		{"replicated", ", PRIMARY KEY (id)) DISTRIBUTE BY REPLICATION", true, true, false},
		{"columnar", ") DISTRIBUTE BY HASH(id) USING COLUMN", false, false, true},
	}
	for li, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + li)))
			c := newCluster(t, 2, ModeGTMLite)
			s := c.NewSession()
			mustExec(t, s, "CREATE TABLE wt (id BIGINT, a BIGINT, b BIGINT, c TEXT, d TEXT"+lay.clause)
			m := &dmlModel{keyed: lay.keyed, rowStore: lay.rowStore}

			// run executes one statement and holds it to the model.
			refused := map[error]int{}
			run := func(when string, st dmlStmt) bool {
				t.Helper()
				res, err := s.Exec(st.sql)
				if st.wantErr != nil {
					if !errors.Is(err, st.wantErr) {
						t.Fatalf("%s: %q: err = %v, want %v", when, st.sql, err, st.wantErr)
					}
					refused[st.wantErr]++
					return false
				}
				if err != nil {
					t.Fatalf("%s: %q failed: %v", when, st.sql, err)
				}
				if want := st.apply(); res.RowsAffected != want {
					t.Fatalf("%s: %q affected %d rows, model says %d", when, st.sql, res.RowsAffected, want)
				}
				return true
			}
			// sequence runs n statements, some of them grouped in
			// transactions: a block ends in COMMIT, in ROLLBACK, or — its last
			// statement refused — aborted, and the model follows.
			sequence := func(when string, n int) {
				t.Helper()
				for n > 0 {
					if rng.Intn(3) > 0 {
						run(when, m.gen(rng))
						n--
						continue
					}
					saved, savedNext := m.clone(), m.nextID
					mustExec(t, s, "BEGIN")
					ok := true
					for k := 1 + rng.Intn(4); ok && k > 0 && n > 0; k, n = k-1, n-1 {
						ok = run(when+" in a transaction", m.gen(rng))
					}
					switch {
					case !ok:
						if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrTxnAborted) {
							t.Fatalf("%s: COMMIT after a refused statement: %v, want ErrTxnAborted", when, err)
						}
						m.rows, m.nextID = saved, savedNext
					case rng.Intn(2) == 0:
						mustExec(t, s, "ROLLBACK")
						m.rows, m.nextID = saved, savedNext
					default:
						if got := canon(mustExec(t, s, "SELECT id, a, b, c, d FROM wt").Rows); got != m.canon() {
							t.Fatalf("%s: the transaction does not read its own writes\nengine:\n%s\nmodel:\n%s", when, got, m.canon())
						}
						mustExec(t, s, "COMMIT")
					}
				}
			}
			var digests func(string) map[int]TableDigest
			verify := func(when string) {
				t.Helper()
				if got := canon(mustExec(t, c.NewSession(), "SELECT id, a, b, c, d FROM wt").Rows); got != m.canon() {
					t.Fatalf("%s: table differs from the model\nengine:\n%s\nmodel:\n%s", when, got, m.canon())
				}
				replicas := digests("wt")
				if lay.distributed && len(replicas) < 2 {
					t.Fatalf("%s: %d HTAP replica digests, want one per original primary", when, len(replicas))
				}
				for p, got := range replicas {
					if want := mustDigest(t, c, p, p); got != want {
						t.Fatalf("%s: HTAP replica of dn%d digests %+v, primary %+v", when, p, got, want)
					}
				}
				c.routeMu.RLock()
				mirrors := maps.Clone(c.standbys)
				c.routeMu.RUnlock()
				for sid, p := range mirrors {
					if got, want := mustDigest(t, c, sid, p), mustDigest(t, c, p, p); got != want {
						t.Fatalf("%s: standby dn%d of dn%d digests %+v, primary %+v", when, sid, p, got, want)
					}
				}
			}

			sequence("load", 30)
			if LogFedReplicas == nil {
				t.Fatal("replicas_test.go did not install LogFedReplicas")
			}
			digests = LogFedReplicas(t, c)
			verify("after attaching replicas")
			for _, degree := range []int{1, 4} {
				c.ParallelDegree = degree
				sequence(fmt.Sprintf("degree %d", degree), 60)
				verify(fmt.Sprintf("degree %d", degree))
			}
			if lay.keyed && refused[storage.ErrDuplicateKey] == 0 {
				t.Fatal("no INSERT with a colliding key was generated")
			}
			if !lay.distributed {
				return
			}

			// Live bucket moves: statements run while the target holds
			// phantom copies ("copied"), and a scatter DELETE inside the
			// cutover window ("frozen") fails iff the frozen bucket holds rows.
			id, err := c.AddDataNode()
			if err != nil {
				t.Fatal(err)
			}
			c.MoveHook = func(stage string, bucket, target int) {
				when := fmt.Sprintf("bucket %d -> dn%d %s", bucket, target, stage)
				switch stage {
				case "copied":
					sequence(when, 6)
					// One row lands in the moving bucket after its copy: the
					// delta must carry it, and the freeze will find it.
					key := m.nextID
					for BucketOf(types.NewInt(key)) != bucket {
						key++
					}
					run(when, dmlStmt{sql: fmt.Sprintf("INSERT INTO wt (id, a) VALUES (%d, 1)", key), apply: func() int {
						one := int64(1)
						m.rows = append(m.rows, dmlRow{id: key, refRow: refRow{a: &one}})
						m.nextID = key + 1
						return 1
					}})
				case "frozen":
					if !lay.rowStore {
						return
					}
					m.scatterOnly = true
					st := m.genDelete(rng)
					m.scatterOnly = false
					for _, r := range m.rows {
						if BucketOf(types.NewInt(r.id)) == bucket {
							st.wantErr = ErrBucketMigrating
						}
					}
					run(when, st)
				}
			}
			for i, b := range c.ExpansionPlan(id) {
				if i == 24 {
					break
				}
				if _, err := c.MoveBucket(b, id); err != nil {
					t.Fatalf("MoveBucket(%d, %d): %v", b, id, err)
				}
				sequence(fmt.Sprintf("after moving bucket %d", b), 3)
			}
			c.MoveHook = nil
			verify("after the bucket moves")
			if lay.rowStore && refused[ErrBucketMigrating] == 0 {
				t.Fatal("no statement ran into a frozen bucket")
			}
		})
	}
}

func mustDigest(t *testing.T, c *Cluster, node, owner int) TableDigest {
	t.Helper()
	d, err := c.PartitionDigest("wt", node, owner)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
