package cluster

// Differential testing: random predicates and aggregates run through the
// whole SQL stack (parser -> planner -> distributed execution) and against
// an independent reference evaluator written directly in Go with SQL
// ternary-logic semantics. Any mismatch is a real engine bug. Every trial
// is swept over pushdown level × parallel degree on a row-store and a
// columnar table, so the one fragment program is checked against the model
// in every shape it is compiled to.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/plan"
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
// storage clause) and mirrors it in reference rows. A columnar table seals
// its first three quarters into segments, so scans cross both zone-mapped
// segments and the delta buffer.
func loadRandomTable(t *testing.T, c *Cluster, rng *rand.Rand, n int, storage string) []refRow {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE rt (id BIGINT, a BIGINT, b BIGINT, c TEXT, d TEXT) DISTRIBUTE BY HASH(id)"+storage)
	rows := make([]refRow, 0, n)
	for i := 0; i < n; i++ {
		if i == n*3/4 {
			ti, err := c.tableInfo("rt")
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range ti.colParts() {
				part.Flush()
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
		mustExec(t, s, fmt.Sprintf("INSERT INTO rt VALUES (%d, %s, %s, %s, %s)", i, aSQL, bSQL, cSQL, dSQL))
		rows = append(rows, r)
	}
	return rows
}

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
			s := c.NewSession()

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
					res, err := s.Exec(sql)
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
			s := c.NewSession()

			for trial := 0; trial < 60; trial++ {
				p := genPred(rng, 2)
				sql := aggSQL(p)
				exp := canon(refAggregate(ref, p))
				sweepPushdown(c, func(label string) {
					res, err := s.Exec(sql)
					if err != nil {
						t.Fatalf("trial %d %s: %q failed: %v", trial, label, sql, err)
					}
					if got := canon(res.Rows); got != exp {
						t.Fatalf("trial %d %s: %q\nengine:\n%s\nreference:\n%s", trial, label, sql, got, exp)
					}
				})
			}
		})
	}
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
			s := c.NewSession()

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
					res, err := s.Exec(sql)
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

func TestDifferentialOrderLimit(t *testing.T) {
	for _, st := range randomStorages {
		t.Run(st.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			c := newCluster(t, 2, ModeGTMLite)
			ref := loadRandomTable(t, c, rng, 80, st.clause)
			s := c.NewSession()

			for trial := 0; trial < 30; trial++ {
				p := genPred(rng, 2)
				limit := 1 + rng.Intn(10)
				sql := fmt.Sprintf("SELECT id, a FROM rt WHERE %s ORDER BY id LIMIT %d", p.sql(), limit)
				var wantIDs []int64
				for i, r := range ref {
					if p.eval(r) == ternTrue {
						wantIDs = append(wantIDs, int64(i))
					}
				}
				if len(wantIDs) > limit {
					wantIDs = wantIDs[:limit]
				}
				sweepPushdown(c, func(label string) {
					res, err := s.Exec(sql)
					if err != nil {
						t.Fatalf("trial %d %s: %q failed: %v", trial, label, sql, err)
					}
					if len(res.Rows) != len(wantIDs) {
						t.Fatalf("trial %d %s: %q: %d rows, want %d", trial, label, sql, len(res.Rows), len(wantIDs))
					}
					for i, r := range res.Rows {
						if r[0].Int() != wantIDs[i] {
							t.Fatalf("trial %d %s: %q: row %d id=%v, want %d", trial, label, sql, i, r[0], wantIDs[i])
						}
					}
				})
			}
		})
	}
}
