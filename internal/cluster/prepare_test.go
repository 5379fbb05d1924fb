package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/spatial"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// prepareText prepares sql on s the way the front door does: parsed once
// with parameter nodes where Normalize lifted its literals. It returns the
// handle and the values this text binds.
func prepareText(t *testing.T, s *Session, sql string) (*Prepared, []types.Datum) {
	t.Helper()
	sh := sqlx.Normalize(sql)
	ast, err := sqlx.ParseLifted(sql, sh.Pos)
	if err != nil {
		t.Fatalf("ParseLifted(%q): %v", sql, err)
	}
	return s.Prepare(ast), sh.Params
}

// valuesOf returns the values another text of the same shape binds.
func valuesOf(t *testing.T, shapeOf, sql string) []types.Datum {
	t.Helper()
	a, b := sqlx.Normalize(shapeOf), sqlx.Normalize(sql)
	if a.Key != b.Key {
		t.Fatalf("%q and %q are not one shape: %q vs %q", shapeOf, sql, a.Key, b.Key)
	}
	return b.Params
}

func mustRun(t *testing.T, p *Prepared, params []types.Datum) *Result {
	t.Helper()
	res, err := p.Exec(params)
	if err != nil {
		t.Fatalf("prepared %s with %v: %v", p.stmt, params, err)
	}
	return res
}

// storageWork is what a table's partitions have done so far, in counts: row
// versions examined, and the columnar zone-map counters.
type storageWork struct {
	visited int64
	scans   colstore.ScanStats
}

func workOn(t *testing.T, c *Cluster, table string) storageWork {
	t.Helper()
	ti, err := c.tableInfo(table)
	if err != nil {
		t.Fatal(err)
	}
	var w storageWork
	for _, part := range *ti.parts.Load() {
		if part.row != nil {
			w.visited += part.row.Visited()
		}
		if part.col != nil {
			w.scans.Add(part.col.ScanStats())
		}
	}
	return w
}

// since returns the work done after before was taken.
func (w storageWork) since(before storageWork) storageWork {
	w.visited -= before.visited
	w.scans.SegmentsScanned -= before.scans.SegmentsScanned
	w.scans.SegmentsPruned -= before.scans.SegmentsPruned
	w.scans.RowsScanned -= before.scans.RowsScanned
	return w
}

// shapeTwin executes statements two ways on one session: as literal text, and
// as the front door would — through one prepared handle per shape, with the
// text's values bound.
type shapeTwin struct {
	t       *testing.T
	c       *Cluster
	s       *Session
	handles map[string]*Prepared
}

func newShapeTwin(t *testing.T, c *Cluster) *shapeTwin {
	return &shapeTwin{t: t, c: c, s: c.NewSession(), handles: map[string]*Prepared{}}
}

// byShape executes sql through its shape's handle.
func (w *shapeTwin) byShape(sql string) (*Result, error) {
	w.t.Helper()
	sh := sqlx.Normalize(sql)
	p := w.handles[sh.Key]
	if p == nil {
		p, _ = prepareText(w.t, w.s, sql)
		w.handles[sh.Key] = p
	}
	return p.Exec(sh.Params)
}

// exec runs a statement reading table both ways and fails the test unless
// rows (as a multiset), error and the work table's storage did are the same;
// it returns what the literal text returned.
func (w *shapeTwin) exec(table, sql string) (*Result, error) {
	w.t.Helper()
	start := workOn(w.t, w.c, table)
	fresh, ferr := w.s.Exec(sql)
	mid := workOn(w.t, w.c, table)
	kept, kerr := w.byShape(sql)
	textWork, shapeWork := mid.since(start), workOn(w.t, w.c, table).since(mid)
	switch {
	case ferr != nil || kerr != nil:
		if fmt.Sprint(ferr) != fmt.Sprint(kerr) {
			w.t.Fatalf("%q: as text err = %v, by shape err = %v", sql, ferr, kerr)
		}
	case canon(fresh.Rows) != canon(kept.Rows):
		w.t.Fatalf("%q:\nas text:\n%s\nby shape:\n%s", sql, canon(fresh.Rows), canon(kept.Rows))
	}
	if textWork != shapeWork {
		w.t.Fatalf("%q: as text storage did %+v, by shape %+v", sql, textWork, shapeWork)
	}
	return fresh, ferr
}

// TestPreparedReplansWhenTheCatalogMoves: whatever a compiled unit assumed
// about the cluster is in its stamp, and every way the cluster can change
// under it — DDL, ANALYZE, a new node and bucket moves, a failover, a
// planner setting — makes the next execution compile afresh and answer for
// the new state; nothing else does.
func TestPreparedReplansWhenTheCatalogMoves(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 60)
	read, readVals := prepareText(t, s, "SELECT balance FROM accounts WHERE id = 7")
	write, writeVals := prepareText(t, s, "UPDATE accounts SET balance = balance + 5 WHERE id = 7")
	join, joinVals := prepareText(t, s, "SELECT count(*) FROM accounts a JOIN accounts b ON a.id = b.id WHERE a.branch = 3")

	balance := int64(100)
	// step executes all three handles and checks the answers; it reports
	// whether each was compiled again since the last step.
	units := map[*Prepared]unit{}
	step := func(when string, wantReplan bool) {
		t.Helper()
		if res := mustRun(t, write, writeVals); res.RowsAffected != 1 {
			t.Fatalf("%s: UPDATE affected %d rows, want 1", when, res.RowsAffected)
		}
		balance += 5
		if res := mustRun(t, read, readVals); len(res.Rows) != 1 || res.Rows[0][0].Int() != balance {
			t.Fatalf("%s: balance reads %v, want %d", when, res.Rows, balance)
		}
		if res := mustRun(t, join, joinVals); len(res.Rows) != 1 || res.Rows[0][0].Int() != 6 {
			t.Fatalf("%s: self-join counts %v, want 6", when, res.Rows)
		}
		for _, p := range []*Prepared{read, write, join} {
			if replanned := units[p] != p.unit; units[p] != nil && replanned != wantReplan {
				t.Errorf("%s: %s recompiled = %v, want %v", when, p.stmt, replanned, wantReplan)
			}
			units[p] = p.unit
		}
	}
	step("first execution", true)
	step("nothing changed", false)

	// An unrelated session's transactions, aborted ones included, change
	// nothing a plan assumed.
	other := c.NewSession()
	mustExec(t, other, "BEGIN")
	mustExec(t, other, "UPDATE accounts SET balance = 0 WHERE id = 8")
	mustExec(t, other, "ROLLBACK")
	step("after a rolled-back transaction", false)

	if err := c.Analyze("accounts"); err != nil {
		t.Fatal(err)
	}
	step("after ANALYZE", true)

	c.Pushdown = plan.PushdownOff
	step("pushdown off", true)
	c.Pushdown = plan.PushdownBloom
	step("pushdown on", true)
	c.JoinPolicy = plan.DistJoinPolicy{Disable: true}
	step("distributed joins disabled", true)
	c.JoinPolicy = plan.DistJoinPolicy{}
	step("distributed joins enabled", true)
	c.ParallelDegree = 1
	step("degree 1", true)

	// A new node takes over the bucket the prepared statements route to:
	// the next execution finds the row on its new owner.
	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	step("after AddDataNode", true)
	if _, err := c.MoveBucket(BucketOf(types.NewInt(7)), id); err != nil {
		t.Fatal(err)
	}
	if owner := c.RouteKey(types.NewInt(7)); owner != id {
		t.Fatalf("key 7 routes to dn%d after the move, want dn%d", owner, id)
	}
	step("after MoveBucket", true)

	// Failover: the key's owner dies and its standby (seeded just now;
	// nothing ships records in this test) is promoted.
	sid, err := c.AddStandby(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDataNodeDown(id, true)
	if _, err := c.PromoteStandby(id, sid, func() {}); err != nil {
		t.Fatal(err)
	}
	step("after the failover", true)

	// The same name, another table: columns in another order, another key.
	mustExec(t, s, "DROP TABLE accounts")
	mustExec(t, s, "CREATE TABLE accounts (balance BIGINT, id BIGINT, branch BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(branch)")
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", 1000+i, i, i%10))
	}
	balance = 1007
	step("after DROP and CREATE", true)
	step("nothing changed again", false)
}

// TestPreparedExecutionsShareNothingButThePlan: one handle, many executions —
// with other values, inside transactions that roll back or abort — and what
// an execution returned stays what it returned.
func TestPreparedExecutionsShareNothingButThePlan(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 40)
	const text = "SELECT id, balance FROM accounts WHERE id = 3"
	read, vals := prepareText(t, s, text)
	first := mustRun(t, read, vals)
	held := fmt.Sprint(first.Rows)
	if held != "[(3, 100)]" {
		t.Fatalf("first execution returned %s", held)
	}
	unitBefore := read.unit
	second := mustRun(t, read, valuesOf(t, text, "SELECT id, balance FROM accounts WHERE id = 4"))
	if got := fmt.Sprint(second.Rows); got != "[(4, 100)]" {
		t.Fatalf("second execution returned %s", got)
	}
	if got := fmt.Sprint(first.Rows); got != held {
		t.Fatalf("the first execution's rows became %s after the second, were %s", got, held)
	}

	bump, bumpVals := prepareText(t, s, "UPDATE accounts SET balance = balance + 1 WHERE id = 3")
	mustExec(t, s, "BEGIN")
	mustRun(t, bump, bumpVals)
	if res := mustRun(t, read, vals); res.Rows[0][1].Int() != 101 {
		t.Fatalf("inside the transaction balance reads %v, want 101", res.Rows)
	}
	mustExec(t, s, "ROLLBACK")
	if res := mustRun(t, read, vals); res.Rows[0][1].Int() != 100 {
		t.Fatalf("after ROLLBACK balance reads %v, want 100", res.Rows)
	}

	// An aborted transaction: a statement fails, the block is dead until
	// ROLLBACK, the handles live on.
	mustExec(t, s, "BEGIN")
	mustRun(t, bump, bumpVals)
	if _, err := s.Exec("INSERT INTO accounts VALUES (3, 0, 0)"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := read.Exec(vals); err != ErrTxnAborted {
		t.Fatalf("prepared statement in an aborted transaction: %v, want ErrTxnAborted", err)
	}
	mustExec(t, s, "ROLLBACK")
	mustRun(t, bump, bumpVals)
	if res := mustRun(t, read, vals); res.Rows[0][1].Int() != 101 {
		t.Fatalf("after the aborted transaction and one UPDATE balance reads %v, want 101", res.Rows)
	}
	if read.unit != unitBefore {
		t.Error("transactions made the SELECT compile again")
	}

	// A value of the wrong kind for the routing column fails the execution,
	// not the handle.
	bad, badVals := prepareText(t, s, "SELECT id FROM accounts WHERE id = 'x'")
	if _, err := bad.Exec(badVals); err == nil {
		t.Fatal("comparing the BIGINT key with a string succeeded")
	}
	if res := mustRun(t, read, vals); len(res.Rows) != 1 {
		t.Fatalf("after a failed execution elsewhere: %v", res.Rows)
	}
}

// TestPreparedTwiceEqualsFreshTwice runs the DML harness's statements, and
// SELECTs over its predicates, twice through one prepared handle against one
// table and twice as fresh text against its twin — row tables, then columnar
// ones sealed into segments as they grow: every reply, error, the tables
// themselves and what storage did for each statement (versions visited,
// segments and rows scanned and pruned) must stay equal. A kept unit may not
// carry anything from one execution into the next, and a bound value narrows
// a scan exactly as the literal does.
func TestPreparedTwiceEqualsFreshTwice(t *testing.T) {
	for _, lay := range []struct {
		name, clause string
		rowStore     bool
	}{
		{"", ", PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)", true},
		{"columnar ", ") DISTRIBUTE BY HASH(id) USING COLUMN", false},
	} {
		for _, degree := range []int{1, 4} {
			t.Run(fmt.Sprintf("%sdegree %d", lay.name, degree), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(11 + degree)))
				c := newCluster(t, 3, ModeGTMLite)
				c.ParallelDegree = degree
				for _, name := range []string{"wt", "wp"} {
					mustExec(t, c.NewSession(), "CREATE TABLE "+name+" (id BIGINT, a BIGINT, b BIGINT, c TEXT, d TEXT"+lay.clause)
				}
				// One handle per shape, as a session's statement cache holds.
				w := newShapeTwin(t, c)
				same := func(sql string) {
					t.Helper()
					for run := 1; run <= 2; run++ {
						startT, startP := workOn(t, c, "wt"), workOn(t, c, "wp")
						fresh, ferr := w.s.Exec(sql)
						kept, kerr := w.byShape(strings.ReplaceAll(sql, "wt", "wp"))
						if f, k := workOn(t, c, "wt").since(startT), workOn(t, c, "wp").since(startP); f != k {
							t.Fatalf("run %d of %q: storage did %+v for the fresh text, %+v for the prepared handle", run, sql, f, k)
						}
						if (ferr == nil) != (kerr == nil) {
							t.Fatalf("run %d of %q: fresh err = %v, prepared err = %v", run, sql, ferr, kerr)
						}
						if ferr != nil {
							if f, k := ferr.Error(), strings.ReplaceAll(kerr.Error(), "wp", "wt"); f != k {
								t.Fatalf("run %d of %q: fresh fails with %q, prepared with %q", run, sql, f, k)
							}
							continue
						}
						if f, k := fmt.Sprint(fresh.Rows), fmt.Sprint(kept.Rows); f != k || fresh.RowsAffected != kept.RowsAffected {
							t.Fatalf("run %d of %q:\nfresh:    %d affected, rows %s\nprepared: %d affected, rows %s", run, sql, fresh.RowsAffected, f, kept.RowsAffected, k)
						}
					}
				}
				m := &dmlModel{keyed: lay.rowStore, rowStore: lay.rowStore}
				for i := 0; i < 150; i++ {
					st := m.gen(rng)
					same(st.sql)
					// The model only feeds the generators: follow what the first
					// run did (the second re-inserts keys and fails, or re-applies).
					if st.apply != nil {
						st.apply()
					}
					p := genPred(rng, 2)
					same("SELECT id, a, b, c, d FROM wt WHERE " + p.sql())
					same(fmt.Sprintf("SELECT id, a FROM wt WHERE id = %d AND (%s)", rng.Int63n(m.nextID+1), p.sql()))
					same("SELECT b, count(*), sum(a) FROM wt WHERE " + p.sql() + " GROUP BY b ORDER BY b")
					same(fmt.Sprintf("SELECT id FROM wt WHERE a IN (SELECT a FROM wt WHERE id = %d) ORDER BY id LIMIT 5", rng.Int63n(m.nextID+1)))
					if i%10 == 0 {
						same("SELECT id, a, b, c, d FROM wt ORDER BY id")
						// Seal what the columnar twins hold: zone maps to prune by.
						for _, name := range []string{"wt", "wp"} {
							ti, _ := c.tableInfo(name)
							for _, part := range *ti.parts.Load() {
								if part.col != nil {
									part.col.Flush()
								}
							}
						}
					}
				}
				same("SELECT id, a, b, c, d FROM wt ORDER BY id")
				if len(w.handles) < 20 {
					t.Fatalf("only %d shapes were prepared", len(w.handles))
				}
			})
		}
	}
}

// TestShapePreparedPrunesLikeLiteral: how a statement arrived — as text with
// its literals, or prepared by shape with the values bound — changes neither
// its answer nor the work storage does for it. Every case runs both ways on
// a multi-segment columnar table, distributed and pinned to one shard and
// replicated (the two shapes whose plan is kept with parameters in it), and
// must return the same rows or error and move the zone-map counters alike.
func TestShapePreparedPrunesLikeLiteral(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	// Four sealed segments of 500 rows — seq ascending, k constant in each,
	// v = seq - 1000 — and 100 rows in the delta buffer.
	const segRows, segs, tail = 500, 4, 100
	for _, tbl := range []struct{ name, dist string }{{"ev", "HASH(g)"}, {"evr", "REPLICATION"}} {
		mustExec(t, s, "CREATE TABLE "+tbl.name+" (g BIGINT, seq BIGINT, k BIGINT, v BIGINT) DISTRIBUTE BY "+tbl.dist+" USING COLUMN")
		for lo := 0; lo < segRows*segs+tail; lo += segRows {
			var sb strings.Builder
			for i := lo; i < min(lo+segRows, segRows*segs+tail); i++ {
				fmt.Fprintf(&sb, ",(7, %d, %d, %d)", i, i/segRows, i-1000)
			}
			mustExec(t, s, "INSERT INTO "+tbl.name+" VALUES "+sb.String()[1:])
			if lo < segRows*segs {
				ti, err := c.tableInfo(tbl.name)
				if err != nil {
					t.Fatal(err)
				}
				for _, part := range *ti.parts.Load() {
					part.col.Flush()
				}
			}
		}
	}

	type outcome struct {
		rows, err string
		work      storageWork
	}
	run := func(table string, exec func() (*Result, error)) outcome {
		t.Helper()
		before := workOn(t, c, table)
		var out outcome
		if res, err := exec(); err != nil {
			out.err = err.Error()
		} else {
			out.rows = fmt.Sprint(res.Rows)
		}
		out.work = workOn(t, c, table).since(before)
		return out
	}

	cases := []struct {
		where  string
		null   bool // bind NULL in place of the last value; the text compared with says NULL there
		pruned int64
		fails  bool
	}{
		{where: "seq < 100", pruned: 3},
		{where: "seq < 1200", pruned: 1}, // the same shape and handle, other values
		{where: "100 > seq", pruned: 3},
		{where: "v < -900 AND seq >= 0", pruned: 3},
		{where: "-900 > v", pruned: 3},
		{where: "seq BETWEEN 600 AND 700", pruned: 3},
		{where: "seq IN (5, 1999)", pruned: 2},
		{where: "k <> 2", pruned: 1},
		{where: "seq = 1234.0", pruned: 3},
		{where: "seq < 100", null: true},
		{where: "seq IN (5, 1999)", null: true},
		{where: "seq BETWEEN 600 AND 700", null: true, pruned: 1}, // >= 600 still stands
		{where: "seq < 'x'", fails: true},
		{where: "seq = 'x' AND k = 1", fails: true},
	}
	handles := map[string]*Prepared{}
	for _, noPrune := range []bool{false, true} {
		c.DisableSegmentPrune = noPrune
		for _, table := range []string{"ev", "evr"} {
			for _, tc := range cases {
				sql := "SELECT count(*), sum(v) FROM " + table + " WHERE g = 7 AND " + tc.where
				if table == "evr" {
					sql = "SELECT seq, v FROM evr WHERE " + tc.where + " ORDER BY seq"
				}
				sh := sqlx.Normalize(sql)
				p := handles[sh.Key]
				if p == nil {
					p, _ = prepareText(t, s, sql)
					handles[sh.Key] = p
				}
				params, literal := sh.Params, sql
				if tc.null {
					params = slices.Clone(params)
					params[len(params)-1] = types.Null
					at := sh.Pos[len(sh.Pos)-1]
					end := at + strings.IndexAny(sql[at:]+" ", " )")
					literal = sql[:at] + "NULL" + sql[end:]
				}
				when := fmt.Sprintf("%q (NULL bound: %v, DisableSegmentPrune: %v)", sql, tc.null, noPrune)
				fresh := run(table, func() (*Result, error) { return s.Exec(literal) })
				kept := run(table, func() (*Result, error) { return p.Exec(params) })
				if fresh != kept {
					t.Errorf("%s\nas text:  %+v\nby shape: %+v", when, fresh, kept)
				}
				if (fresh.err != "") != tc.fails {
					t.Errorf("%s: err = %q, want failure: %v", when, fresh.err, tc.fails)
				}
				want := colstore.ScanStats{SegmentsScanned: segs - tc.pruned, SegmentsPruned: tc.pruned, RowsScanned: (segs-tc.pruned)*segRows + tail}
				if noPrune {
					want = colstore.ScanStats{SegmentsScanned: segs, RowsScanned: segs*segRows + tail}
				}
				if !tc.fails && kept.work.scans != want {
					t.Errorf("%s: by shape storage did %+v, want %+v", when, kept.work.scans, want)
				}
			}
		}
	}
	if len(handles) >= 2*len(cases) {
		t.Errorf("%d handles for %d cases: no two shared a shape", len(handles), 2*len(cases))
	}
}

// TestShapePreparedPlansLikeLiteral: the planner reads an execution's values
// where the text had literals, so what it says about a scatter statement —
// EXPLAIN's steps and estimates, the step text the plan store captures and
// keys learned cardinalities by, a select item matched textually to its
// GROUP BY expression — is what it says about the literal text.
func TestShapePreparedPlansLikeLiteral(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 200)
	if err := c.Analyze("accounts"); err != nil {
		t.Fatal(err)
	}
	c.Learning = true
	c.Store.CaptureRatio = 1 // capture every step
	for _, sql := range []string{
		"SELECT id FROM accounts WHERE balance < 150 AND branch IN (1, 2) AND -3 < id",
		"SELECT count(*) FROM accounts a JOIN accounts b ON a.id = b.id WHERE a.branch = 3 AND b.balance BETWEEN 50 AND 150",
		"SELECT branch + 1, count(*) FROM accounts WHERE balance >= 100.5 GROUP BY branch + 1",
	} {
		captured := func(run func() *Result) (rows string, steps []string) {
			c.Store.Reset()
			rows = fmt.Sprint(run().Rows)
			for _, e := range c.Store.Entries() {
				steps = append(steps, fmt.Sprintf("%s est=%v actual=%v", e.StepText, e.Estimated, e.Actual))
			}
			return rows, steps
		}
		for _, text := range []string{sql, "EXPLAIN " + sql, "EXPLAIN ANALYZE " + sql} {
			p, params := prepareText(t, s, text)
			if len(params) < 2 {
				t.Fatalf("%q binds %v: the statement is not prepared by shape", text, params)
			}
			wantRows, wantSteps := captured(func() *Result { return mustExec(t, s, text) })
			gotRows, gotSteps := captured(func() *Result { return mustRun(t, p, params) })
			if strings.HasPrefix(text, "EXPLAIN ANALYZE") {
				// The TOTAL line carries a wall-clock time.
				wantRows, gotRows = wantRows[:strings.Index(wantRows, "TOTAL")], gotRows[:strings.Index(gotRows, "TOTAL")]
			}
			if wantRows != gotRows {
				t.Errorf("%q:\nas text:  %s\nby shape: %s", text, wantRows, gotRows)
			}
			if fmt.Sprint(wantSteps) != fmt.Sprint(gotSteps) || (text == sql && len(gotSteps) == 0) {
				t.Errorf("%q captured\nas text:  %q\nby shape: %q", text, wantSteps, gotSteps)
			}
		}
	}
}

// TestCompiledTableFunctionsRouteAsScatterReads: ggraph and gspatial
// compile to scans of distributed tables that the statement's text does not
// name, so they route to every primary, under one global snapshot taken
// before any fragment runs. Their compilers read only the catalog, so a
// literal statement keeps its plan like any other, and each execution reads
// the rows its own snapshot sees. gtimeseries routes by its inner query,
// here a scatter read of a series table.
func TestCompiledTableFunctionsRouteAsScatterReads(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	c.Hooks = plan.Hooks{
		GGraph: func(string, plan.Catalog) (*sqlx.Select, error) {
			stmt, err := sqlx.Parse("SELECT id FROM pts")
			return stmt.(*sqlx.Select), err
		},
		GSpatial: spatial.Compile,
	}
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE pts (id BIGINT PRIMARY KEY, x DOUBLE, y DOUBLE) DISTRIBUTE BY HASH(id)")
	mustExec(t, s, "CREATE TABLE series (ts TIMESTAMP, value DOUBLE) DISTRIBUTE BY HASH(value)")
	for i, tc := range []struct{ sql, insert string }{
		{"SELECT count(*) FROM ggraph('g.V()') AS g", "INSERT INTO pts VALUES (%d, 1.0, 1.0)"},
		{"SELECT count(*) FROM gspatial('pts.nearest(0, 0, 100)') AS p", "INSERT INTO pts VALUES (%d, 1.0, 1.0)"},
		{"SELECT count(*) FROM gtimeseries(SELECT ts FROM series) AS ts", "INSERT INTO series VALUES (now(), %d.0)"},
	} {
		stmt, err := sqlx.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Prepare(stmt)
		first := mustRun(t, p, nil)
		u := p.unit.(*selectUnit)
		if !u.distributed || !u.scatter || u.plan == nil {
			t.Errorf("%s: distributed %v, scatter %v, plan kept %v; want all true", tc.sql, u.distributed, u.scatter, u.plan != nil)
		}
		mustExec(t, s, fmt.Sprintf(tc.insert, i))
		second := mustRun(t, p, nil)
		if p.unit != unit(u) {
			t.Errorf("%s: compiled again after an INSERT", tc.sql)
		}
		if grew := second.Rows[0][0].Int() - first.Rows[0][0].Int(); grew != 1 {
			t.Errorf("%s: %v, then %v after an INSERT", tc.sql, first.Rows, second.Rows)
		}
	}
}

// TestGTimeseriesReadsHTAPReplicas: gtimeseries over stored tables is a
// derived table like any other, so the HTAP freshness gate admits it and a
// replica serves it with the primary's rows, in time order.
func TestGTimeseriesReadsHTAPReplicas(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	now := time.Unix(1_700_000_000, 0).UTC()
	c.Clock = func() time.Time { return now }
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE speed (ts TIMESTAMP, value DOUBLE, carid TEXT) DISTRIBUTE BY HASH(carid)")
	for i := 0; i < 40; i++ {
		at := now.Add(-time.Duration(i) * time.Minute).Format(time.RFC3339)
		mustExec(t, s, fmt.Sprintf("INSERT INTO speed VALUES ('%s', %d.0, 'car%d')", at, i, i%3))
	}
	const sql = "SELECT value, carid FROM gtimeseries(SELECT ts, value, carid FROM speed WHERE now() - ts < INTERVAL '30 minutes') AS g"
	primary := fmt.Sprint(mustExec(t, s, sql).Rows)

	LogFedReplicas(t, c)("speed")
	gate := &analyticalCount{AnalyticalProvider: c.analyticalReads()}
	c.SetAnalyticalReads(gate)
	if got := fmt.Sprint(mustExec(t, s, sql).Rows); got != primary || !strings.HasPrefix(got, "[(29, car2) (28, car1)") {
		t.Errorf("replica rows %s, primary %s", got, primary)
	}
	if n := gate.admitted.Load(); n != 1 {
		t.Errorf("%d statements read the HTAP replicas, want 1", n)
	}
}
