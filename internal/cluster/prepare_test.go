package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/plan"
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
	if _, err := c.PromoteStandby(id, sid); err != nil {
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
// table and twice as fresh text against its twin: every reply, error and the
// tables themselves must stay equal. A kept unit may not carry anything from
// one execution into the next.
func TestPreparedTwiceEqualsFreshTwice(t *testing.T) {
	for _, degree := range []int{1, 4} {
		t.Run(fmt.Sprintf("degree %d", degree), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11 + degree)))
			c := newCluster(t, 3, ModeGTMLite)
			c.ParallelDegree = degree
			s := c.NewSession()
			for _, name := range []string{"wt", "wp"} {
				mustExec(t, s, "CREATE TABLE "+name+" (id BIGINT, a BIGINT, b BIGINT, c TEXT, d TEXT, PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)")
			}
			// One handle per shape, as a session's statement cache holds.
			handles := map[string]*Prepared{}
			prepared := func(sql string) (*Result, error) {
				sql = strings.ReplaceAll(sql, "wt", "wp")
				sh := sqlx.Normalize(sql)
				p := handles[sh.Key]
				if p == nil {
					p, _ = prepareText(t, s, sql)
					handles[sh.Key] = p
				}
				return p.Exec(sh.Params)
			}
			same := func(sql string) {
				t.Helper()
				for run := 1; run <= 2; run++ {
					fresh, ferr := s.Exec(sql)
					kept, kerr := prepared(sql)
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
			m := &dmlModel{keyed: true, rowStore: true}
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
				}
			}
			same("SELECT id, a, b, c, d FROM wt ORDER BY id")
			if len(handles) < 20 {
				t.Fatalf("only %d shapes were prepared", len(handles))
			}
		})
	}
}
