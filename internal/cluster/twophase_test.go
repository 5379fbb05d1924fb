package cluster

import (
	"fmt"
	"testing"

	"repro/internal/plan"
)

// setupFacts loads a 4-shard table with a known aggregate answer.
func setupFacts(t *testing.T, storage string) (*Cluster, *Session) {
	t.Helper()
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, fmt.Sprintf(
		"CREATE TABLE facts (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING %s", storage))
	for i := 0; i < 400; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO facts VALUES (%d, %d, %d)", i, i%4, i))
	}
	return c, s
}

func TestTwoPhaseAggCorrectness(t *testing.T) {
	for _, storage := range []string{"ROW", "COLUMN"} {
		t.Run(storage, func(t *testing.T) {
			_, s := setupFacts(t, storage)
			res := mustExec(t, s, "SELECT grp, count(*), sum(v), min(v), max(v) FROM facts GROUP BY grp ORDER BY grp")
			if len(res.Rows) != 4 {
				t.Fatalf("groups = %d", len(res.Rows))
			}
			for g, r := range res.Rows {
				if r[0].Int() != int64(g) || r[1].Int() != 100 {
					t.Errorf("group %d = %v", g, r)
				}
				// sum over {g, g+4, ..., g+396} = 100g + 4*(0+1+..+99).
				wantSum := int64(100*g) + 4*4950
				if r[2].Int() != wantSum {
					t.Errorf("group %d sum = %v, want %d", g, r[2], wantSum)
				}
				if r[3].Int() != int64(g) || r[4].Int() != int64(g+396) {
					t.Errorf("group %d min/max = %v/%v", g, r[3], r[4])
				}
			}
		})
	}
}

func TestTwoPhaseAggReducesRowsShipped(t *testing.T) {
	_, s := setupFacts(t, "ROW")
	// Pushed-down aggregate: only per-partition partials (4 groups x 4
	// shards = 16 rows worst case) cross to the coordinator.
	res := mustExec(t, s, "SELECT grp, count(*) FROM facts GROUP BY grp")
	if res.RowsShipped > 16 {
		t.Errorf("pushed-down agg shipped %d rows, want <= 16", res.RowsShipped)
	}
	// A plain scan ships all 400 rows.
	res = mustExec(t, s, "SELECT * FROM facts")
	if res.RowsShipped != 400 {
		t.Errorf("full scan shipped %d rows, want 400", res.RowsShipped)
	}
	// A filtered pushdown aggregate ships partials only.
	res = mustExec(t, s, "SELECT count(*) FROM facts WHERE v < 100")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("filtered count = %v", res.Rows[0][0])
	}
	if res.RowsShipped > 4 {
		t.Errorf("filtered agg shipped %d rows, want <= 4 partials", res.RowsShipped)
	}
}

func TestTwoPhaseAggFallbacks(t *testing.T) {
	_, s := setupFacts(t, "ROW")
	// avg and DISTINCT are not mergeable -> single-phase fallback, still
	// correct.
	res := mustExec(t, s, "SELECT avg(v) FROM facts")
	if res.Rows[0][0].Float() != 199.5 {
		t.Errorf("avg = %v", res.Rows[0][0])
	}
	if res.RowsShipped != 400 {
		t.Errorf("avg should fall back to gather (%d rows shipped)", res.RowsShipped)
	}
	res = mustExec(t, s, "SELECT count(DISTINCT grp) FROM facts")
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("count distinct = %v", res.Rows[0][0])
	}
	// Aggregates over joins fall back too.
	mustExec(t, s, "CREATE TABLE dim (grp BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
	for g := 0; g < 4; g++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO dim VALUES (%d, 'g%d')", g, g))
	}
	res = mustExec(t, s, "SELECT d.name, count(*) FROM facts f JOIN dim d ON f.grp = d.grp GROUP BY d.name ORDER BY 1")
	if len(res.Rows) != 4 || res.Rows[0][1].Int() != 100 {
		t.Errorf("join agg = %v", res.Rows)
	}
}

func TestTwoPhaseAggEmptyTable(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE empty (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")
	res := mustExec(t, s, "SELECT count(*), sum(v), min(v) FROM empty")
	r := res.Rows[0]
	if r[0].Int() != 0 || !r[1].IsNull() || !r[2].IsNull() {
		t.Errorf("empty aggregate = %v", r)
	}
	// Grouped aggregate over empty input emits no rows.
	res = mustExec(t, s, "SELECT v, count(*) FROM empty GROUP BY v")
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty = %v", res.Rows)
	}
}

func TestTwoPhaseAggSnapshotIsolation(t *testing.T) {
	// A pushed-down aggregate must not see another session's uncommitted
	// writes (the partial aggregates run under the statement's merged
	// snapshots).
	_, s1 := setupFacts(t, "ROW")
	c := s1.c
	s2 := c.NewSession()
	mustExec(t, s2, "BEGIN")
	mustExec(t, s2, "INSERT INTO facts VALUES (1000, 0, 0)")
	res := mustExec(t, s1, "SELECT count(*) FROM facts")
	if res.Rows[0][0].Int() != 400 {
		t.Errorf("count sees uncommitted insert: %v", res.Rows[0][0])
	}
	mustExec(t, s2, "COMMIT")
	res = mustExec(t, s1, "SELECT count(*) FROM facts")
	if res.Rows[0][0].Int() != 401 {
		t.Errorf("count after commit = %v", res.Rows[0][0])
	}
}

func TestHavingWithTwoPhaseAgg(t *testing.T) {
	_, s := setupFacts(t, "ROW")
	mustExec(t, s, "DELETE FROM facts WHERE grp = 3 AND v > 100")
	res := mustExec(t, s, "SELECT grp, count(*) AS n FROM facts GROUP BY grp HAVING count(*) > 50 ORDER BY grp")
	if len(res.Rows) != 3 {
		t.Fatalf("having rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].Int() == 3 {
			t.Errorf("group 3 should be filtered by HAVING: %v", r)
		}
	}
}

// TestTwoPhaseAggFollowsPushdownLadder: a partial aggregate is a sink of the
// NDP scan, so it follows the pushdown ladder like any other reduction — at
// PushdownOff the scan is plain and every row crosses to the coordinator,
// from PushdownFilter up only the per-partition partials do. The answer is
// the same at every level.
func TestTwoPhaseAggFollowsPushdownLadder(t *testing.T) {
	const q = "SELECT grp, count(*), sum(v), min(v) FROM facts WHERE v < 300 GROUP BY grp ORDER BY grp"
	for _, storage := range []string{"ROW", "COLUMN"} {
		t.Run(storage, func(t *testing.T) {
			c, s := setupFacts(t, storage)
			defer func() { c.Pushdown = plan.PushdownBloom }()
			var want string
			for _, lv := range plan.PushdownLadder {
				c.Pushdown = lv
				res := mustExec(t, s, q)
				got := fmt.Sprint(res.Rows)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s: rows %s, want %s (as at %s)", lv, got, want, plan.PushdownOff)
				}
				shards := int64(c.DataNodeCount())
				switch {
				case lv == plan.PushdownOff && res.RowsShipped != 400:
					t.Errorf("%s: shipped %d rows, want all 400 (a plain scan under a coordinator Filter)", lv, res.RowsShipped)
				case lv != plan.PushdownOff && res.RowsShipped > 4*shards:
					t.Errorf("%s: shipped %d rows, want <= 4 groups x %d shards", lv, res.RowsShipped, shards)
				}
			}
		})
	}
}
