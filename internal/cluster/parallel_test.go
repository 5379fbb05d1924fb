package cluster

import (
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// execAtDegrees runs one query at several parallel degrees and asserts the
// results are byte-identical to the degree-1 (sequential) output.
func execAtDegrees(t *testing.T, c *Cluster, s *Session, query string) {
	t.Helper()
	c.ParallelDegree = 1
	base := mustExec(t, s, query)
	for _, degree := range []int{2, 4, 8} {
		c.ParallelDegree = degree
		res := mustExec(t, s, query)
		if len(res.Rows) != len(base.Rows) {
			t.Fatalf("%q at degree %d: %d rows, sequential %d", query, degree, len(res.Rows), len(base.Rows))
		}
		for i := range res.Rows {
			if res.Rows[i].String() != base.Rows[i].String() {
				t.Fatalf("%q at degree %d: row %d = %v, sequential %v", query, degree, i, res.Rows[i], base.Rows[i])
			}
		}
	}
	c.ParallelDegree = 0
}

func TestParallelDegreeResultsIdentical(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 200)
	mustExec(t, s, "CREATE TABLE colfacts (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	for i := 0; i < 300; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO colfacts VALUES (%d, %d, %d)", i, i%7, i*3))
	}
	for _, q := range []string{
		"SELECT id, balance FROM accounts",                                 // row scatter scan
		"SELECT count(*), sum(balance) FROM accounts",                      // row partial agg
		"SELECT branch, count(*) FROM accounts GROUP BY branch ORDER BY 1", // grouped agg
		"SELECT grp, sum(v) FROM colfacts GROUP BY grp ORDER BY grp",       // vectorized partial agg
		"SELECT k, v FROM colfacts WHERE v < 60",                           // columnar scan + pushed pred
		"SELECT count(*) FROM accounts WHERE balance = 100 AND id < 50",    // pred through agg path
	} {
		execAtDegrees(t, c, s, q)
	}
}

// fillColSeq creates a single-DN columnar table and loads rows*1 values of
// seq = 0..n-1 in order, in batches inside one transaction, so sealed
// segments carry tight, disjoint seq zone maps.
func fillColSeq(t *testing.T, c *Cluster, n int) *Session {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE ordered (k BIGINT, seq BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	mustExec(t, s, "BEGIN")
	const batch = 512
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		var sb []byte
		sb = append(sb, "INSERT INTO ordered VALUES "...)
		for i := lo; i < hi; i++ {
			if i > lo {
				sb = append(sb, ',')
			}
			sb = append(sb, fmt.Sprintf("(%d, %d)", i, i)...)
		}
		mustExec(t, s, string(sb))
	}
	mustExec(t, s, "COMMIT")
	return s
}

// TestSegmentPruningReducesRowsScanned loads three exactly-full segments of
// ascending seq values and checks via the scan counters that a selective
// predicate skips the two segments whose zone maps exclude it — on both
// the vectorized aggregate path and the plain scan path — while
// DisableSegmentPrune scans everything.
func TestSegmentPruningReducesRowsScanned(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	const rows = 3 * 8192 // colstore.SegmentRows; exact multiple leaves no delta buffer
	s := fillColSeq(t, c, rows)

	ti, err := c.tableInfo("ordered")
	if err != nil {
		t.Fatal(err)
	}
	if got := ti.part(0).col.SegmentCount(); got != 3 {
		t.Fatalf("segments = %d, want 3 (buffer did not seal as expected)", got)
	}

	delta := func(run func()) (scanned, pruned, rowsRead int64) {
		beforeStats, err := c.TableScanStats("ordered")
		if err != nil {
			t.Fatal(err)
		}
		run()
		after, err := c.TableScanStats("ordered")
		if err != nil {
			t.Fatal(err)
		}
		return after.SegmentsScanned - beforeStats.SegmentsScanned,
			after.SegmentsPruned - beforeStats.SegmentsPruned,
			after.RowsScanned - beforeStats.RowsScanned
	}

	// Aggregate path: count over a one-segment slice of the key space.
	scanned, pruned, rowsRead := delta(func() {
		res := mustExec(t, s, "SELECT count(*) FROM ordered WHERE seq < 100")
		if res.Rows[0][0].Int() != 100 {
			t.Fatalf("count = %v, want 100", res.Rows[0][0])
		}
	})
	if scanned != 1 || pruned != 2 || rowsRead != 8192 {
		t.Fatalf("agg path: scanned=%d pruned=%d rows=%d, want 1/2/8192", scanned, pruned, rowsRead)
	}

	// Plain scan path (no aggregate): same pruning, same fragment program.
	scanned, pruned, rowsRead = delta(func() {
		res := mustExec(t, s, "SELECT k FROM ordered WHERE seq = 10000")
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10000 {
			t.Fatalf("point rows = %v", res.Rows)
		}
	})
	if scanned != 1 || pruned != 2 || rowsRead != 8192 {
		t.Fatalf("scan path: scanned=%d pruned=%d rows=%d, want 1/2/8192", scanned, pruned, rowsRead)
	}

	// BETWEEN spanning two segments keeps exactly those two.
	scanned, pruned, _ = delta(func() {
		res := mustExec(t, s, "SELECT count(*) FROM ordered WHERE seq BETWEEN 8000 AND 9000")
		if res.Rows[0][0].Int() != 1001 {
			t.Fatalf("between count = %v, want 1001", res.Rows[0][0])
		}
	})
	if scanned != 2 || pruned != 1 {
		t.Fatalf("between: scanned=%d pruned=%d, want 2/1", scanned, pruned)
	}

	// Ablation: pruning disabled scans all three segments, same answer.
	c.DisableSegmentPrune = true
	scanned, pruned, rowsRead = delta(func() {
		res := mustExec(t, s, "SELECT count(*) FROM ordered WHERE seq < 100")
		if res.Rows[0][0].Int() != 100 {
			t.Fatalf("count with pruning disabled = %v", res.Rows[0][0])
		}
	})
	c.DisableSegmentPrune = false
	if scanned != 3 || pruned != 0 || rowsRead != int64(rows) {
		t.Fatalf("pruning disabled: scanned=%d pruned=%d rows=%d, want 3/0/%d", scanned, pruned, rowsRead, rows)
	}
}

// TestSegmentPruningDeltaBufferVisible guards the conservative side:
// unsealed delta rows have no zone maps and must never be pruned away.
func TestSegmentPruningDeltaBufferVisible(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE d (k BIGINT, seq BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	mustExec(t, s, "INSERT INTO d VALUES (1, 5), (2, 50), (3, 500)")
	res := mustExec(t, s, "SELECT count(*) FROM d WHERE seq < 100")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("delta-buffer rows pruned: count = %v, want 2", res.Rows[0][0])
	}
}

// TestRoutedDedupMultiShard is the regression test for the SELECT routing
// dedup bug: with a table referenced several times and the statement
// routed to MORE than one shard, the per-table routed lists must still be
// deduplicated — before the fix, accounts' list held a duplicate shard and
// every scan of it read that shard twice, double-counting join rows.
func TestRoutedDedupMultiShard(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 100)

	// Two keys on different shards.
	k1 := int64(0)
	sh1 := c.RouteKey(types.NewInt(k1))
	k2 := int64(-1)
	for k := int64(1); k < 100; k++ {
		if c.RouteKey(types.NewInt(k)) != sh1 {
			k2 = k
			break
		}
	}
	if k2 < 0 {
		t.Fatal("could not find keys on two different shards")
	}

	// All three dist-key equalities sit in WHERE so every reference routes:
	// a and b to sh(k1), c to sh(k2) -> routed["accounts"] collects both
	// shards, with sh(k1) listed twice before the fix.
	q := fmt.Sprintf(
		"SELECT count(*) FROM accounts a JOIN accounts b ON a.id = b.id JOIN accounts c ON 1 = 1 WHERE a.id = %d AND b.id = %d AND c.id = %d",
		k1, k1, k2)
	res := mustExec(t, s, q)
	if got := res.Rows[0][0].Int(); got != 1 {
		t.Fatalf("3-way join count = %d, want 1 (duplicate shard in routed list?)", got)
	}
}

// TestNDPPushdownResultsIdentical is the end-to-end determinism claim for
// near-data processing: every pushdown level (off, filter, +projection,
// +topn, +bloom) at every parallel degree must return rows byte-identical
// to the pushdown-off sequential plan — TopN tie-breaking, bare LIMIT,
// bloom'd joins, and the row-store fallback included.
func TestNDPPushdownResultsIdentical(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 200)
	mustExec(t, s, "CREATE TABLE ndpf (k BIGINT, grp BIGINT, v BIGINT, pad BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	for i := 0; i < 400; i++ {
		// v = (i*37)%101 has heavy duplicates: TopN ties cross fragments.
		mustExec(t, s, fmt.Sprintf("INSERT INTO ndpf VALUES (%d, %d, %d, %d)", i, i%7, (i*37)%101, i))
	}
	mustExec(t, s, "CREATE TABLE ndpd (id BIGINT, tag BIGINT) DISTRIBUTE BY HASH(id)")
	mustExec(t, s, "INSERT INTO ndpd VALUES (0, 10), (2, 12), (4, 14)")

	queries := []string{
		"SELECT k, v FROM ndpf WHERE v >= 50 ORDER BY v DESC, k LIMIT 7",
		"SELECT v FROM ndpf ORDER BY v LIMIT 9",   // duplicate keys at the cut
		"SELECT k FROM ndpf WHERE v < 30 LIMIT 6", // bare LIMIT, no order
		"SELECT k, grp FROM ndpf WHERE grp = 3 AND v > 10 ORDER BY k DESC LIMIT 5",
		"SELECT f.k, f.v, d.tag FROM ndpf f, ndpd d WHERE f.grp = d.id ORDER BY f.k LIMIT 20",
		"SELECT id, balance FROM accounts WHERE balance >= 100 ORDER BY id LIMIT 11", // row store
	}
	defer func() { c.Pushdown, c.ParallelDegree = plan.PushdownBloom, 0 }()
	for _, q := range queries {
		c.Pushdown = plan.PushdownOff
		c.ParallelDegree = 1
		base := mustExec(t, s, q)
		var offShipped, fullShipped int64
		for _, lv := range plan.PushdownLadder {
			c.Pushdown = lv
			for _, degree := range []int{1, 2, 4, 8} {
				c.ParallelDegree = degree
				res := mustExec(t, s, q)
				if len(res.Rows) != len(base.Rows) {
					t.Fatalf("%q %s degree %d: %d rows, baseline %d", q, lv, degree, len(res.Rows), len(base.Rows))
				}
				for i := range res.Rows {
					if res.Rows[i].String() != base.Rows[i].String() {
						t.Fatalf("%q %s degree %d: row %d = %v, baseline %v", q, lv, degree, i, res.Rows[i], base.Rows[i])
					}
				}
				switch lv {
				case plan.PushdownOff:
					offShipped = res.RowsShipped
				case plan.PushdownBloom:
					fullShipped = res.RowsShipped
				}
			}
		}
		// Sanity that pushdown actually engaged: full NDP must ship fewer
		// rows than pull-up on every query here (all are selective).
		if fullShipped >= offShipped {
			t.Errorf("%q: full pushdown shipped %d rows, off shipped %d — pushdown not engaged", q, fullShipped, offShipped)
		}
	}
}
