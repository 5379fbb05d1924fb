package htap

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
)

func newCluster(t *testing.T, dns int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: dns})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustExec(t *testing.T, s *cluster.Session, sql string) *cluster.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func setup(t *testing.T, c *cluster.Cluster, rows int) *cluster.Session {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE accounts (id BIGINT, branch BIGINT, balance BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	for i := 0; i < rows; i += 20 {
		sql := "INSERT INTO accounts VALUES "
		for j := i; j < i+20 && j < rows; j++ {
			if j > i {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d, 100)", j, j%10)
		}
		mustExec(t, s, sql)
	}
	return s
}

func enable(t *testing.T, c *cluster.Cluster, cfg Config) *Manager {
	t.Helper()
	m, err := Enable(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// onPrimary answers q from the primary row path: read routing is detached
// for the statement while the replicas — fed by a separate tap
// subscription — keep applying.
func onPrimary(t *testing.T, c *cluster.Cluster, m *Manager, s *cluster.Session, q string) *cluster.Result {
	t.Helper()
	c.SetAnalyticalReads(nil)
	defer c.SetAnalyticalReads(m)
	return mustExec(t, s, q)
}

// checkConverged waits for the apply loops and compares every replica
// partition digest against the primary's.
func checkConverged(t *testing.T, c *cluster.Cluster, m *Manager, table string) {
	t.Helper()
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range m.Status().Replicas {
		want, err := c.PartitionDigest(table, st.DN, st.DN)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.ReplicaDigest(table, st.DN)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("dn%d: replica digest %+v != primary %+v", st.DN, got, want)
		}
	}
}

func TestSeedAndConverge(t *testing.T) {
	c := newCluster(t, 3)
	s := setup(t, c, 200)
	m := enable(t, c, Config{})

	// Seeded state matches the primaries immediately.
	checkConverged(t, c, m, "accounts")

	// Mixed DML after enable converges too: inserts, updates, deletes.
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, 5)", 1000+i, i%10))
	}
	mustExec(t, s, "UPDATE accounts SET balance = balance + 7 WHERE branch = 3")
	mustExec(t, s, "DELETE FROM accounts WHERE branch = 8")
	checkConverged(t, c, m, "accounts")
	if err := m.Err(); err != nil {
		t.Fatalf("apply failure: %v", err)
	}
}

func TestAnalyticalOffloadAndIdentity(t *testing.T) {
	c := newCluster(t, 3)
	s := setup(t, c, 300)
	m := enable(t, c, Config{})
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT count(*), sum(balance) FROM accounts",
		"SELECT branch, count(*), sum(balance) FROM accounts GROUP BY branch ORDER BY branch",
		"SELECT id, balance FROM accounts WHERE balance > 50 ORDER BY id LIMIT 10",
		"SELECT avg(balance) FROM accounts WHERE branch < 5",
	}
	for _, q := range queries {
		want := onPrimary(t, c, m, s, q)
		got := mustExec(t, s, q)
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s:\n  primary %v\n  replica %v", q, want.Rows, got.Rows)
		}
	}
	if off := m.Status().QueriesOffloaded; off < int64(len(queries)) {
		t.Errorf("offloaded = %d, want >= %d", off, len(queries))
	}

	// Point reads and DML must not offload.
	before := m.Status().QueriesOffloaded
	mustExec(t, s, "SELECT balance FROM accounts WHERE id = 17")
	mustExec(t, s, "UPDATE accounts SET balance = 1 WHERE id = 17")
	if off := m.Status().QueriesOffloaded; off != before {
		t.Errorf("point read/DML offloaded (%d -> %d)", before, off)
	}
}

// TestReplicaGroupsAndAggregateErrorsMatchPrimary: the replica's vectorized
// aggregate and the primary's row aggregate are one group table behind one
// key codec, so group keys that collide as joined text (', ' inside a value,
// NULL beside 'NULL') stay four groups on both, and a sum() the row path
// refuses is refused by the replica too instead of answering 0 or a number
// of nanoseconds.
func TestReplicaGroupsAndAggregateErrorsMatchPrimary(t *testing.T) {
	c := newCluster(t, 2)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE notes (id BIGINT, a TEXT, b TEXT, ts TIMESTAMP, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	mustExec(t, s, "INSERT INTO notes VALUES (1, 'a, b', 'c', '2024-01-01T00:00:00Z'), (2, 'a', 'b, c', '2024-01-02T00:00:00Z'), "+
		"(3, NULL, 'x', '2024-01-03T00:00:00Z'), (4, 'NULL', 'x', '2024-01-04T00:00:00Z')")
	m := enable(t, c, Config{})
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	q := "SELECT a, b, count(*), min(ts) FROM notes GROUP BY a, b ORDER BY b, a"
	want := onPrimary(t, c, m, s, q)
	before := m.Status().QueriesOffloaded
	got := mustExec(t, s, q)
	if len(got.Rows) != 4 || fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("%s:\n  primary %v\n  replica %v", q, want.Rows, got.Rows)
	}
	for _, q := range []string{"SELECT sum(a) FROM notes", "SELECT b, sum(ts) FROM notes GROUP BY b"} {
		c.SetAnalyticalReads(nil)
		_, wantErr := s.Exec(q)
		c.SetAnalyticalReads(m)
		_, gotErr := s.Exec(q)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s:\n  primary error %v\n  replica error %v", q, wantErr, gotErr)
		}
	}
	if off := m.Status().QueriesOffloaded; off < before+3 {
		t.Errorf("offloaded %d of 3 replica statements", off-before)
	}
}

// TestReplicaTopNMatchesPrimary: a pushed ORDER BY … LIMIT answered from
// the columnar replicas — whose fragment heaps turn rows away by their first
// key, and whose segments carry the delete stamps of the primary's UPDATEs
// and DELETEs — returns, at every pushdown level and degree, exactly the
// rows the primary returns with pushdown off at degree 1. Keys include
// BIGINTs above 2^53 that share their 64-bit prefixes, and ties.
func TestReplicaTopNMatchesPrimary(t *testing.T) {
	c := newCluster(t, 4)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE ord (id BIGINT, a BIGINT, e BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	for i := 0; i < 800; i += 100 {
		var vals []string
		for id := i; id < i+100; id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", id, id*7%40, int64(1)<<60+int64(id*37%400)-200))
		}
		mustExec(t, s, "INSERT INTO ord VALUES "+strings.Join(vals, ", "))
	}
	m := enable(t, c, Config{})
	mustExec(t, s, "UPDATE ord SET a = a + 1 WHERE a < 6")
	mustExec(t, s, "DELETE FROM ord WHERE a > 36")
	mustExec(t, s, "UPDATE ord SET e = e - 1 WHERE id > 600")
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer func() { c.Pushdown, c.ParallelDegree = plan.PushdownBloom, 0 }()
	for _, q := range []string{
		"SELECT id, e FROM ord ORDER BY e DESC, id LIMIT 7",
		"SELECT id, a, e FROM ord ORDER BY e LIMIT 4 OFFSET 3",
		"SELECT id, a FROM ord ORDER BY a LIMIT 9",
		"SELECT id, a FROM ord WHERE a <> 20 ORDER BY id DESC LIMIT 10",
	} {
		c.Pushdown, c.ParallelDegree = plan.PushdownOff, 1
		want := fmt.Sprint(onPrimary(t, c, m, s, q).Rows)
		before := m.Status().QueriesOffloaded
		for _, lv := range plan.PushdownLadder {
			for _, degree := range []int{1, 2, 4} {
				c.Pushdown, c.ParallelDegree = lv, degree
				if got := fmt.Sprint(mustExec(t, s, q).Rows); got != want {
					t.Errorf("%s at pushdown=%s degree=%d:\n  replica %s\n  primary %s", q, lv, degree, got, want)
				}
			}
		}
		if off := m.Status().QueriesOffloaded - before; off != int64(3*len(plan.PushdownLadder)) {
			t.Errorf("%s: %d of %d statements offloaded", q, off, 3*len(plan.PushdownLadder))
		}
	}
}

// TestReadOwnWritesInTxn asserts a transaction that has written reads its
// own writes — the statement must stay on the primary even though its
// shape is analytical, because the replica only learns about the write at
// commit.
func TestReadOwnWritesInTxn(t *testing.T) {
	c := newCluster(t, 3)
	s := setup(t, c, 100)
	m := enable(t, c, Config{})
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO accounts VALUES (5000, 1, 999)")
	res := mustExec(t, s, "SELECT count(*) FROM accounts WHERE balance = 999")
	if got := res.Rows[0][0].Int(); got != 1 {
		t.Errorf("txn does not see its own write through analytical shape: count=%d", got)
	}
	mustExec(t, s, "COMMIT")
	checkConverged(t, c, m, "accounts")
}

// TestFreshnessBound is the satellite-3 matrix: pause the apply loops
// mid-stream, assert PolicyDegrade sends statements to the primary
// immediately while PolicyBlock waits (and times out into degradation),
// that watermarks stay monotonic throughout, and that resuming converges
// to digest-identical replicas.
func TestFreshnessBound(t *testing.T) {
	c := newCluster(t, 3)
	s := setup(t, c, 100)
	m := enable(t, c, Config{MaxLagRecords: 0, Policy: PolicyDegrade, BlockTimeout: 50 * time.Millisecond})
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Freeze apply and stack up lag.
	m.SetApplyPaused(true)
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 1, 3)", 2000+i))
	}
	st := m.Status()
	if st.MaxLagRecords == 0 {
		t.Fatal("no lag accumulated while paused")
	}

	// PolicyDegrade: statement answers from the primary (correct, fresh)
	// and the degraded counter moves.
	degBefore := m.Status().QueriesDegraded
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if got := res.Rows[0][0].Int(); got != 130 {
		t.Errorf("degraded statement returned stale count %d, want 130", got)
	}
	if d := m.Status().QueriesDegraded; d != degBefore+1 {
		t.Errorf("degraded counter %d -> %d, want +1", degBefore, d)
	}

	// PolicyBlock with a paused apply loop: the gate must time out and
	// degrade rather than hang.
	m.SetPolicy(PolicyBlock)
	start := time.Now()
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if got := res.Rows[0][0].Int(); got != 130 {
		t.Errorf("blocked statement returned %d, want 130", got)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("gate returned after %v, want >= ~50ms block", waited)
	}
	st = m.Status()
	if st.GateBlocks == 0 || st.GateTimeouts == 0 {
		t.Errorf("gate counters: blocks=%d timeouts=%d, want both > 0", st.GateBlocks, st.GateTimeouts)
	}

	// A loose freshness bound admits the stale replicas as-is.
	m.SetFreshnessBound(1000)
	offBefore := m.Status().QueriesOffloaded
	mustExec(t, s, "SELECT sum(balance) FROM accounts")
	if off := m.Status().QueriesOffloaded; off != offBefore+1 {
		t.Errorf("loose bound did not offload (%d -> %d)", offBefore, off)
	}
	m.SetFreshnessBound(0)

	// Watermarks are monotonic while paused and across resume.
	applied := map[int]int64{}
	for _, rs := range m.Status().Replicas {
		applied[rs.DN] = rs.AppliedRecords
	}
	m.SetApplyPaused(false)

	// PolicyBlock with a live apply loop: the statement waits for catch-up
	// and then offloads with a fresh answer.
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if got := res.Rows[0][0].Int(); got != 130 {
		t.Errorf("post-resume count = %d, want 130", got)
	}
	for _, rs := range m.Status().Replicas {
		if rs.AppliedRecords < applied[rs.DN] {
			t.Errorf("dn%d applied watermark went backwards: %d -> %d",
				rs.DN, applied[rs.DN], rs.AppliedRecords)
		}
		if rs.EnqueuedRecords < rs.AppliedRecords {
			t.Errorf("dn%d applied %d beyond enqueued %d", rs.DN, rs.AppliedRecords, rs.EnqueuedRecords)
		}
	}
	checkConverged(t, c, m, "accounts")
}

// TestConcurrentWritesAndScans hammers inserts/updates while analytical
// scans run, then checks convergence — the race detector guards the
// tombstone stamping and snapshot paths.
func TestConcurrentWritesAndScans(t *testing.T) {
	c := newCluster(t, 3)
	setup(t, c, 100)
	m := enable(t, c, Config{MaxLagRecords: 1 << 30}) // always offload

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.NewSession()
			for i := 0; i < 40; i++ {
				id := 3000 + w*100 + i
				mustExec(t, sess, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, 1)", id, id%10))
				mustExec(t, sess, fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", id))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := c.NewSession()
		for i := 0; i < 30; i++ {
			mustExec(t, sess, "SELECT branch, count(*), sum(balance) FROM accounts GROUP BY branch")
		}
	}()
	wg.Wait()
	checkConverged(t, c, m, "accounts")
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTableCreatedAfterEnable verifies lazy replica-table creation: a
// table created after HTAP is enabled gets replicated from its first
// committed write.
func TestTableCreatedAfterEnable(t *testing.T) {
	c := newCluster(t, 3)
	s := setup(t, c, 10)
	m := enable(t, c, Config{})

	mustExec(t, s, "CREATE TABLE late (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")
	for i := 0; i < 60; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO late VALUES (%d, %d)", i, i*2))
	}
	mustExec(t, s, "DELETE FROM late WHERE k < 10")
	checkConverged(t, c, m, "late")

	want := onPrimary(t, c, m, s, "SELECT count(*), sum(v) FROM late")
	got := mustExec(t, s, "SELECT count(*), sum(v) FROM late")
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("late table: primary %v replica %v", want.Rows, got.Rows)
	}
}

// TestBucketMoveReap moves a bucket between nodes and checks the replicas
// track it: the source replica reaps the bucket's rows, the target replica
// gains them, and analytical answers stay identical.
func TestBucketMoveReap(t *testing.T) {
	c := newCluster(t, 3)
	s := setup(t, c, 200)
	m := enable(t, c, Config{})
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	owners := c.BucketOwners()
	src := owners[0]
	dst := (src + 1) % 3
	if _, err := c.MoveBucket(0, dst); err != nil {
		t.Fatalf("MoveBucket: %v", err)
	}
	checkConverged(t, c, m, "accounts")

	want := onPrimary(t, c, m, s, "SELECT count(*), sum(balance) FROM accounts")
	got := mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts")
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("after bucket move: primary %v replica %v", want.Rows, got.Rows)
	}
}

func TestStatusAndSegmentStats(t *testing.T) {
	c := newCluster(t, 2)
	s := setup(t, c, 50)
	m := enable(t, c, Config{SealRows: 16})
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 1, 2)", 7000+i))
	}
	if err := m.WaitCaughtUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "SELECT sum(balance) FROM accounts") // drive replica scan counters

	st := m.Status()
	if len(st.Replicas) != 2 {
		t.Fatalf("replicas = %d, want 2", len(st.Replicas))
	}
	if st.RecordsApplied < 200 {
		t.Errorf("records applied = %d, want >= 200", st.RecordsApplied)
	}
	// SealRows=16 with 200 streamed rows must have produced segments.
	if st.Colstore.Segments == 0 {
		t.Errorf("no sealed segments despite SealRows=16: %+v", st.Colstore)
	}
	if st.Scans.RowsScanned == 0 {
		t.Error("replica scan counters did not move")
	}
}
