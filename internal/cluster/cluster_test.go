package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

func newCluster(t *testing.T, dns int, mode TxnMode) *Cluster {
	t.Helper()
	c, err := New(Config{DataNodes: dns, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func setupAccounts(t *testing.T, c *Cluster, rows int) *Session {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE accounts (id BIGINT, branch BIGINT, balance BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
	}
	return s
}

func TestCreateInsertSelect(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 20)
	res := mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts")
	if res.Rows[0][0].Int() != 20 || res.Rows[0][1].Int() != 2000 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestRowsSpreadAcrossShards(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	setupAccounts(t, c, 100)
	ti, err := c.tableInfo("accounts")
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	total := 0
	for dnID, part := range *ti.parts.Load() {
		snap := c.node(dnID).Txm.LocalSnapshot()
		n := part.row.VisibleCount(0, &snap)
		total += n
		if n > 0 {
			nonEmpty++
		}
	}
	if total != 100 {
		t.Errorf("total = %d", total)
	}
	if nonEmpty < 3 {
		t.Errorf("only %d shards have data; hash distribution broken?", nonEmpty)
	}
}

func TestSingleShardAvoidsGTM(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 20)
	before := c.GTMStats().Total()

	// Point read and point update on the distribution key: single shard.
	mustExec(t, s, "SELECT balance FROM accounts WHERE id = 7")
	mustExec(t, s, "UPDATE accounts SET balance = balance - 10 WHERE id = 7")
	if s.LastTxnWasGlobal {
		t.Error("single-shard update must not be global")
	}
	after := c.GTMStats().Total()
	if after != before {
		t.Errorf("GTM traffic grew by %d for single-shard statements", after-before)
	}
}

func TestMultiShardUsesGTM(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 20)
	before := c.GTMStats().Total()
	mustExec(t, s, "SELECT count(*) FROM accounts") // scatter
	if !s.LastTxnWasGlobal {
		t.Error("scatter read should be a global transaction under GTM-lite")
	}
	if c.GTMStats().Total() == before {
		t.Error("scatter statement should contact the GTM")
	}
}

func TestBaselineAlwaysUsesGTM(t *testing.T) {
	c := newCluster(t, 4, ModeBaseline)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")
	before := c.GTMStats().Total()
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
	mustExec(t, s, "SELECT v FROM kv WHERE k = 1")
	if got := c.GTMStats().Total() - before; got < 4 {
		t.Errorf("baseline mode GTM requests = %d, want >= 4", got)
	}
	if !s.LastTxnWasGlobal {
		t.Error("baseline transactions are always global")
	}
}

func TestGTMLiteVsBaselineTrafficRatio(t *testing.T) {
	run := func(mode TxnMode) int64 {
		c := newCluster(t, 4, mode)
		s := c.NewSession()
		mustExec(t, s, "CREATE TABLE kv (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")
		base := c.GTMStats().Total()
		for i := 0; i < 50; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i))
			mustExec(t, s, fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i))
		}
		return c.GTMStats().Total() - base
	}
	lite := run(ModeGTMLite)
	baseline := run(ModeBaseline)
	if lite != 0 {
		t.Errorf("gtm-lite single-shard workload sent %d GTM requests, want 0", lite)
	}
	if baseline < 200 {
		t.Errorf("baseline workload sent %d GTM requests, want >= 200", baseline)
	}
}

func TestExplicitTxnCommitAndRollback(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 10)

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = balance - 30 WHERE id = 1")
	mustExec(t, s, "UPDATE accounts SET balance = balance + 30 WHERE id = 2")
	mustExec(t, s, "COMMIT")
	if !s.LastTxnWasGlobal {
		t.Error("cross-shard transfer must be global")
	}
	res := mustExec(t, s, "SELECT sum(balance) FROM accounts")
	if res.Rows[0][0].Int() != 1000 {
		t.Errorf("sum = %v, want conserved 1000", res.Rows[0][0])
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = 0 WHERE id = 3")
	mustExec(t, s, "ROLLBACK")
	res = mustExec(t, s, "SELECT balance FROM accounts WHERE id = 3")
	if res.Rows[0][0].Int() != 100 {
		t.Errorf("rollback did not restore balance: %v", res.Rows[0][0])
	}
}

func TestTransferAtomicityAcrossShards(t *testing.T) {
	// Concurrent cross-shard transfers preserve the total: 2PC + merged
	// snapshots.
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 10)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			sess := c.NewSession()
			for i := 0; i < 25; i++ {
				from := (w + i) % 10
				to := (w + i + 1) % 10
				if _, err := sess.Exec("BEGIN"); err != nil {
					done <- err
					return
				}
				_, err1 := sess.Exec(fmt.Sprintf("UPDATE accounts SET balance = balance - 1 WHERE id = %d", from))
				_, err2 := sess.Exec(fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", to))
				if err1 != nil || err2 != nil {
					sess.Exec("ROLLBACK")
					continue // write conflicts abort the attempt; totals stay conserved
				}
				if _, err := sess.Exec("COMMIT"); err != nil {
					continue
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	res := mustExec(t, s, "SELECT sum(balance) FROM accounts")
	if res.Rows[0][0].Int() != 1000 {
		t.Errorf("total = %v, want 1000 (money conservation)", res.Rows[0][0])
	}
}

func TestFailedTxnRequiresRollback(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 5)
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("SELECT * FROM nonexistent"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.Exec("SELECT 1"); !errors.Is(err, ErrTxnAborted) {
		t.Errorf("err = %v, want ErrTxnAborted", err)
	}
	if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrTxnAborted) {
		t.Errorf("COMMIT err = %v, want ErrTxnAborted", err)
	}
	mustExec(t, s, "SELECT 1") // back to autocommit
}

func TestWriteConflictSurfaces(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	s1 := setupAccounts(t, c, 3)
	s2 := c.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 1 WHERE id = 0")
	_, err := s2.Exec("UPDATE accounts SET balance = 2 WHERE id = 0")
	if !errors.Is(err, storage.ErrWriteConflict) {
		t.Errorf("err = %v, want write conflict", err)
	}
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "UPDATE accounts SET balance = 2 WHERE id = 0")
}

func TestReplicatedTable(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE dim (k BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
	mustExec(t, s, "INSERT INTO dim VALUES (1, 'one'), (2, 'two')")
	// Every DN holds a full copy.
	ti, _ := c.tableInfo("dim")
	for dnID, part := range *ti.parts.Load() {
		snap := c.node(dnID).Txm.LocalSnapshot()
		if n := part.row.VisibleCount(0, &snap); n != 2 {
			t.Errorf("dn%d has %d rows, want 2", dnID, n)
		}
	}
	// Replicated-only reads stay single-shard.
	before := c.GTMStats().Total()
	res := mustExec(t, s, "SELECT name FROM dim WHERE k = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "two" {
		t.Errorf("rows = %v", res.Rows)
	}
	if c.GTMStats().Total() != before {
		t.Error("replicated read should not touch GTM")
	}
	// Update applies to all copies.
	mustExec(t, s, "UPDATE dim SET name = 'TWO' WHERE k = 2")
	for dnID := range *ti.parts.Load() {
		rows := c.partitionRows(ti, dnID, nil)
		seen := false
		for _, r := range rows {
			if r[0].Int() == 2 && r[1].Str() == "TWO" {
				seen = true
			}
		}
		if !seen {
			t.Errorf("dn%d replica missing the update", dnID)
		}
	}
	res = mustExec(t, s, "SELECT name FROM dim WHERE k = 2")
	if res.Rows[0][0].Str() != "TWO" {
		t.Errorf("update lost: %v", res.Rows)
	}
}

func TestJoinDistributedWithReplicated(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 20)
	mustExec(t, s, "CREATE TABLE branches (branch BIGINT, bname TEXT) DISTRIBUTE BY REPLICATION")
	for b := 0; b < 10; b++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO branches VALUES (%d, 'b%d')", b, b))
	}
	res := mustExec(t, s, `SELECT b.bname, count(*) FROM accounts a JOIN branches b ON a.branch = b.branch GROUP BY b.bname ORDER BY 1`)
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "b0" || res.Rows[0][1].Int() != 2 {
		t.Errorf("first group = %v", res.Rows[0])
	}
}

func TestColumnarTable(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE events (id BIGINT, kind TEXT, val DOUBLE) DISTRIBUTE BY HASH(id) USING COLUMN")
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO events VALUES (%d, 'k%d', %d.5)", i, i%3, i))
	}
	res := mustExec(t, s, "SELECT kind, count(*) FROM events GROUP BY kind ORDER BY kind")
	if len(res.Rows) != 3 || res.Rows[0][1].Int() != 34 {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := s.Exec("UPDATE events SET val = 0"); err == nil ||
		!strings.Contains(err.Error(), "columnar") {
		t.Errorf("columnar update should be rejected, got %v", err)
	}
	if _, err := s.Exec("DELETE FROM events"); err == nil {
		t.Error("columnar delete should be rejected")
	}
}

func TestInsertSelectAndDelete(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 10)
	mustExec(t, s, "CREATE TABLE rich (id BIGINT, balance BIGINT) DISTRIBUTE BY HASH(id)")
	mustExec(t, s, "UPDATE accounts SET balance = 500 WHERE id = 4")
	res := mustExec(t, s, "INSERT INTO rich SELECT id, balance FROM accounts WHERE balance > 200")
	if res.RowsAffected != 1 {
		t.Errorf("inserted %d", res.RowsAffected)
	}
	res = mustExec(t, s, "DELETE FROM accounts WHERE balance > 200")
	if res.RowsAffected != 1 {
		t.Errorf("deleted %d", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 9 {
		t.Errorf("remaining = %v", res.Rows[0][0])
	}
}

func TestSnapshotIsolationBetweenSessions(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	s1 := setupAccounts(t, c, 3)
	s2 := c.NewSession()

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE accounts SET balance = 999 WHERE id = 0")
	// Uncommitted write invisible to s2.
	res := mustExec(t, s2, "SELECT balance FROM accounts WHERE id = 0")
	if res.Rows[0][0].Int() != 100 {
		t.Errorf("dirty read: %v", res.Rows[0][0])
	}
	mustExec(t, s1, "COMMIT")
	res = mustExec(t, s2, "SELECT balance FROM accounts WHERE id = 0")
	if res.Rows[0][0].Int() != 999 {
		t.Errorf("committed write not visible: %v", res.Rows[0][0])
	}
}

func TestAnalyzeAndExplain(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 50)
	if err := c.Analyze("accounts"); err != nil {
		t.Fatal(err)
	}
	ti, _ := c.tableInfo("accounts")
	if ti.Meta.Stats == nil || ti.Meta.Stats.Rows != 50 {
		t.Fatalf("stats = %+v", ti.Meta.Stats)
	}
	res := mustExec(t, s, "EXPLAIN SELECT * FROM accounts WHERE balance > 10")
	if len(res.Rows) == 0 {
		t.Fatal("explain returned no steps")
	}
	found := false
	for _, r := range res.Rows {
		if strings.HasPrefix(r[0].Str(), "SCAN(ACCOUNTS") {
			found = true
			if est := r[1].Float(); est < 25 || est > 51 {
				t.Errorf("estimate = %v, want ≈ 50 (all balances are 100)", est)
			}
		}
	}
	if !found {
		t.Errorf("no scan step in explain: %v", res.Rows)
	}
}

func TestVacuumAndLCOTruncation(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 10)
	for i := 0; i < 5; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = %d WHERE id = 1", i))
	}
	if n := c.Vacuum(); n == 0 {
		t.Error("vacuum should reclaim updated versions")
	}
	res := mustExec(t, s, "SELECT balance FROM accounts WHERE id = 1")
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("post-vacuum balance = %v", res.Rows[0][0])
	}
	// Run some multi-shard txns then truncate LCOs.
	mustExec(t, s, "SELECT count(*) FROM accounts")
	c.TruncateLCOs()
}

func TestOneNodeClusterDegeneratesGracefully(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	s := setupAccounts(t, c, 5)
	before := c.GTMStats().Total()
	mustExec(t, s, "SELECT count(*) FROM accounts") // scatter on 1 DN = still single shard
	if c.GTMStats().Total() != before {
		t.Error("single-node scatter should not need the GTM")
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := New(Config{DataNodes: 0}); err == nil {
		t.Error("zero data nodes must be rejected")
	}
}

func TestDropTable(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE d (a BIGINT) DISTRIBUTE BY HASH(a)")
	mustExec(t, s, "DROP TABLE d")
	if _, err := s.Exec("SELECT * FROM d"); err == nil {
		t.Error("dropped table still resolvable")
	}
	if _, err := s.Exec("DROP TABLE d"); err == nil {
		t.Error("double drop must fail")
	}
	mustExec(t, s, "DROP TABLE IF EXISTS d")
	// Recreating after drop works.
	mustExec(t, s, "CREATE TABLE d (a BIGINT) DISTRIBUTE BY HASH(a)")
	// CREATE TABLE IF NOT EXISTS is idempotent.
	mustExec(t, s, "CREATE TABLE IF NOT EXISTS d (a BIGINT) DISTRIBUTE BY HASH(a)")
}

func TestExplainAnalyze(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 30)
	res := mustExec(t, s, "EXPLAIN ANALYZE SELECT * FROM accounts WHERE balance > 0")
	if len(res.Columns) != 3 || res.Columns[2] != "actual_rows" {
		t.Fatalf("columns = %v", res.Columns)
	}
	foundScan, foundTotal := false, false
	for _, r := range res.Rows {
		text := r[0].Str()
		if strings.HasPrefix(text, "SCAN(ACCOUNTS") {
			foundScan = true
			if r[2].Int() != 30 {
				t.Errorf("scan actual = %v, want 30", r[2])
			}
		}
		if strings.HasPrefix(text, "TOTAL (") {
			foundTotal = true
			if !strings.Contains(text, "rows shipped") {
				t.Errorf("total line = %q", text)
			}
		}
	}
	if !foundScan || !foundTotal {
		t.Errorf("explain analyze rows = %v", res.Rows)
	}
	// EXPLAIN of non-SELECT is rejected.
	if _, err := s.Exec("EXPLAIN INSERT INTO accounts VALUES (99, 0, 0)"); err == nil {
		t.Error("EXPLAIN INSERT should fail")
	}
	// EXPLAIN ANALYZE must not modify state (it runs a SELECT).
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 30 {
		t.Errorf("row count changed: %v", res.Rows[0][0])
	}
}

func TestHopLatencyConfigured(t *testing.T) {
	c, err := New(Config{DataNodes: 2, HopLatency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().HopLatency != time.Millisecond {
		t.Error("config lost")
	}
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE t (a BIGINT) DISTRIBUTE BY HASH(a)")
	start := time.Now()
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	if time.Since(start) < time.Millisecond {
		t.Error("hop latency not applied")
	}
	if c.DataNodeCount() != 2 || len(c.DataNodes()) != 2 {
		t.Error("accessors broken")
	}
	if ModeBaseline.String() != "baseline" || ModeGTMLite.String() != "gtm-lite" {
		t.Error("mode strings broken")
	}
}

func TestBloatReportAndInDoubtCount(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 4)
	if c.InDoubtCount() != 0 {
		t.Error("fresh cluster has in-doubt legs")
	}
	for i := 0; i < 5; i++ {
		mustExec(t, s, "UPDATE accounts SET balance = balance + 1 WHERE id = 1")
	}
	report := c.BloatReport()
	info, ok := report["accounts"]
	if !ok || info.Versions <= info.Visible {
		t.Errorf("bloat report = %+v", report)
	}
	if info.Ratio() <= 1 {
		t.Errorf("ratio = %f", info.Ratio())
	}
	if (BloatInfo{}).Ratio() != 1 {
		t.Error("empty table ratio should be 1")
	}
	if (BloatInfo{Versions: 3}).Ratio() != 3 {
		t.Error("zero-visible ratio should be version count")
	}
}
