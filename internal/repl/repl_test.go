package repl

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/transport"
	"repro/internal/types"
)

func newCluster(t *testing.T, dns int, mode cluster.TxnMode) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: dns, Mode: mode})
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

func setupAccounts(t *testing.T, c *cluster.Cluster, rows int) *cluster.Session {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE accounts (id BIGINT, branch BIGINT, balance BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
	}
	return s
}

// attachAll pairs every primary with a fresh standby.
func attachAll(t *testing.T, m *Manager, c *cluster.Cluster) map[int]int {
	t.Helper()
	pairs := map[int]int{}
	for _, p := range c.PrimaryIDs() {
		sid, err := m.AttachStandby(p)
		if err != nil {
			t.Fatalf("AttachStandby(%d): %v", p, err)
		}
		pairs[p] = sid
	}
	return pairs
}

// waitSynced waits for every pair to reach zero lag.
func waitSynced(t *testing.T, m *Manager, primaries []int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range primaries {
		if m.group(p) == nil {
			continue // no replicas (e.g. a freshly promoted standby)
		}
		for !m.Synced(p) {
			if time.Now().After(deadline) {
				t.Fatalf("dn%d standby never synced (lag %d)", p, m.Lag(p))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// mirrorsMatch asserts every pair's standby holds an exact mirror of its
// primary's partitions for every distributed table.
func mirrorsMatch(t *testing.T, c *cluster.Cluster, pairs map[int]int) {
	t.Helper()
	for primary, sid := range pairs {
		for _, name := range c.DistributedTableNames() {
			want, err := c.PartitionDigest(name, primary, primary)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.PartitionDigest(name, sid, primary)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("table %q: standby dn%d of dn%d diverged: primary %+v standby %+v", name, sid, primary, want, got)
			}
		}
	}
}

func TestStandbyMirrorsPrimary(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 40)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	pairs := attachAll(t, m, c)

	// Inserts, updates and deletes after the seed all ship through the log.
	for i := 40; i < 80; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
	}
	mustExec(t, s, "UPDATE accounts SET balance = balance + 5 WHERE branch = 3")
	mustExec(t, s, "DELETE FROM accounts WHERE branch = 7")
	// Multi-shard transaction (2PC path).
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = balance - 1 WHERE id = 0")
	mustExec(t, s, "UPDATE accounts SET balance = balance + 1 WHERE id = 1")
	mustExec(t, s, "COMMIT")

	waitSynced(t, m, c.PrimaryIDs())
	mirrorsMatch(t, c, pairs)
	if m.RecordsShipped() == 0 {
		t.Fatal("no records shipped")
	}
	st := m.Status()
	if len(st.Replicas) != 2 {
		t.Fatalf("status replicas = %d, want 2", len(st.Replicas))
	}
	for _, rs := range st.Replicas {
		if rs.Broken || rs.Lag != 0 || rs.Applied == 0 {
			t.Fatalf("unexpected replica status %+v", rs)
		}
	}
}

func TestSyncModeZeroLagAfterCommit(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 10)
	m := NewManager(c, Config{Mode: ModeSync})
	defer m.Close()
	pairs := attachAll(t, m, c)

	// In sync mode the commit ack waits for the standby apply: the pair is
	// synced the moment Exec returns, no drain needed.
	for i := 10; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
		for p := range pairs {
			if lag := m.Lag(p); lag != 0 {
				t.Fatalf("sync-mode lag on dn%d after commit: %d", p, lag)
			}
		}
	}
	mirrorsMatch(t, c, pairs)
}

func TestMoveBucketShipsToStandby(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	setupAccounts(t, c, 60)
	m := NewManager(c, Config{Mode: ModeSync})
	defer m.Close()
	pairs := attachAll(t, m, c)

	// Move a dn0-owned bucket to dn1: the copied rows must appear on dn1's
	// standby and the reaped source rows must vanish from dn0's standby.
	owners := c.BucketOwners()
	moved := 0
	for b, dn := range owners {
		if dn != 0 {
			continue
		}
		if n, err := c.MoveBucket(b, 1); err != nil {
			t.Fatalf("MoveBucket(%d, 1): %v", b, err)
		} else if n > 0 {
			moved += n
			break
		}
	}
	if moved == 0 {
		t.Skip("no dn0 bucket carried rows")
	}
	waitSynced(t, m, c.PrimaryIDs())
	mirrorsMatch(t, c, pairs)
}

func TestFailoverReplaysInDoubt2PC(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 20)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	attachAll(t, m, c)
	waitSynced(t, m, c.PrimaryIDs())

	total := func() int64 {
		res := mustExec(t, c.NewSession(), "SELECT sum(balance) FROM accounts")
		return res.Rows[0][0].Int()
	}
	before := total()

	// A coordinator crash after the GTM decision leaves both legs prepared
	// (in-doubt) with their records stashed, not yet in the ship log.
	c.FailpointCrashAfterGTMCommit(true)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = balance - 10 WHERE id = 0")
	mustExec(t, s, "UPDATE accounts SET balance = balance + 10 WHERE id = 1")
	if _, err := s.Exec("COMMIT"); err == nil {
		t.Fatal("failpoint commit unexpectedly succeeded")
	}
	c.FailpointCrashAfterGTMCommit(false)

	// Failover must resolve the in-doubt leg on the dead primary AND ship
	// the decided records before promoting, or the transfer is lost.
	victim := 0
	c.SetDataNodeDown(victim, true)
	rep, err := m.Failover(victim)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if rep.Replayed == 0 {
		t.Fatal("failover replayed no in-doubt legs")
	}
	// The survivor's leg is still in-doubt; the autonomous recovery path
	// resolves it (and ships it to the survivor's standby).
	c.RecoverInDoubt()
	waitSynced(t, m, c.PrimaryIDs())
	if after := total(); after != before {
		t.Fatalf("decided 2PC transfer lost across failover: sum %d -> %d", before, after)
	}
}

func TestReadReplicaRouting(t *testing.T) {
	t.Run("offload", func(t *testing.T) {
		c := newCluster(t, 2, cluster.ModeGTMLite)
		s := setupAccounts(t, c, 50)
		mustExec(t, s, "CREATE TABLE branches (b BIGINT, region BIGINT) DISTRIBUTE BY HASH(b)")
		for b := 0; b < 10; b++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO branches VALUES (%d, %d)", b, b%3))
		}
		m := NewManager(c, Config{Mode: ModeSync, ReadMode: true})
		defer m.Close()
		pairs := attachAll(t, m, c)
		waitSynced(t, m, c.PrimaryIDs())

		// Scatter and single-shard reads return identical results whether
		// served by primaries or standbys.
		res := mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts")
		if res.Rows[0][0].Int() != 50 || res.Rows[0][1].Int() != 5000 {
			t.Fatalf("standby-served scatter read wrong: %v", res.Rows)
		}
		res = mustExec(t, s, "SELECT balance FROM accounts WHERE id = 7")
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 100 {
			t.Fatalf("standby-served point read wrong: %v", res.Rows)
		}

		// A DN-side join reads both of its sides from the synced standbys: with
		// the shuffle strategy forced, every batch that crosses the fabric
		// leaves a standby, none a primary, and the rows are the CN join's.
		const join = "SELECT a.id, r.region FROM accounts a, branches r WHERE a.branch = r.b"
		c.JoinPolicy = plan.DistJoinPolicy{Disable: true}
		want := sortedRows(mustExec(t, s, join))
		c.JoinPolicy = plan.DistJoinPolicy{Force: plan.DistShuffle}
		c.Fabric().Record(true)
		got := sortedRows(mustExec(t, s, join))
		recorded := c.Fabric().Recorded()
		c.Fabric().Record(false)
		c.JoinPolicy = plan.DistJoinPolicy{}
		if len(got) != 50 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("standby-served shuffle join: %d rows, differs from the CN join's %d", len(got), len(want))
		}
		fromStandby := 0
		for _, e := range recorded {
			for _, m := range e.Msgs {
				if m.From.Kind != transport.KindDN || m.To.Kind != transport.KindDN {
					continue
				}
				if _, isPrimary := pairs[m.From.ID]; isPrimary {
					t.Errorf("join side shipped a batch from primary dn%d", m.From.ID)
				}
				fromStandby++
			}
		}
		if fromStandby == 0 {
			t.Error("no shuffle batch left a standby")
		}

		// A transaction that wrote a shard keeps reading its own writes from
		// the primary (never the standby, which lacks the uncommitted version).
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "UPDATE accounts SET balance = 123 WHERE id = 7")
		res = mustExec(t, s, "SELECT balance FROM accounts WHERE id = 7")
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 123 {
			t.Fatalf("read-own-writes broken under standby reads: %v", res.Rows)
		}
		mustExec(t, s, "ROLLBACK")

		// Reads survive a primary going down before any failover: the synced
		// standby serves them; writes to that shard still fail.
		c.SetDataNodeDown(0, true)
		res = mustExec(t, s, "SELECT count(*) FROM accounts")
		if res.Rows[0][0].Int() != 50 {
			t.Fatalf("scatter read with primary down: %v", res.Rows)
		}
		key := int64(0)
		for c.RouteKey(types.NewInt(key)) != 0 {
			key++
		}
		if _, err := s.Exec(fmt.Sprintf("UPDATE accounts SET balance = 1 WHERE id = %d", key)); !errors.Is(err, cluster.ErrNodeDown) {
			t.Fatalf("write to down primary: got %v, want ErrNodeDown", err)
		}
	})
}

// sortedRows renders a result's rows order-independently (joins define no
// output order).
func sortedRows(res *cluster.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}
