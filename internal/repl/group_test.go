package repl

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
)

// attachN attaches n direct standbys to primary, returning their ids.
func attachN(t *testing.T, m *Manager, primary, n int) []int {
	t.Helper()
	sids := make([]int, n)
	for i := range sids {
		sid, err := m.AttachReplica(ReplicaSpec{Upstream: primary})
		if err != nil {
			t.Fatalf("AttachReplica(%d) #%d: %v", primary, i, err)
		}
		sids[i] = sid
	}
	return sids
}

// groupMirrors asserts every listed node holds an exact mirror of owner's
// buckets for every distributed table.
func groupMirrors(t *testing.T, c *cluster.Cluster, owner int, nodes ...int) {
	t.Helper()
	for _, name := range c.DistributedTableNames() {
		want, err := c.PartitionDigest(name, owner, owner)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range nodes {
			got, err := c.PartitionDigest(name, node, owner)
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("table %q: dn%d diverged from dn%d: %+v != %+v", name, node, owner, got, want)
			}
		}
	}
}

// waitGroupSynced waits for primary's whole group to reach zero lag.
func waitGroupSynced(t *testing.T, m *Manager, primary int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !m.Synced(primary) {
		if time.Now().After(deadline) {
			t.Fatalf("dn%d group never synced (lag %d)", primary, m.Lag(primary))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestQuorumKOfN(t *testing.T) {
	t.Run("K1AcksAtFastestReplica", func(t *testing.T) {
		// With K=1, two unreachable replicas must not slow the commit: the
		// healthy replica's ack releases the client.
		c := newCluster(t, 2, cluster.ModeGTMLite)
		s := setupAccounts(t, c, 20)
		m := NewManager(c, Config{Mode: ModeSync, QuorumAcks: 1, SyncTimeout: 500 * time.Millisecond})
		defer m.Close()
		sids := attachN(t, m, 0, 3)
		waitGroupSynced(t, m, 0)

		for _, sid := range sids[1:] {
			c.Fabric().InjectFault(transport.DN(0), transport.DN(sid),
				transport.Fault{Types: []transport.MsgType{transport.ReplShip}, Drop: true})
		}
		key := keyOn(c, 0)
		start := time.Now()
		mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = 7 WHERE id = %d", key))
		if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
			t.Fatalf("K=1 commit took %v behind two dead links; the healthy replica should have acked", elapsed)
		}
		if m.Lag(0) == 0 {
			t.Fatal("no lag while two replica links drop everything")
		}
		c.Fabric().ClearFaults()
		waitGroupSynced(t, m, 0)
		groupMirrors(t, c, 0, sids...)
	})

	t.Run("KNeedsUnreachableReplica", func(t *testing.T) {
		// With K=3 and one of three replicas unreachable, the commit cannot
		// assemble a quorum and degrades via SyncTimeout.
		c := newCluster(t, 2, cluster.ModeGTMLite)
		s := setupAccounts(t, c, 20)
		m := NewManager(c, Config{Mode: ModeSync, QuorumAcks: 3, SyncTimeout: 40 * time.Millisecond})
		defer m.Close()
		sids := attachN(t, m, 0, 3)
		waitGroupSynced(t, m, 0)

		c.Fabric().InjectFault(transport.DN(0), transport.DN(sids[2]),
			transport.Fault{Types: []transport.MsgType{transport.ReplShip}, Drop: true})
		key := keyOn(c, 0)
		start := time.Now()
		mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = 9 WHERE id = %d", key))
		if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
			t.Fatalf("K=3 commit returned in %v with a replica unreachable; it cannot have waited for the quorum", elapsed)
		}
		c.Fabric().ClearFaults()
		waitGroupSynced(t, m, 0)
		groupMirrors(t, c, 0, sids...)
	})

	t.Run("KEqualsNZeroLagAfterCommit", func(t *testing.T) {
		// K=N: every commit ack means every replica applied the leg, so the
		// group shows zero lag the moment Exec returns.
		c := newCluster(t, 2, cluster.ModeGTMLite)
		s := setupAccounts(t, c, 10)
		m := NewManager(c, Config{Mode: ModeSync, QuorumAcks: 3})
		defer m.Close()
		sids := attachN(t, m, 0, 3)

		for i := 10; i < 30; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
			if lag := m.Lag(0); lag != 0 {
				t.Fatalf("K=N lag on dn0 after commit: %d", lag)
			}
		}
		groupMirrors(t, c, 0, sids...)
	})
}

func TestChainedStandbyApplies(t *testing.T) {
	// dn0 -> s1 -> s2: the chained standby receives records forwarded by
	// its parent's apply loop and converges to the same mirror.
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 30)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	s1, err := m.AttachReplica(ReplicaSpec{Upstream: 0})
	if err != nil {
		t.Fatalf("AttachReplica(0): %v", err)
	}
	s2, err := m.AttachReplica(ReplicaSpec{Upstream: s1})
	if err != nil {
		t.Fatalf("chained AttachReplica(%d): %v", s1, err)
	}

	for i := 30; i < 80; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
	}
	mustExec(t, s, "UPDATE accounts SET balance = balance + 3 WHERE branch = 2")
	mustExec(t, s, "DELETE FROM accounts WHERE branch = 5")

	waitGroupSynced(t, m, 0)
	groupMirrors(t, c, 0, s1, s2)

	found := false
	for _, rs := range m.Status().Replicas {
		if rs.Node == s2 {
			found = true
			if rs.Upstream != s1 {
				t.Fatalf("chained replica dn%d ships from dn%d, want dn%d", s2, rs.Upstream, s1)
			}
		}
	}
	if !found {
		t.Fatalf("chained replica dn%d missing from status %+v", s2, m.Status().Replicas)
	}
}

func TestFailoverReattachesSurvivors(t *testing.T) {
	// After promoting one of three standbys, the other two reparent under
	// the new primary and keep mirroring new writes.
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 60)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	attachN(t, m, 0, 3)
	waitGroupSynced(t, m, 0)

	c.SetDataNodeDown(0, true)
	rep, err := m.Failover(0)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if len(rep.Survivors) != 2 {
		t.Fatalf("survivors = %v, want 2", rep.Survivors)
	}
	np := rep.Standby
	for _, rs := range m.Status().Replicas {
		if rs.Primary != np || rs.Upstream != np {
			t.Fatalf("replica %+v not reparented under dn%d", rs, np)
		}
	}

	// New writes reach the reparented survivors through the new primary.
	for i := 60; i < 120; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
	}
	waitGroupSynced(t, m, np)
	groupMirrors(t, c, np, rep.Survivors...)

	// The group stays failover-capable: a second promotion works at once.
	c.SetDataNodeDown(np, true)
	rep2, err := m.Failover(np)
	if err != nil {
		t.Fatalf("second failover: %v", err)
	}
	if len(rep2.Survivors) != 1 {
		t.Fatalf("second failover survivors = %v, want 1", rep2.Survivors)
	}
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 120 {
		t.Fatalf("rows lost across two failovers: %v", res.Rows)
	}
}

func TestReenrollStandbyRestoresQuorum(t *testing.T) {
	// A retired ex-primary re-enrolls as a fresh standby of its successor:
	// the group returns to full strength and survives another failover.
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 50)
	m := NewManager(c, Config{Mode: ModeSync, QuorumAcks: 1})
	defer m.Close()
	attachN(t, m, 0, 2)
	waitGroupSynced(t, m, 0)

	sum := func() int64 {
		return mustExec(t, c.NewSession(), "SELECT sum(balance) FROM accounts").Rows[0][0].Int()
	}
	before := sum()

	c.SetDataNodeDown(0, true)
	rep, err := m.Failover(0)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	np := rep.Standby

	// Writes between the failover and the re-enrollment must reach the
	// re-enrolled node through its seed.
	key := keyOn(c, np)
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance + 10 WHERE id = %d", key))
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance - 10 WHERE id = %d", key+1))

	if err := m.ReenrollStandby(0, np); err != nil {
		t.Fatalf("ReenrollStandby: %v", err)
	}
	if got := len(m.Replicas(np)); got != 2 {
		t.Fatalf("group size after re-enroll = %d, want 2", got)
	}
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", key))
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance - 1 WHERE id = %d", key+1))
	waitGroupSynced(t, m, np)
	groupMirrors(t, c, np, m.Replicas(np)...)

	// Second failover immediately: the re-enrolled node is promotable.
	c.SetDataNodeDown(np, true)
	rep2, err := m.Failover(np)
	if err != nil {
		t.Fatalf("second failover: %v", err)
	}
	if m.Failovers() != 2 {
		t.Fatalf("Failovers() = %d, want 2", m.Failovers())
	}
	if got := sum(); got != before {
		t.Fatalf("balance sum changed across reenroll + double failover: %d -> %d", before, got)
	}
	_ = rep2
}

func TestChainedChildBecomesDirectAfterFailover(t *testing.T) {
	// dn0 -> s1 -> s2: promoting s1 makes its chained child s2 a direct
	// standby of the new primary, fed by the commit tap.
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 40)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	s1, err := m.AttachReplica(ReplicaSpec{Upstream: 0})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m.AttachReplica(ReplicaSpec{Upstream: s1})
	if err != nil {
		t.Fatal(err)
	}
	waitGroupSynced(t, m, 0)

	c.SetDataNodeDown(0, true)
	rep, err := m.Failover(0)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if rep.Standby != s1 {
		t.Fatalf("promoted dn%d, want the direct standby dn%d", rep.Standby, s1)
	}
	if len(rep.Survivors) != 1 || rep.Survivors[0] != s2 {
		t.Fatalf("survivors = %v, want [%d]", rep.Survivors, s2)
	}
	for _, rs := range m.Status().Replicas {
		if rs.Node == s2 && rs.Upstream != s1 {
			t.Fatalf("ex-chained replica dn%d ships from dn%d, want new primary dn%d", s2, rs.Upstream, s1)
		}
	}
	for i := 40; i < 90; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, %d)", i, i%10, 100))
	}
	waitGroupSynced(t, m, s1)
	groupMirrors(t, c, s1, s2)
}

func TestAttachRejectsDuringFailoverAndBrokenParent(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 10)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	sids := attachN(t, m, 0, 1)
	waitGroupSynced(t, m, 0)

	// Poison the standby (kill it and force an apply), then chaining off
	// the diverged mirror must be refused.
	c.SetDataNodeDown(sids[0], true)
	mustExec(t, s, "UPDATE accounts SET balance = balance + 1")
	deadline := time.Now().Add(2 * time.Second)
	for !m.Status().Replicas[0].Broken {
		if time.Now().After(deadline) {
			t.Fatal("replica never broke against a dead standby")
		}
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := m.AttachReplica(ReplicaSpec{Upstream: sids[0]}); err == nil {
		t.Fatal("chained attach off a broken replica succeeded")
	}
}

// TestSuccessorAfterFailoverReenrollFailover is the regression test for the
// promotion-chain cycle: failover → re-enrol the retired primary under its
// successor → fail over again promotes the first node back, and unless
// re-entering service clears its successor entry the map holds 0→2 and
// 2→0 — Successor then spun forever holding the route lock's read side,
// and the next writer queued behind it blocked every statement.
func TestSuccessorAfterFailoverReenrollFailover(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	setupAccounts(t, c, 20)
	// No deferred Close before the check: Close needs the route lock, which
	// a spinning Successor would hold — the failure must stay a failure,
	// not become a package timeout.
	m := NewManager(c, Config{Mode: ModeSync})
	sid, err := m.AttachStandby(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Failover(0); err != nil {
		t.Fatalf("first failover: %v", err)
	}
	if err := m.ReenrollStandby(0, sid); err != nil {
		t.Fatalf("re-enrol: %v", err)
	}
	waitSynced(t, m, []int{sid})
	if rep, err := m.Failover(sid); err != nil || rep.Standby != 0 {
		t.Fatalf("second failover: %+v, %v", rep, err)
	}

	type answer struct {
		node int
		ok   bool
	}
	ask := func(id int) answer {
		got := make(chan answer, 1)
		go func() {
			n, ok := c.Successor(id)
			got <- answer{n, ok}
		}()
		select {
		case a := <-got:
			return a
		case <-time.After(2 * time.Second):
			t.Fatalf("Successor(%d) did not return within 2s (promotion chain has a cycle)", id)
			return answer{}
		}
	}
	if a := ask(sid); !a.ok || a.node != 0 {
		t.Errorf("Successor(%d) = %d, %v; want 0, true", sid, a.node, a.ok)
	}
	if a := ask(0); a.ok {
		t.Errorf("Successor(0) = %d, true for a node back in service", a.node)
	}
	m.Close()
}
