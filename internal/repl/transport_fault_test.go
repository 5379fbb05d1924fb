package repl

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/tpcc"
	"repro/internal/transport"
	"repro/internal/types"
)

// keyOn finds an accounts key routed to the given data node.
func keyOn(c *cluster.Cluster, dn int) int64 {
	key := int64(0)
	for c.RouteKey(types.NewInt(key)) != dn {
		key++
	}
	return key
}

// TestPartitionedPrimaryFencedBeforePromotion pins the split-brain
// protection: a primary cut off from the coordinator — but alive, and
// still connected to its standby — takes no writes from the moment the
// partition exists, before any failover runs. Promotion then succeeds
// because the replication link drains the log tail, and the old primary's
// data survives intact on the promoted standby.
func TestPartitionedPrimaryFencedBeforePromotion(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 60)
	m := NewManager(c, Config{Mode: ModeSync})
	defer m.Close()
	attachAll(t, m, c)
	waitSynced(t, m, c.PrimaryIDs())

	before := mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts").Rows[0]
	victim := 0
	key := keyOn(c, victim)

	// Sever only the coordinator<->primary links: the primary is alive and
	// its replication link still works, but no client can reach it.
	c.Fabric().CutLinks(transport.CN(), transport.DN(victim))

	// Fenced before promotion: the write fails instead of landing on the
	// partitioned primary, where it would be lost to the promoted standby.
	if _, err := s.Exec(fmt.Sprintf("UPDATE accounts SET balance = 1 WHERE id = %d", key)); !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("write to partitioned primary: got %v, want ErrNodeDown", err)
	}

	// Failover drains the ship log over the intact replication link and
	// promotes; the digest verify proves the mirror lost nothing.
	rep, err := m.Failover(victim)
	if err != nil {
		t.Fatalf("Failover under partition: %v", err)
	}
	if rep.Buckets == 0 {
		t.Fatalf("promotion flipped no buckets: %+v", rep)
	}

	// Service resumes on the promoted standby with identical contents.
	after := mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts").Rows[0]
	if before[0].Int() != after[0].Int() || before[1].Int() != after[1].Int() {
		t.Fatalf("contents changed across partition failover: %v -> %v", before, after)
	}
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = 42 WHERE id = %d", key))
	res := mustExec(t, s, fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", key))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("write after partition failover not visible: %v", res.Rows)
	}
	c.Fabric().Heal()
}

// TestFailoverUnderPartition is the acceptance test for partition-driven
// automatic failover: a TPC-C mixed workload runs while a primary's
// coordinator links are severed mid-load; the failure detector (probing
// reachability through the fabric) promotes its standby on its own; no
// committed transaction is lost and the TPC-C invariants hold afterwards.
func TestFailoverUnderPartition(t *testing.T) {
	c := newCluster(t, 4, cluster.ModeGTMLite)
	cfg := tpcc.DefaultConfig(8, 0.9)
	if err := tpcc.Load(c, cfg); err != nil {
		t.Fatal(err)
	}
	m := NewManager(c, Config{
		Mode:          ModeSync,
		AutoFailover:  true,
		ProbeInterval: 2 * time.Millisecond,
	})
	defer m.Close()
	attachAll(t, m, c)

	const drivers, txns = 4, 250
	ds := make([]*tpcc.Driver, drivers)
	var wg sync.WaitGroup
	for i := range ds {
		ds[i] = tpcc.NewDriver(c, cfg, int64(i))
		wg.Add(1)
		go func(d *tpcc.Driver) {
			defer wg.Done()
			if err := d.Run(txns); err != nil {
				t.Errorf("driver: %v", err)
			}
		}(ds[i])
	}

	// Partition a primary from the coordinator mid-load. It stays alive and
	// keeps its replication link, but the detector must see it unreachable
	// and promote without operator help.
	time.Sleep(3 * time.Millisecond)
	victim := 0
	c.Fabric().CutLinks(transport.CN(), transport.DN(victim))
	deadline := time.Now().Add(5 * time.Second)
	for m.Failovers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("automatic failover never happened under partition")
		}
		time.Sleep(500 * time.Microsecond)
	}
	wg.Wait()

	if sibs := c.Standbys(victim); len(sibs) > 0 {
		t.Fatal("victim still has a standby pair after promotion")
	}

	// Zero committed-transaction loss: every order a driver saw commit is
	// present, none leaked from aborted attempts, and the TPC-C money/line
	// invariants hold cluster-wide.
	var committed, newOrders, orderLines int64
	for _, d := range ds {
		committed += d.Stats.Committed
		newOrders += d.Stats.NewOrders
		orderLines += d.Stats.OrderLines
	}
	if committed == 0 {
		t.Fatal("no transactions committed")
	}
	if err := tpcc.CheckInvariants(c, cfg); err != nil {
		t.Fatal(err)
	}
	s := c.NewSession()
	res := mustExec(t, s, "SELECT count(*) FROM orders")
	if got := res.Rows[0][0].Int(); got != newOrders {
		t.Fatalf("orders = %d, committed new orders = %d (lost or phantom transactions)", got, newOrders)
	}
	res = mustExec(t, s, "SELECT count(*) FROM order_line")
	if got := res.Rows[0][0].Int(); got != orderLines {
		t.Fatalf("order lines = %d, committed lines = %d", got, orderLines)
	}

	// Post-failover service with the partition still in place: the old
	// primary is gone from routing, so every shard is reachable again.
	d := tpcc.NewDriver(c, cfg, 99)
	if err := d.Run(50); err != nil {
		t.Fatalf("post-failover driver: %v", err)
	}
	if d.Stats.Committed == 0 {
		t.Fatal("post-failover driver committed nothing")
	}
	if err := tpcc.CheckInvariants(c, cfg); err != nil {
		t.Fatalf("invariants after post-failover load: %v", err)
	}
	c.Fabric().Heal()
}

// TestSyncDegradeOnLinkDrop pins the unreachable-standby behaviour: when
// the replication link drops every ReplShip, a sync-mode commit degrades
// to async after SyncTimeout instead of wedging, lag accumulates (taking
// the standby out of read rotation) without poisoning the pair, and the
// backlog drains to an identical mirror once the link heals.
func TestSyncDegradeOnLinkDrop(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 20)
	m := NewManager(c, Config{Mode: ModeSync, SyncTimeout: 30 * time.Millisecond})
	defer m.Close()
	pairs := attachAll(t, m, c)
	waitSynced(t, m, c.PrimaryIDs())

	// Drop every ReplShip on dn0's replication link, unreachable standby.
	c.Fabric().InjectFault(transport.DN(0), transport.DN(pairs[0]),
		transport.Fault{Types: []transport.MsgType{transport.ReplShip}, Drop: true})

	key := keyOn(c, 0)
	start := time.Now()
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = 7 WHERE id = %d", key))
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Fatalf("commit returned in %v; sync ack cannot have degraded via SyncTimeout", elapsed)
	}
	if elapsed > time.Second {
		t.Fatalf("degraded commit took %v, near-wedged", elapsed)
	}

	// The commit succeeded on the primary; the standby lags and leaves the
	// read rotation, but the pair is healthy — this is loss of redundancy,
	// not divergence.
	if lag := m.Lag(0); lag == 0 {
		t.Fatal("no lag while the replication link drops everything")
	}
	if m.Synced(0) {
		t.Fatal("standby still counted synced behind a dead link")
	}
	for _, rs := range m.Status().Replicas {
		if rs.Primary == 0 && rs.Broken {
			t.Fatal("link drop poisoned the replica; only apply errors may do that")
		}
	}

	// Heal the link: the retry loop delivers the backlog and the mirror
	// converges with no operator action.
	c.Fabric().ClearFaults()
	waitSynced(t, m, []int{0})
	mirrorsMatch(t, c, pairs)
	if dropped := c.Fabric().Stats().Get(transport.ReplShip).Dropped; dropped == 0 {
		t.Fatal("fault injection never dropped a ReplShip")
	}
}

// TestPartitionBetweenShipAndApplyKeepsReplica is the regression test for a
// partition landing inside a batch — after its ReplShip message was
// delivered, before its legs are applied. The replica can then not commit
// (a cut-off node reads as down), which says nothing about its mirror: the
// sink must keep the feed healthy and retry, exactly as it does when the
// same partition loses the ReplShip message itself, and catch up after the
// heal with no re-seed.
func TestPartitionBetweenShipAndApplyKeepsReplica(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 40)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	pairs := attachAll(t, m, c)
	waitSynced(t, m, c.PrimaryIDs())

	const primary = 0
	sid := pairs[primary]
	r := (*m.group(primary).replicas.Load())[0]
	fab := c.Fabric()

	// Queue a five-leg batch behind a held feed, and make its one ReplShip
	// message slow: while ship() sleeps on the delivered message, the test
	// knows the batch is across and nothing of it is applied yet.
	key := keyOn(c, primary)
	release := r.feed.Quiesce()
	for i := 0; i < 5; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", key))
	}
	fab.InjectFault(transport.DN(primary), transport.DN(sid), transport.Fault{
		Types: []transport.MsgType{transport.ReplShip}, Delay: 40 * time.Millisecond, Count: 1,
	})
	base := fab.Stats().Get(transport.ReplShip)
	applied := r.feed.Applied()
	release()
	deadline := time.Now().Add(5 * time.Second)
	for fab.Stats().Get(transport.ReplShip).Count == base.Count {
		if time.Now().After(deadline) {
			t.Fatal("the held batch was never shipped")
		}
		time.Sleep(100 * time.Microsecond)
	}
	fab.Partition(transport.DN(sid))

	// While cut off the replica retries: re-shipped batches are lost to the
	// partition (the drop signal the autopilot's quorum policy reads), lag
	// stays, and the feed is not poisoned.
	for fab.Stats().Get(transport.ReplShip).Dropped < base.Dropped+3 {
		if time.Now().After(deadline) {
			t.Fatalf("no retries while partitioned (feed error: %v)", r.feed.Err())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.feed.Err(); err != nil {
		t.Fatalf("partition between ship and apply poisoned the feed: %v", err)
	}
	if got := r.feed.Applied(); got != applied {
		t.Fatalf("replica applied %d records while cut off", got-applied)
	}
	if m.Lag(primary) == 0 {
		t.Fatal("lag is zero with five legs undelivered")
	}

	// Heal: the same replica object catches up — no re-seed — and mirrors
	// its primary exactly.
	fab.Heal()
	waitSynced(t, m, []int{primary})
	st := m.Status().Replicas
	if got := (*m.group(primary).replicas.Load())[0]; got != r {
		t.Fatal("replica was replaced (re-seeded)")
	}
	for _, rs := range st {
		if rs.Broken {
			t.Fatalf("replica dn%d broken after heal", rs.Node)
		}
	}
	if err := r.feed.Err(); err != nil {
		t.Fatalf("feed error after heal: %v", err)
	}
	if got := r.feed.Applied() - applied; got != 5 {
		t.Fatalf("replica applied %d records after heal, want 5 (each leg exactly once)", got)
	}
	mirrorsMatch(t, c, pairs)
}
