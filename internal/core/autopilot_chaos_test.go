package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/autonomous"
	"repro/internal/cluster"
	"repro/internal/repl"
	"repro/internal/tpcc"
	"repro/internal/transport"
	"repro/internal/types"
)

// TestAutopilotChaosConvergence is the acceptance suite for the closed
// autonomic loop: a fixed-seed, heavily skewed TPC-C workload runs while
// the test kills a primary, revives it, partitions a chain-parent standby,
// and heals the fabric — and the ONLY management calls made are ap.Tick().
// The autopilot must, on its own: promote a standby of the dead primary,
// re-enroll the revived ex-primary, re-attach the chain-orphaned replica,
// raise the sync quorum under the ship-drop storm and lower it after the
// heal, and spread the hot buckets until the per-window heat ratio falls
// to TargetRatio. Afterwards every replica's partition digest must equal
// its primary's (zero committed-transaction loss) and the TPC-C money
// conservation invariants must hold.
func TestAutopilotChaosConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance suite")
	}
	db := open(t, Options{DataNodes: 4})
	c := db.Cluster()

	cfg := tpcc.DefaultConfig(16, 0.9)
	cfg.Seed = 42
	if err := tpcc.Load(c, cfg); err != nil {
		t.Fatal(err)
	}

	// Skew: every TPC-C table hashes by warehouse id, so a warehouse is one
	// bucket. Pick the DN owning the most warehouses and aim 80% of the
	// traffic at its warehouses — a deterministic multi-bucket hot spot the
	// autopilot can spread.
	owners := c.BucketOwners()
	byDN := map[int][]int{}
	for w := 0; w < cfg.Warehouses; w++ {
		dn := owners[cluster.BucketOf(types.NewInt(int64(w)))]
		byDN[dn] = append(byDN[dn], w)
	}
	hotDN, hot := -1, []int(nil)
	for dn, ws := range byDN {
		if len(ws) > len(hot) || (len(ws) == len(hot) && dn < hotDN) {
			hotDN, hot = dn, ws
		}
	}
	if len(hot) < 2 {
		t.Fatalf("seeded hash put %d warehouses on the hottest DN; need >= 2 to spread", len(hot))
	}
	cfg.HotWarehouses = hot
	cfg.HotFraction = 0.8

	ha, err := db.EnableHA(repl.Config{
		Mode:             repl.ModeSync,
		QuorumAcks:       1,
		SyncTimeout:      50 * time.Millisecond,
		StandbysPerShard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The hot group gets a second, chained replica (standby-of-standby): its
	// parent's death must orphan it, and the autopilot must re-home it.
	chainParent := ha.Replicas(hotDN)[0]
	chainChild, err := ha.AttachReplica(repl.ReplicaSpec{Upstream: chainParent})
	if err != nil {
		t.Fatal(err)
	}

	ap := db.NewAutopilot(autonomous.SLA{TargetP95: 200 * time.Millisecond})
	ap.MinHeat = 32
	// Test-speed pacing; the decision structure is unchanged.
	ap.Actions.SetCooldown("move-bucket", 150*time.Millisecond)
	ap.Actions.SetCooldown("set-quorum", 100*time.Millisecond)
	ap.Actions.SetCooldown("reattach-orphan", 100*time.Millisecond)
	ap.Actions.SetCooldown("reenroll-standby", 100*time.Millisecond)

	// Three drivers with fixed, distinct RNG streams.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			d := tpcc.NewDriver(c, cfg, id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = d.RunOne() // aborts under chaos are expected and counted
			}
		}(int64(i))
	}
	drained := false
	defer func() {
		if !drained {
			close(stop)
			wg.Wait()
		}
	}()

	actionCounts := func() map[string]int {
		out := map[string]int{}
		for _, rec := range ap.Actions.History() {
			out[rec.Kind]++
		}
		return out
	}
	tickUntil := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			ap.Tick()
			if cond() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s not reached within %v; actions=%v", what, timeout, actionCounts())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// --- event 1: primary death, then return -----------------------------
	victim := -1
	for _, p := range c.PrimaryIDs() {
		if p != hotDN {
			victim = p
			break
		}
	}
	c.SetDataNodeDown(victim, true)
	tickUntil("auto-failover", 10*time.Second, func() bool { return ha.Failovers() >= 1 })
	succ, ok := c.Successor(victim)
	if !ok {
		t.Fatalf("dn%d has no successor after failover", victim)
	}
	c.SetDataNodeDown(victim, false)
	tickUntil("reenroll of the returned primary", 10*time.Second, func() bool {
		return ap.Actions.Count("reenroll-standby") >= 1 && len(ha.Replicas(succ)) >= 1
	})

	// --- event 2: chain-parent partition (ship-drop storm), then heal ----
	c.Fabric().Partition(transport.DN(chainParent))
	tickUntil("orphan reattach and quorum raise", 10*time.Second, func() bool {
		return ap.Actions.Count("reattach-orphan") >= 1 && ha.Quorum() > ha.BaseQuorum()
	})
	c.Fabric().Heal()
	tickUntil("quorum lowered after heal", 10*time.Second, func() bool {
		return ha.Quorum() == ha.BaseQuorum()
	})

	// --- event 3 (continuous): hot-bucket spreading ----------------------
	tickUntil("heat convergence", 30*time.Second, func() bool {
		if ap.Actions.Count("move-bucket") == 0 {
			return false
		}
		tot, _ := ap.Info.Last("cluster.bucket_heat.total")
		ratio, ok := ap.Info.Last("cluster.bucket_heat.ratio")
		return ok && tot >= float64(ap.MinHeat) && ratio <= ap.TargetRatio
	})

	// --- settle: stop load, land the in-flight move, drain replication ---
	close(stop)
	wg.Wait()
	drained = true
	for deadline := time.Now().Add(10 * time.Second); ap.moveBusy.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("bucket move never landed")
		}
		time.Sleep(time.Millisecond)
	}
	for _, p := range ha.GroupPrimaries() {
		deadline := time.Now().Add(15 * time.Second)
		for !ha.Synced(p) || len(ha.Orphans(p)) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("dn%d group never drained (lag %d, orphans %v)", p, ha.Lag(p), ha.Orphans(p))
			}
			ap.Tick()
			time.Sleep(time.Millisecond)
		}
	}
	ap.Tick() // final pass: resolve any still-in-doubt 2PC legs

	// --- redundancy restored ---------------------------------------------
	if got := len(ha.GroupPrimaries()); got != 4 {
		t.Errorf("replica groups = %d, want 4", got)
	}
	for _, rs := range ha.Status().Replicas {
		if rs.Broken {
			t.Errorf("replica dn%d of dn%d still broken", rs.Node, rs.Primary)
		}
	}
	for _, p := range ha.GroupPrimaries() {
		if n := len(ha.Replicas(p)); n < 1 {
			t.Errorf("group dn%d has %d replicas, want >= 1", p, n)
		}
		if orphans := ha.Orphans(p); len(orphans) != 0 {
			t.Errorf("group dn%d still has orphans %v", p, orphans)
		}
	}
	// No failover is injected on the hot group, so it stays keyed by hotDN:
	// both the healed chain parent and the re-homed child must be back.
	if n := len(ha.Replicas(hotDN)); n < 2 {
		t.Errorf("hot group has %d replicas, want the chained child (dn%d) back too", n, chainChild)
	}

	// --- zero loss: every replica mirrors its primary bit-for-bit --------
	for _, p := range ha.GroupPrimaries() {
		for _, name := range c.DistributedTableNames() {
			want, err := c.PartitionDigest(name, p, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, rn := range ha.Replicas(p) {
				got, err := c.PartitionDigest(name, rn, p)
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Errorf("table %q: replica dn%d diverged from dn%d (%+v vs %+v)", name, rn, p, got, want)
				}
			}
		}
	}
	if err := tpcc.CheckInvariants(c, cfg); err != nil {
		t.Errorf("TPC-C invariants violated after chaos: %v", err)
	}

	// --- the loop did all of it ------------------------------------------
	for _, kind := range []string{"auto-failover", "reenroll-standby", "reattach-orphan", "move-bucket"} {
		if ap.Actions.Count(kind) == 0 {
			t.Errorf("no %s action recorded; counts=%v", kind, actionCounts())
		}
	}
	if n := ap.Actions.Count("set-quorum"); n < 2 {
		t.Errorf("set-quorum recorded %d times, want raise + lower", n)
	}
}
