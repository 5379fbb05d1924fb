package repl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/tpcc"
	"repro/internal/types"
)

func TestFailoverPromotesStandby(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 80)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	attachAll(t, m, c)

	before := mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts").Rows[0]

	victim := 0
	c.SetDataNodeDown(victim, true)
	rep, err := m.Failover(victim)
	if err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if rep.Primary != victim || rep.Buckets == 0 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if m.Failovers() != 1 {
		t.Fatalf("Failovers() = %d, want 1", m.Failovers())
	}
	if _, err := m.Failover(victim); err == nil {
		t.Fatal("second failover of the same primary succeeded")
	}

	// All data is served again, identically, without the victim.
	after := mustExec(t, s, "SELECT count(*), sum(balance) FROM accounts").Rows[0]
	if before[0].Int() != after[0].Int() || before[1].Int() != after[1].Int() {
		t.Fatalf("contents changed across failover: %v -> %v", before, after)
	}
	// Writes to a bucket the victim owned land on the promoted standby.
	key := int64(0)
	for c.RouteKey(types.NewInt(key)) != rep.Standby {
		key++
	}
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = 42 WHERE id = %d", key))
	res := mustExec(t, s, fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", key))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 42 {
		t.Fatalf("write after failover not visible: %v", res.Rows)
	}
}

// TestFailoverCountedWithTheFlip: a reader that sees the promoted standby
// own the victim's buckets also sees the failover counted, even while the
// rest of the failover (the regroup, held here on the manager's lock) has
// not finished.
func TestFailoverCountedWithTheFlip(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	setupAccounts(t, c, 20)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	victim := 0
	standby := attachAll(t, m, c)[victim]
	c.SetDataNodeDown(victim, true)

	m.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := m.Failover(victim)
		done <- err
	}()
	seen := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); seen < 0 && time.Now().Before(deadline); {
		for _, owner := range c.BucketOwners() {
			if owner == standby {
				seen = m.Failovers()
				break
			}
		}
	}
	m.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatalf("Failover: %v", err)
	}
	if seen != 1 {
		t.Fatalf("Failovers() = %d the moment the new owner was seen, want 1", seen)
	}
	if _, err := c.PromoteStandby(victim, standby, func() { t.Error("a refused promotion published") }); err == nil {
		t.Fatal("promoting a retired primary's former standby again succeeded")
	}
	if m.Failovers() != 1 {
		t.Fatalf("Failovers() = %d after a refused promotion, want 1", m.Failovers())
	}
}

// TestFailoverUnderLoad is the E14 acceptance test: a TPC-C mixed workload
// runs while a primary is killed; the failure detector promotes its standby
// automatically; no committed transaction is lost (checksum-verified) and
// single- and multi-shard statements succeed afterwards.
func TestFailoverUnderLoad(t *testing.T) {
	for _, mode := range []Mode{ModeAsync, ModeSync} {
		t.Run(mode.String(), func(t *testing.T) {
			c := newCluster(t, 4, cluster.ModeGTMLite)
			cfg := tpcc.DefaultConfig(8, 0.9)
			if err := tpcc.Load(c, cfg); err != nil {
				t.Fatal(err)
			}
			m := NewManager(c, Config{
				Mode:          mode,
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

			// Kill a primary mid-load; the detector must promote on its own.
			time.Sleep(3 * time.Millisecond)
			victim := 0
			c.SetDataNodeDown(victim, true)
			deadline := time.Now().Add(5 * time.Second)
			for m.Failovers() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("automatic failover never happened")
				}
				time.Sleep(500 * time.Microsecond)
			}
			wg.Wait()

			if m.Failovers() != 1 {
				t.Fatalf("Failovers() = %d, want 1", m.Failovers())
			}
			if sibs := c.Standbys(victim); len(sibs) > 0 {
				t.Fatal("victim still has a standby pair after promotion")
			}

			// Zero committed-transaction loss: every order a driver saw
			// commit is present, none leaked from aborted attempts, and the
			// TPC-C money/line invariants hold cluster-wide.
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

			// Post-failover service: single-shard and multi-shard statements
			// succeed with no ErrNodeDown, including the victim's old keys.
			for w := 0; w < cfg.Warehouses; w++ {
				if _, err := s.Exec(fmt.Sprintf("SELECT w_ytd FROM warehouse WHERE w_id = %d", w)); err != nil {
					t.Fatalf("single-shard read w%d after failover: %v", w, err)
				}
			}
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
			// The surviving replicas are intact and catch up to zero lag.
			waitSynced(t, m, c.PrimaryIDs())
			for _, rs := range m.Status().Replicas {
				if rs.Broken {
					t.Fatalf("surviving replica %+v broken", rs)
				}
			}
		})
	}
}

func TestAutopilotRecordsReplMetricsAndFailsOver(t *testing.T) {
	// Exercised through core in core's own tests; here we just pin the
	// watcher-disabled manual path used by the autopilot hook: a down
	// primary with a synced standby fails over via Failover().
	c := newCluster(t, 2, cluster.ModeGTMLite)
	setupAccounts(t, c, 20)
	m := NewManager(c, Config{Mode: ModeAsync})
	defer m.Close()
	attachAll(t, m, c)
	waitSynced(t, m, c.PrimaryIDs())

	c.SetDataNodeDown(1, true)
	if _, err := m.Failover(1); err != nil {
		t.Fatalf("Failover: %v", err)
	}
	st := m.Status()
	if st.Failovers != 1 || len(st.Replicas) != 1 {
		t.Fatalf("status after failover: %+v", st)
	}
}

func TestFailoverRefusesWithoutStandby(t *testing.T) {
	c := newCluster(t, 2, cluster.ModeGTMLite)
	setupAccounts(t, c, 10)
	m := NewManager(c, Config{})
	defer m.Close()
	if _, err := m.Failover(0); err == nil {
		t.Fatal("failover without a standby succeeded")
	}
}

func TestDeadStandbyPoisonsPair(t *testing.T) {
	// A standby that can no longer commit (marked down) must not wedge
	// sync-mode clients: its apply fails fast, the queued entry is still
	// released, and the pair latches broken so a later failover refuses to
	// promote the stale mirror.
	c := newCluster(t, 2, cluster.ModeGTMLite)
	s := setupAccounts(t, c, 10)
	m := NewManager(c, Config{Mode: ModeSync})
	defer m.Close()
	pairs := attachAll(t, m, c)

	c.SetDataNodeDown(pairs[0], true) // kill dn0's standby
	start := time.Now()
	mustExec(t, s, "UPDATE accounts SET balance = balance + 1")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("commit blocked %v against a dead standby", elapsed)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !m.Status().Replicas[0].Broken {
		if time.Now().After(deadline) {
			t.Fatal("replica never broke against a dead standby")
		}
		time.Sleep(200 * time.Microsecond)
	}
	c.SetDataNodeDown(0, true)
	if _, err := m.Failover(0); err == nil {
		t.Fatal("promotion of a broken mirror succeeded")
	}
}
