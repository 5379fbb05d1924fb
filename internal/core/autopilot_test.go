package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autonomous"
	"repro/internal/repl"
)

func newAutopilotDB(t *testing.T) (*DB, *Autopilot) {
	t.Helper()
	db := open(t, Options{DataNodes: 2})
	ap := db.NewAutopilot(autonomous.SLA{TargetP95: 200 * time.Millisecond})
	return db, ap
}

func TestAutopilotAutoVacuum(t *testing.T) {
	db, ap := newAutopilotDB(t)
	db.MustExec("CREATE TABLE t (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a)")
	db.MustExec("INSERT INTO t VALUES (1, 0)")
	// Create heavy version bloat.
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf("UPDATE t SET b = %d WHERE a = 1", i))
	}
	actions := ap.Tick()
	found := false
	for _, a := range actions {
		if a.Kind == "auto-vacuum" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected auto-vacuum, got %v", actions)
	}
	// Post-vacuum, the next tick is quiet.
	if actions := ap.Tick(); len(actions) != 0 {
		t.Errorf("second tick should be quiet, got %v", actions)
	}
	// Data survived.
	res := db.MustExec("SELECT b FROM t WHERE a = 1")
	if res.Rows[0][0].Int() != 19 {
		t.Errorf("b = %v", res.Rows[0][0])
	}
	// The action was recorded through the change manager with a reason.
	hist := ap.Changes.History()
	if len(hist) == 0 || hist[len(hist)-1].Key != "vacuum.reclaimed" {
		t.Errorf("change history = %+v", hist)
	}
}

func TestAutopilotRecoversInDoubt(t *testing.T) {
	db, ap := newAutopilotDB(t)
	db.MustExec("CREATE TABLE acct (id BIGINT, bal BIGINT) DISTRIBUTE BY HASH(id)")
	db.MustExec("INSERT INTO acct VALUES (1, 100), (2, 100)")
	s := db.Session()
	s.Exec("BEGIN")
	s.Exec("UPDATE acct SET bal = bal - 10 WHERE id = 1")
	s.Exec("UPDATE acct SET bal = bal + 10 WHERE id = 2")
	db.Cluster().FailpointCrashAfterGTMCommit(true)
	if _, err := s.Exec("COMMIT"); err == nil {
		t.Fatal("failpoint commit should fail")
	}
	db.Cluster().FailpointCrashAfterGTMCommit(false)
	if db.Cluster().InDoubtCount() == 0 {
		t.Fatal("expected in-doubt legs")
	}

	actions := ap.Tick()
	found := false
	for _, a := range actions {
		if a.Kind == "recover-in-doubt" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected recover-in-doubt, got %v", actions)
	}
	res := db.MustExec("SELECT sum(bal) FROM acct")
	if res.Rows[0][0].Int() != 200 {
		t.Errorf("sum = %v", res.Rows[0][0])
	}
}

func TestExecGovernedFeedsControlLoop(t *testing.T) {
	db, ap := newAutopilotDB(t)
	db.MustExec("CREATE TABLE t (a BIGINT) DISTRIBUTE BY HASH(a)")
	s := db.Session()
	for i := 0; i < 40; i++ {
		if _, err := ap.ExecGoverned(s, fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ap.ExecGoverned(s, "SELECT count(*) FROM t")
	if err != nil || res.Rows[0][0].Int() != 40 {
		t.Fatalf("governed query = %v, %v", res, err)
	}
	if ap.Workload.Inflight() != 0 {
		t.Error("slots leaked")
	}
	// Latencies fed the info store baseline via the anomaly manager.
	if w := ap.Info.Window("stmt_latency_ms", time.Hour); len(w) != 41 {
		t.Errorf("latency samples = %d, want 41", len(w))
	}
}

func TestAutopilotMetricsCollected(t *testing.T) {
	db, ap := newAutopilotDB(t)
	db.MustExec("CREATE TABLE t (a BIGINT) DISTRIBUTE BY HASH(a)")
	db.MustExec("INSERT INTO t VALUES (1)")
	db.MustExec("SELECT count(*) FROM t") // scatter: generates GTM traffic
	ap.Tick()
	if v, ok := ap.Info.Last("gtm_requests_total"); !ok || v == 0 {
		t.Errorf("gtm metric = %v, %v", v, ok)
	}
	if _, ok := ap.Info.Last("max_bloat_ratio"); !ok {
		t.Error("bloat metric missing")
	}
	// Transport accounting: the insert and scatter read crossed the fabric.
	if v, ok := ap.Info.Last("transport.msgs_total"); !ok || v == 0 {
		t.Errorf("transport total metric = %v, %v", v, ok)
	}
	if v, ok := ap.Info.Last("transport.msgs.write"); !ok || v == 0 {
		t.Errorf("transport write metric = %v, %v", v, ok)
	}
	if v, ok := ap.Info.Last("transport.msgs.scan_frag"); !ok || v == 0 {
		t.Errorf("transport scan metric = %v, %v", v, ok)
	}
	if v, ok := ap.Info.Last("transport.dropped_total"); !ok || v != 0 {
		t.Errorf("transport dropped metric = %v, %v (want present, zero)", v, ok)
	}
}

// TestAutopilotHistoryIsBounded: every tick records each gauge, and on an
// advancing clock the information store keeps only autonomous.Horizon of
// them; on a frozen clock, which never ages a sample, only
// autonomous.MaxSamples.
func TestAutopilotHistoryIsBounded(t *testing.T) {
	var now atomic.Int64
	now.Store(time.Unix(1_700_000_000, 0).UnixNano())
	db := open(t, Options{DataNodes: 2, Clock: func() time.Time { return time.Unix(0, now.Load()).UTC() }})
	ap := db.NewAutopilot(autonomous.SLA{TargetP95: 200 * time.Millisecond})
	const step, ticks = 5 * time.Minute, 100
	for i := 0; i < ticks; i++ {
		ap.Tick()
		now.Add(int64(step))
	}
	bound := int(autonomous.Horizon/step) + 1
	for _, m := range []string{"gtm_requests_total", "max_bloat_ratio", "transport.msgs_total"} {
		if n := len(ap.Info.Window(m, ticks*step)); n == 0 || n > bound {
			t.Errorf("%s: %d samples kept after %d ticks, want 1..%d", m, n, ticks, bound)
		}
	}

	frozen := time.Unix(1_700_000_000, 0)
	info := autonomous.NewInfoStore(func() time.Time { return frozen })
	const records = 10_000
	for i := 0; i < records; i++ {
		info.Record("m", float64(i))
	}
	if n := len(info.Window("m", time.Hour)); n != autonomous.MaxSamples {
		t.Errorf("frozen clock: %d samples kept after %d records, want %d", n, records, autonomous.MaxSamples)
	}
	if v, _ := info.Last("m"); v != records-1 {
		t.Errorf("frozen clock: last sample %v, want %d", v, records-1)
	}
}

func TestEnableHAAndTickFailover(t *testing.T) {
	db, ap := newAutopilotDB(t)
	db.MustExec("CREATE TABLE t (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a)")
	for i := 0; i < 40; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
	}
	ha, err := db.EnableHA(repl.Config{Mode: repl.ModeSync})
	if err != nil {
		t.Fatalf("EnableHA: %v", err)
	}
	if _, err := db.EnableHA(repl.Config{}); err == nil {
		t.Fatal("second EnableHA succeeded")
	}
	if db.HA() != ha {
		t.Fatal("HA() returned a different manager")
	}

	// Tick records replication health and, with a primary down, promotes
	// its standby via the control loop (no detector configured).
	ap.Tick()
	if _, ok := ap.Info.Last("repl.records_shipped"); !ok {
		t.Error("repl.records_shipped metric missing")
	}
	db.Cluster().SetDataNodeDown(0, true)
	actions := ap.Tick()
	found := false
	for _, a := range actions {
		if a.Kind == "auto-failover" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected auto-failover action, got %v", actions)
	}
	if v, ok := ap.Info.Last("repl.failovers"); !ok || v != 0 {
		// Tick records metrics before acting; the promotion shows up on
		// the next collection pass.
		if v != 0 {
			t.Errorf("repl.failovers recorded %v before promotion", v)
		}
	}
	res := db.MustExec("SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 40 {
		t.Fatalf("rows after tick failover: %v", res.Rows)
	}
	if ha.Failovers() != 1 {
		t.Fatalf("Failovers() = %d", ha.Failovers())
	}
}

// TestAutopilotTickAfterSecondFailover drives the loop through failover →
// automatic re-enrolment of the returned primary → failover back onto it →
// the second victim's return. The last Tick asks for the successor of a
// node whose own successor has since re-entered service; that walk used to
// cycle forever under the route lock.
func TestAutopilotTickAfterSecondFailover(t *testing.T) {
	// Close is registered only after the watchdog check: it needs the route
	// lock a stuck Tick would hold.
	db, err := Open(Options{DataNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	ap := db.NewAutopilot(autonomous.SLA{TargetP95: 200 * time.Millisecond})
	ap.Actions.SetCooldown("reenroll-standby", 0)
	db.MustExec("CREATE TABLE t (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a)")
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
	}
	ha, err := db.EnableHA(repl.Config{Mode: repl.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Cluster()

	tick := func(what string) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			ap.Tick()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("Tick did not return within 2s (%s)", what)
		}
	}
	// fail kills node, lets the loop promote its standby, then revives it so
	// the loop re-enrols it under the successor.
	fail := func(node int) int {
		t.Helper()
		before, succ := ha.Failovers(), ha.Replicas(node)[0]
		c.SetDataNodeDown(node, true)
		tick(fmt.Sprintf("promote dn%d in place of dn%d", succ, node))
		if ha.Failovers() != before+1 {
			t.Fatalf("dn%d was not failed over: failovers %d -> %d", node, before, ha.Failovers())
		}
		c.SetDataNodeDown(node, false)
		tick(fmt.Sprintf("re-enrol returned dn%d", node))
		return succ
	}
	succ := fail(0)
	if got := ha.Replicas(succ); len(got) != 1 || got[0] != 0 {
		t.Fatalf("dn0 was not re-enrolled under dn%d: replicas %v", succ, got)
	}
	for deadline := time.Now().Add(5 * time.Second); !ha.Synced(succ); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("re-enrolled dn0 never synced (lag %d)", ha.Lag(succ))
		}
	}
	if back := fail(succ); back != 0 {
		t.Fatalf("second failover promoted dn%d, want dn0 back", back)
	}
	t.Cleanup(db.Close)
	if res := db.MustExec("SELECT count(*) FROM t"); res.Rows[0][0].Int() != 20 {
		t.Fatalf("rows after two failovers: %v", res.Rows)
	}
}
