package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autonomous"
)

// fakeClock is a mutex-guarded manual clock; decision tests run entirely
// on it, so cooldown and hysteresis behavior is asserted without a single
// sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// bucketsOf lists the buckets dn owns.
func bucketsOf(owners []int, dn int) []int {
	var out []int
	for b, o := range owners {
		if o == dn {
			out = append(out, b)
		}
	}
	return out
}

// addWindow returns prev plus one tick's worth of heat, spreading each
// node's share across up to three of its buckets (so the move planner
// always has a bucket smaller than the hot-cold gap to pick).
func addWindow(prev []int64, owners []int, perDN map[int]int64) []int64 {
	cur := append([]int64(nil), prev...)
	for dn, h := range perDN {
		bs := bucketsOf(owners, dn)
		n := len(bs)
		if n > 3 {
			n = 3
		}
		if n == 0 {
			continue
		}
		share := h / int64(n)
		for i := 0; i < n; i++ {
			cur[bs[i]] += share
		}
		cur[bs[0]] += h - share*int64(n)
	}
	return cur
}

// heatScript serves successive cumulative snapshots, repeating the last
// one when exhausted.
func heatScript(snaps ...[]int64) func() []int64 {
	i := 0
	return func() []int64 {
		s := snaps[i]
		if i < len(snaps)-1 {
			i++
		}
		return s
	}
}

func newDecisionAutopilot(t *testing.T, clk *fakeClock) (*DB, *Autopilot) {
	t.Helper()
	db := open(t, Options{DataNodes: 4, Clock: clk.Now})
	ap := db.NewAutopilot(autonomous.SLA{TargetP95: 200 * time.Millisecond})
	return db, ap
}

// TestAutopilotHeatHysteresisNoFlap scripts heat windows across both
// thresholds: the controller arms at ratio >= hotRatio (2.0), keeps acting
// while the ratio hovers between TargetRatio and hotRatio (the latch holds),
// disarms at <= TargetRatio (1.5), and does NOT re-arm when the ratio climbs
// back into the dead band — that would be flapping.
func TestAutopilotHeatHysteresisNoFlap(t *testing.T) {
	clk := newFakeClock()
	db, ap := newDecisionAutopilot(t, clk)
	ap.Actions.SetDryRun(true)
	ap.Actions.SetCooldown("move-bucket", 0) // isolate hysteresis from pacing

	owners := db.Cluster().BucketOwners()
	base := make([]int64, len(owners))
	// Ratios over 4 live primaries (mean = total/4):
	w1 := addWindow(base, owners, map[int]int64{0: 300, 1: 33, 2: 33, 3: 34}) // ratio 3.0: arm
	w2 := addWindow(w1, owners, map[int]int64{0: 170, 1: 77, 2: 77, 3: 76})   // ratio 1.7: armed, latch holds
	w3 := addWindow(w2, owners, map[int]int64{0: 130, 1: 90, 2: 90, 3: 90})   // ratio 1.3: disarm
	w4 := addWindow(w3, owners, map[int]int64{0: 170, 1: 77, 2: 77, 3: 76})   // ratio 1.7: stays disarmed
	ap.heatFn = heatScript(base, w1, w2, w3, w4)

	want := []int{0, 1, 2, 2, 2} // cumulative move-bucket plans after each tick
	for i, w := range want {
		clk.Advance(time.Millisecond) // distinct sample timestamps per tick
		ap.Tick()
		if got := ap.Actions.Count("move-bucket"); got != w {
			t.Fatalf("tick %d: move-bucket count = %d, want %d", i+1, got, w)
		}
	}
	if got, ok := ap.Info.Last("cluster.bucket_heat.ratio"); !ok || got < 1.6 || got > 1.8 {
		t.Errorf("final window ratio = %.2f (ok=%v), want ~1.7", got, ok)
	}
}

// TestAutopilotMoveCooldown holds the skew signal hot on every tick and
// asserts the cooldown paces plans: no second move until the fake clock
// passes the cooldown.
func TestAutopilotMoveCooldown(t *testing.T) {
	clk := newFakeClock()
	db, ap := newDecisionAutopilot(t, clk)
	ap.Actions.SetDryRun(true)
	ap.Actions.SetCooldown("move-bucket", 10*time.Second)

	owners := db.Cluster().BucketOwners()
	snaps := [][]int64{make([]int64, len(owners))}
	for i := 0; i < 4; i++ {
		snaps = append(snaps, addWindow(snaps[i], owners, map[int]int64{0: 300, 1: 33, 2: 33, 3: 34}))
	}
	ap.heatFn = heatScript(snaps...)

	ap.Tick() // baseline
	clk.Advance(time.Millisecond)
	ap.Tick() // hot: plans the first move, stamps the cooldown
	if got := ap.Actions.Count("move-bucket"); got != 1 {
		t.Fatalf("after first hot tick: count = %d, want 1", got)
	}
	clk.Advance(time.Millisecond)
	ap.Tick() // hot again, cooldown not elapsed
	if got := ap.Actions.Count("move-bucket"); got != 1 {
		t.Fatalf("cooldown not enforced: count = %d, want 1", got)
	}
	clk.Advance(11 * time.Second)
	ap.Tick()
	if got := ap.Actions.Count("move-bucket"); got != 2 {
		t.Fatalf("after cooldown elapsed: count = %d, want 2", got)
	}
}

// TestAutopilotDryRunNoSideEffects turns dry-run on under a hot skew and
// asserts the planner records its decisions — flagged DryRun — while the
// actuator is never invoked.
func TestAutopilotDryRunNoSideEffects(t *testing.T) {
	clk := newFakeClock()
	db, ap := newDecisionAutopilot(t, clk)
	ap.Actions.SetDryRun(true)
	ap.Actions.SetCooldown("move-bucket", 0)
	var calls atomic.Int32
	ap.moveFn = func(bucket, target int) error {
		calls.Add(1)
		return nil
	}

	owners := db.Cluster().BucketOwners()
	base := make([]int64, len(owners))
	hot := addWindow(base, owners, map[int]int64{0: 300, 1: 33, 2: 33, 3: 34})
	ap.heatFn = heatScript(base, hot)

	ap.Tick()
	actions := ap.Tick()
	found := false
	for _, a := range actions {
		if a.Kind == "move-bucket" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dry-run should still emit the planned action, got %v", actions)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("dry-run invoked the move actuator %d times", n)
	}
	for _, rec := range ap.Actions.History() {
		if !rec.DryRun {
			t.Fatalf("record %+v not flagged DryRun", rec)
		}
	}
}

// TestAutopilotSingleInFlightMove blocks the move actuator and keeps the
// skew signal hot: the controller must not plan a second move while the
// first is in flight, even with the cooldown disabled.
func TestAutopilotSingleInFlightMove(t *testing.T) {
	clk := newFakeClock()
	db, ap := newDecisionAutopilot(t, clk)
	ap.Actions.SetCooldown("move-bucket", 0)
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	ap.moveFn = func(bucket, target int) error {
		if calls.Add(1) == 1 {
			close(started)
		}
		<-release
		return nil
	}

	owners := db.Cluster().BucketOwners()
	snaps := [][]int64{make([]int64, len(owners))}
	for i := 0; i < 4; i++ {
		snaps = append(snaps, addWindow(snaps[i], owners, map[int]int64{0: 300, 1: 33, 2: 33, 3: 34}))
	}
	ap.heatFn = heatScript(snaps...)

	ap.Tick() // baseline
	ap.Tick() // hot: launches the move
	<-started
	ap.Tick() // hot, move still in flight: must not plan another
	if got := calls.Load(); got != 1 {
		t.Fatalf("in-flight guard failed: actuator called %d times", got)
	}
	if got := ap.Actions.Count("move-bucket"); got != 1 {
		t.Fatalf("in-flight guard failed: %d moves planned", got)
	}
	close(release)
	for i := 0; i < 1_000_000 && ap.moveBusy.Load(); i++ {
		runtime.Gosched()
	}
	if ap.moveBusy.Load() {
		t.Fatal("move never landed")
	}
	ap.Tick() // hot, slot free: next move may launch
	if got := ap.Actions.Count("move-bucket"); got != 2 {
		t.Fatalf("after first move landed: %d moves planned, want 2", got)
	}
	for i := 0; i < 1_000_000 && calls.Load() != 2; i++ {
		runtime.Gosched()
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("after first move landed: actuator called %d times, want 2", got)
	}
}

// TestAutopilotConsumesAnomalies is the regression for detections sitting
// unread in the anomaly log: a raised anomaly must surface as a planner
// action on the next Tick, exactly once.
func TestAutopilotConsumesAnomalies(t *testing.T) {
	clk := newFakeClock()
	_, ap := newDecisionAutopilot(t, clk)
	ap.Info.Record("disk_ms", 100) // over the 50ms diskSlowMs rule

	actions := ap.Tick()
	found := false
	for _, a := range actions {
		if a.Kind == "anomaly-"+string(autonomous.AnomalySlowDisk) {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow-disk anomaly never reached the planner, got %v", actions)
	}

	// Metric back to normal: the already-consumed detection must not be
	// planned against again.
	clk.Advance(time.Millisecond) // the newer sample must outdate the old
	ap.Info.Record("disk_ms", 1)
	ap.Tick()
	if got := ap.Actions.Count("anomaly-" + string(autonomous.AnomalySlowDisk)); got != 1 {
		t.Fatalf("anomaly planned %d times, want exactly once", got)
	}
	// The change manager carries the observation with its detail.
	foundChange := false
	for _, ch := range ap.Changes.History() {
		if ch.Key == "anomaly."+string(autonomous.AnomalySlowDisk) {
			foundChange = true
		}
	}
	if !foundChange {
		t.Error("anomaly missing from change history")
	}
}
