package autonomous

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is a controllable time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestInfoStoreWindowAndExpire(t *testing.T) {
	clk := newFakeClock()
	s := NewInfoStore(clk.Now)
	for i := 0; i < 10; i++ {
		s.Record("qps", float64(i))
		clk.Advance(time.Second)
	}
	w := s.Window("qps", 5*time.Second)
	if len(w) != 5 {
		t.Fatalf("window = %v", w)
	}
	if v, ok := s.Last("qps"); !ok || v != 9 {
		t.Errorf("last = %v, %v", v, ok)
	}
	s.Expire(3 * time.Second)
	if w := s.Window("qps", time.Hour); len(w) != 3 {
		t.Errorf("after expire window = %v", w)
	}
	// Under a frozen clock samples share a timestamp: Last is the one
	// recorded last.
	s.Record("frozen", 1)
	s.Record("frozen", 2)
	if v, ok := s.Last("frozen"); !ok || v != 2 {
		t.Errorf("last under a frozen clock = %v, %v, want 2", v, ok)
	}
}

func TestOnlineStats(t *testing.T) {
	var o OnlineStats
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.Mean() != 5 {
		t.Errorf("mean = %f", o.Mean())
	}
	if sd := o.Stddev(); math.Abs(sd-2.138) > 0.01 {
		t.Errorf("stddev = %f", sd)
	}
	if z := o.ZScore(5); math.Abs(z) > 0.01 {
		t.Errorf("z(5) = %f", z)
	}
}

func TestPercentile(t *testing.T) {
	if p := Percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); p < 9 {
		t.Errorf("p95 = %f", p)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestChangeManager(t *testing.T) {
	clk := newFakeClock()
	cm := NewChangeManager(clk.Now)
	var notified []float64
	cm.Watch("mem_limit", func(old, new float64) { notified = append(notified, new) })
	cm.Set("mem_limit", 1024, "initial")
	cm.Set("mem_limit", 2048, "pressure")
	if v, ok := cm.Get("mem_limit"); !ok || v != 2048 {
		t.Errorf("get = %v, %v", v, ok)
	}
	if len(notified) != 2 || notified[1] != 2048 {
		t.Errorf("notified = %v", notified)
	}
	h := cm.History()
	if len(h) != 2 || h[1].Old != 1024 || h[1].Reason != "pressure" {
		t.Errorf("history = %+v", h)
	}
}

func TestAnomalyHeartbeatAndRules(t *testing.T) {
	clk := newFakeClock()
	info := NewInfoStore(clk.Now)
	am := NewAnomalyManager(info, clk.Now)

	am.Heartbeat("dn1")
	am.Heartbeat("dn2")
	clk.Advance(5 * time.Second)
	am.Heartbeat("dn2") // dn1 goes silent

	info.Record("disk_ms", 80)         // slow disk
	info.Record("mem_free_frac", 0.05) // low memory

	clk.Advance(6 * time.Second)
	anomalies := am.Check(10*time.Second, 50, 0.1)
	kinds := map[AnomalyKind]bool{}
	for _, a := range anomalies {
		kinds[a.Kind] = true
	}
	if !kinds[AnomalyNodeDown] {
		t.Error("missed dn1 heartbeat anomaly")
	}
	if !kinds[AnomalySlowDisk] {
		t.Error("missed slow disk")
	}
	if !kinds[AnomalyLowMemory] {
		t.Error("missed low memory")
	}
	// dn2 heartbeated recently: only one node-down anomaly.
	nodeDowns := 0
	for _, a := range anomalies {
		if a.Kind == AnomalyNodeDown {
			nodeDowns++
		}
	}
	if nodeDowns != 1 {
		t.Errorf("node-down anomalies = %d", nodeDowns)
	}
	if len(am.Log()) != len(anomalies) {
		t.Errorf("log = %d entries", len(am.Log()))
	}
}

func TestAnomalyZScoreOutlier(t *testing.T) {
	clk := newFakeClock()
	am := NewAnomalyManager(NewInfoStore(clk.Now), clk.Now)
	// Stable baseline around 10ms.
	for i := 0; i < 50; i++ {
		if a := am.Observe("latency_ms", 10+float64(i%3)); a != nil {
			t.Fatalf("false positive at %d: %+v", i, a)
		}
	}
	a := am.Observe("latency_ms", 500)
	if a == nil || a.Kind != AnomalyLatency {
		t.Fatalf("missed outlier: %+v", a)
	}
}

func TestWorkloadManagerAdmission(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: 100 * time.Millisecond},
		WorkloadConfig{InitialConcurrency: 2, MaxConcurrency: 4, Window: 4}, nil)
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	if wm.Inflight() != 2 {
		t.Fatalf("inflight = %d", wm.Inflight())
	}
	// Third admit blocks until a release.
	admitted := make(chan struct{})
	go func() {
		wm.Admit()
		close(admitted)
	}()
	select {
	case <-admitted:
		t.Fatal("third admit should block at limit 2")
	case <-time.After(20 * time.Millisecond):
	}
	wm.Release(10 * time.Millisecond)
	select {
	case <-admitted:
	case <-time.After(time.Second):
		t.Fatal("waiter never admitted")
	}
	wm.Release(10 * time.Millisecond)
	wm.Release(10 * time.Millisecond)
}

func TestWorkloadManagerAIMD(t *testing.T) {
	cm := NewChangeManager(nil)
	wm := NewWorkloadManager(SLA{TargetP95: 50 * time.Millisecond},
		WorkloadConfig{InitialConcurrency: 8, MinConcurrency: 1, MaxConcurrency: 16, Window: 8}, cm)

	// Sustained SLA violations halve the limit.
	for i := 0; i < 8; i++ {
		wm.Admit()
		wm.Release(200 * time.Millisecond)
	}
	if wm.Limit() != 4 {
		t.Errorf("limit after violation = %d, want 4", wm.Limit())
	}
	// Sustained headroom raises it by one.
	for i := 0; i < 8; i++ {
		wm.Admit()
		wm.Release(5 * time.Millisecond)
	}
	if wm.Limit() != 5 {
		t.Errorf("limit after recovery = %d, want 5", wm.Limit())
	}
	// Changes were recorded via the change manager.
	if len(cm.History()) < 2 {
		t.Errorf("history = %+v", cm.History())
	}
	// Limit never drops below the floor.
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			wm.Admit()
			wm.Release(500 * time.Millisecond)
		}
	}
	if wm.Limit() < 1 {
		t.Errorf("limit = %d below floor", wm.Limit())
	}
}

func TestWorkloadSelfOptimizingLoop(t *testing.T) {
	// End-to-end control loop: a simulated system whose latency grows with
	// concurrency. The manager must settle near the concurrency where p95
	// meets the SLA (latency = 10ms * concurrency; SLA 80ms -> limit ~<=8).
	wm := NewWorkloadManager(SLA{TargetP95: 80 * time.Millisecond},
		WorkloadConfig{InitialConcurrency: 16, MinConcurrency: 1, MaxConcurrency: 32, Window: 16}, nil)
	for round := 0; round < 40; round++ {
		limit := wm.Limit()
		lat := time.Duration(limit) * 10 * time.Millisecond
		for i := 0; i < 16; i++ {
			wm.Admit()
			wm.Release(lat)
		}
	}
	if l := wm.Limit(); l < 4 || l > 9 {
		t.Errorf("converged limit = %d, want ~5-8 for the 80ms SLA", l)
	}
}
