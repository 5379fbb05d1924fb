// Package autonomous implements the paper's autonomous-database prototype
// (§IV-A, Fig 12): the five components of Huawei's MPP autonomous database
// architecture —
//
//   - information store: continuous performance/workload metrics, each a
//     time-ordered sample history bounded by a fixed horizon and count;
//   - anomaly manager: detectors for datanode failures (heartbeat gaps),
//     slow disks and memory pressure (threshold and z-score rules);
//   - workload manager: SLA-driven admission control that adapts the
//     concurrency limit (AIMD) to meet a latency target;
//   - change manager: dynamic configuration with watchers and history, so
//     tuning actions apply without service disruption;
//   - in-DB machine learning: online statistics whose z-scores drive the
//     anomaly rules, and the latency percentiles the workload manager
//     adapts by.
package autonomous

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// Information store
// ---------------------------------------------------------------------------

// InfoStore collects named metrics with history (Fig 12 "Information
// Store"). It is process-local: the samples are the system's own
// monitoring, and writing them to a cluster table would put the control
// loop's traffic on the fabric it observes.
type InfoStore struct {
	clock func() time.Time
	mu    sync.Mutex
	// samples holds each metric's history in the order it was recorded.
	samples map[string][]sample
}

type sample struct {
	at    time.Time
	value float64
}

// Horizon is how much history Record keeps per metric: an autopilot
// records each of its gauges every tick, for as long as the process runs.
const Horizon = 2 * time.Hour

// MaxSamples is the most samples Record keeps per metric, the newest ones,
// whatever the clock says: a clock that stands still (a test's, or a
// simulation's) never ages a sample past Horizon. It holds one sample a
// second over Horizon.
const MaxSamples = 8192

// NewInfoStore creates a store; clock may be nil (wall clock).
func NewInfoStore(clock func() time.Time) *InfoStore {
	if clock == nil {
		clock = time.Now
	}
	return &InfoStore{clock: clock, samples: map[string][]sample{}}
}

// Record appends a sample to a metric and drops the metric's samples older
// than Horizon, and the oldest beyond MaxSamples.
func (s *InfoStore) Record(metric string, value float64) {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	h := append(s.samples[metric], sample{now, value})
	s.samples[metric] = h[max(0, len(h)-MaxSamples):]
	s.trimLocked(metric, now.Add(-Horizon))
}

// Window returns the samples of a metric in [now-d, now], oldest first.
func (s *InfoStore) Window(metric string, d time.Duration) []float64 {
	now := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, p := range s.samples[metric] {
		if !p.at.Before(now.Add(-d)) && !p.at.After(now) {
			out = append(out, p.value)
		}
	}
	return out
}

// Last returns the most recently recorded sample.
func (s *InfoStore) Last(metric string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.samples[metric]
	if len(h) == 0 {
		return 0, false
	}
	return h[len(h)-1].value, true
}

// Expire drops samples older than the retention horizon.
func (s *InfoStore) Expire(retention time.Duration) {
	cutoff := s.clock().Add(-retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	for metric := range s.samples {
		s.trimLocked(metric, cutoff)
	}
}

// trimLocked drops the samples of metric recorded before cutoff: a prefix
// of its history, as the clock does not run backwards.
func (s *InfoStore) trimLocked(metric string, cutoff time.Time) {
	h := s.samples[metric]
	s.samples[metric] = h[sort.Search(len(h), func(i int) bool { return !h[i].at.Before(cutoff) }):]
}

// ---------------------------------------------------------------------------
// In-DB ML primitives
// ---------------------------------------------------------------------------

// OnlineStats accumulates mean/variance incrementally (Welford).
type OnlineStats struct {
	n    int64
	mean float64
	m2   float64
}

// Add ingests one observation.
func (o *OnlineStats) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the observation count.
func (o *OnlineStats) N() int64 { return o.n }

// Mean returns the running mean.
func (o *OnlineStats) Mean() float64 { return o.mean }

// Stddev returns the running sample standard deviation.
func (o *OnlineStats) Stddev() float64 {
	if o.n < 2 {
		return 0
	}
	return math.Sqrt(o.m2 / float64(o.n-1))
}

// ZScore standardizes x against the accumulated distribution.
func (o *OnlineStats) ZScore(x float64) float64 {
	sd := o.Stddev()
	if sd == 0 {
		return 0
	}
	return (x - o.mean) / sd
}

// Percentile computes the p-quantile (0..1) of a sample.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

// ---------------------------------------------------------------------------
// Change manager
// ---------------------------------------------------------------------------

// Change records one dynamic configuration change.
type Change struct {
	At       time.Time
	Key      string
	Old, New float64
	Reason   string
}

// ChangeManager applies configuration changes at runtime and notifies
// watchers (Fig 12 "Change Manager"): no service disruption, full history.
type ChangeManager struct {
	mu       sync.Mutex
	values   map[string]float64
	watchers map[string][]func(old, new float64)
	history  []Change
	clock    func() time.Time
}

// NewChangeManager creates a manager; clock may be nil.
func NewChangeManager(clock func() time.Time) *ChangeManager {
	if clock == nil {
		clock = time.Now
	}
	return &ChangeManager{
		values:   map[string]float64{},
		watchers: map[string][]func(old, new float64){},
		clock:    clock,
	}
}

// Get returns a configuration value.
func (c *ChangeManager) Get(key string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[key]
	return v, ok
}

// Set applies a change, records it and fires watchers.
func (c *ChangeManager) Set(key string, value float64, reason string) {
	c.mu.Lock()
	old := c.values[key]
	c.values[key] = value
	c.history = append(c.history, Change{At: c.clock(), Key: key, Old: old, New: value, Reason: reason})
	watchers := append([]func(old, new float64){}, c.watchers[key]...)
	c.mu.Unlock()
	for _, w := range watchers {
		w(old, value)
	}
}

// Watch registers a callback for changes of key.
func (c *ChangeManager) Watch(key string, fn func(old, new float64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.watchers[key] = append(c.watchers[key], fn)
}

// History returns the applied changes in order.
func (c *ChangeManager) History() []Change {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Change(nil), c.history...)
}

// ---------------------------------------------------------------------------
// Anomaly manager
// ---------------------------------------------------------------------------

// AnomalyKind classifies detections.
type AnomalyKind string

// Anomaly kinds the paper names (§IV-A2: "datanode failures, slow disk or
// insufficient memory").
const (
	AnomalyNodeDown  AnomalyKind = "datanode_down"
	AnomalySlowDisk  AnomalyKind = "slow_disk"
	AnomalyLowMemory AnomalyKind = "insufficient_memory"
	AnomalyLatency   AnomalyKind = "latency_outlier"
)

// Anomaly is one detection.
type Anomaly struct {
	Kind   AnomalyKind
	Metric string
	Value  float64
	Detail string
	At     time.Time
}

// AnomalyManager evaluates detection rules over the information store.
type AnomalyManager struct {
	info  *InfoStore
	clock func() time.Time

	mu         sync.Mutex
	baselines  map[string]*OnlineStats
	heartbeats map[string]time.Time
	log        []Anomaly
	// consumed is the Consume cursor into log: anomalies before it have
	// been handed to the action planner.
	consumed int
}

// NewAnomalyManager creates a manager over an information store.
func NewAnomalyManager(info *InfoStore, clock func() time.Time) *AnomalyManager {
	if clock == nil {
		clock = time.Now
	}
	return &AnomalyManager{
		info:       info,
		clock:      clock,
		baselines:  map[string]*OnlineStats{},
		heartbeats: map[string]time.Time{},
	}
}

// Heartbeat records liveness of a node.
func (a *AnomalyManager) Heartbeat(node string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.heartbeats[node] = a.clock()
}

// Observe feeds a metric sample to both the info store and the detector
// baseline, returning an anomaly when the sample is a > 3σ outlier against
// its own history.
func (a *AnomalyManager) Observe(metric string, value float64) *Anomaly {
	a.info.Record(metric, value)
	a.mu.Lock()
	defer a.mu.Unlock()
	base, ok := a.baselines[metric]
	if !ok {
		base = &OnlineStats{}
		a.baselines[metric] = base
	}
	var found *Anomaly
	if base.N() >= 20 {
		if z := base.ZScore(value); z > 3 {
			found = &Anomaly{
				Kind: AnomalyLatency, Metric: metric, Value: value,
				Detail: fmt.Sprintf("z-score %.1f against mean %.2f", z, base.Mean()),
				At:     a.clock(),
			}
		}
	}
	base.Add(value)
	if found != nil {
		a.log = append(a.log, *found)
	}
	return found
}

// Check runs the absolute-rule detectors: missed heartbeats, disk service
// times over diskSlowMs, and free memory under memLowFrac.
func (a *AnomalyManager) Check(heartbeatTimeout time.Duration, diskSlowMs, memLowFrac float64) []Anomaly {
	now := a.clock()
	var out []Anomaly
	a.mu.Lock()
	for node, last := range a.heartbeats {
		if now.Sub(last) > heartbeatTimeout {
			out = append(out, Anomaly{
				Kind: AnomalyNodeDown, Metric: "heartbeat/" + node,
				Detail: fmt.Sprintf("no heartbeat for %v", now.Sub(last)), At: now,
			})
		}
	}
	a.mu.Unlock()
	if v, ok := a.info.Last("disk_ms"); ok && v > diskSlowMs {
		out = append(out, Anomaly{Kind: AnomalySlowDisk, Metric: "disk_ms", Value: v,
			Detail: fmt.Sprintf("disk service time %.1fms > %.1fms", v, diskSlowMs), At: now})
	}
	if v, ok := a.info.Last("mem_free_frac"); ok && v < memLowFrac {
		out = append(out, Anomaly{Kind: AnomalyLowMemory, Metric: "mem_free_frac", Value: v,
			Detail: fmt.Sprintf("free memory %.0f%% < %.0f%%", v*100, memLowFrac*100), At: now})
	}
	a.mu.Lock()
	a.log = append(a.log, out...)
	a.mu.Unlock()
	return out
}

// Log returns all recorded anomalies.
func (a *AnomalyManager) Log() []Anomaly {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Anomaly(nil), a.log...)
}

// Consume returns the anomalies recorded since the previous Consume call
// and advances the cursor — the hand-off from detection to the action
// planner, so every detection is planned against exactly once. Log still
// returns the full history.
func (a *AnomalyManager) Consume() []Anomaly {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append([]Anomaly(nil), a.log[a.consumed:]...)
	a.consumed = len(a.log)
	return out
}

// Forget drops a node's heartbeat tracking. The planner calls it after
// acting on a datanode_down detection (failover, retirement), so the dead
// node stops re-raising the anomaly every Check; detection re-arms when
// the node returns and heartbeats resume.
func (a *AnomalyManager) Forget(node string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.heartbeats, node)
}
