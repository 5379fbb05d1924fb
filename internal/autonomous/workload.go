package autonomous

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueFull is returned by Admit when the wait queue overflows, and to a
// queued low-priority waiter evicted to make room for a higher-priority one.
var ErrQueueFull = errors.New("autonomous: admission queue is full")

// SLA is the performance target the workload manager steers toward
// (§IV-A1: "SLAs can specify ... averaged transaction response time,
// system throughput").
type SLA struct {
	// TargetP95 is the 95th-percentile statement latency target.
	TargetP95 time.Duration
}

// Priority classifies a session's SLA tier (§IV-A1: the workload manager
// protects high-priority SLAs by shedding low-priority traffic first).
type Priority uint8

// Priority classes, lowest first. Declaration order is the shed order:
// under overload the queue evicts from PriorityLow upward, and wakes from
// PriorityHigh downward.
const (
	PriorityLow Priority = iota
	PriorityNormal
	PriorityHigh

	numPriorities = int(PriorityHigh) + 1
)

func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	default:
		return "high"
	}
}

// WorkloadConfig tunes the manager.
type WorkloadConfig struct {
	// InitialConcurrency is the starting admission limit.
	InitialConcurrency int
	// MinConcurrency and MaxConcurrency bound adaptation.
	MinConcurrency, MaxConcurrency int
	// Window is how many recent latencies feed each control decision.
	Window int
	// QueueLimit bounds waiting requests (0 = 1024).
	QueueLimit int
}

// waiter is one queued admission request. The channel is buffered so the
// waker never blocks; state settles exactly once under the manager's lock.
type waiter struct {
	ch    chan error
	pri   Priority
	state waiterState
}

type waiterState uint8

const (
	waiterQueued waiterState = iota
	waiterGranted
	waiterShed
	waiterCancelled
)

// ClassStats counts one priority class's admission outcomes.
type ClassStats struct {
	// Admitted counts statements granted a slot (immediately or after
	// queueing).
	Admitted int64
	// Queued counts statements that had to wait for a slot.
	Queued int64
	// Shed counts ErrQueueFull rejections (queue overflow on arrival, or
	// eviction by a higher-priority arrival).
	Shed int64
	// Cancelled counts queued waiters removed by context cancellation.
	Cancelled int64
}

// WorkloadStats is a snapshot of the manager's admission counters.
type WorkloadStats struct {
	// ByClass indexes ClassStats by Priority.
	ByClass [numPriorities]ClassStats
	// QueueLen is the current number of queued waiters.
	QueueLen int
	// Limit and Inflight mirror the accessor methods.
	Limit, Inflight int
}

// Class returns one priority's counters.
func (s WorkloadStats) Class(p Priority) ClassStats { return s.ByClass[p] }

// WorkloadManager is an SLA-driven admission controller: queries acquire a
// slot before running and report their latency after; an AIMD control loop
// moves the concurrency limit to keep p95 latency at the SLA (Fig 12
// "Workload Manager"). Admission is priority-aware: slots wake the
// highest-priority waiters first, and a full queue sheds the
// lowest-priority waiter to make room for a higher-priority arrival.
type WorkloadManager struct {
	sla SLA
	cfg WorkloadConfig
	cm  *ChangeManager

	mu        sync.Mutex
	limit     int
	inflight  int
	waiters   [numPriorities][]*waiter // FIFO per class
	queueLen  int
	stats     [numPriorities]ClassStats
	latencies []time.Duration
	decisions int
}

// NewWorkloadManager builds a manager. The change manager records every
// limit adjustment (and may be shared with other components); it may be
// nil.
func NewWorkloadManager(sla SLA, cfg WorkloadConfig, cm *ChangeManager) *WorkloadManager {
	if cfg.InitialConcurrency <= 0 {
		cfg.InitialConcurrency = 8
	}
	if cfg.MinConcurrency <= 0 {
		cfg.MinConcurrency = 1
	}
	if cfg.MaxConcurrency < cfg.InitialConcurrency {
		cfg.MaxConcurrency = cfg.InitialConcurrency * 8
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 1024
	}
	return &WorkloadManager{sla: sla, cfg: cfg, cm: cm, limit: cfg.InitialConcurrency}
}

// Limit returns the current admission limit.
func (w *WorkloadManager) Limit() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.limit
}

// Inflight returns the number of running statements.
func (w *WorkloadManager) Inflight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight
}

// QueueLen returns the number of queued waiters.
func (w *WorkloadManager) QueueLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queueLen
}

// Stats snapshots the admission counters.
func (w *WorkloadManager) Stats() WorkloadStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkloadStats{ByClass: w.stats, QueueLen: w.queueLen, Limit: w.limit, Inflight: w.inflight}
}

// Admit blocks until a slot is available (or the queue overflows), at
// normal priority with no cancellation — the pre-front-door behavior.
func (w *WorkloadManager) Admit() error {
	return w.AdmitPriority(context.Background(), PriorityNormal)
}

// AdmitCtx is Admit with cancellation: a context timeout or cancel removes
// the queued waiter and frees its queue slot, so a disconnected session can
// never leak one (the old <-ch wait blocked forever if load never drained).
func (w *WorkloadManager) AdmitCtx(ctx context.Context) error {
	return w.AdmitPriority(ctx, PriorityNormal)
}

// AdmitPriority blocks until a slot is available, the context is done, or
// the request is shed. Under overload, slots go to the highest-priority
// waiters first; when the queue is full, a higher-priority arrival evicts
// the most recently queued waiter of the lowest waiting class below it
// (that waiter gets ErrQueueFull), and an arrival with nothing below it to
// evict is itself rejected with ErrQueueFull.
func (w *WorkloadManager) AdmitPriority(ctx context.Context, pri Priority) error {
	if int(pri) >= numPriorities {
		pri = PriorityHigh
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w.mu.Lock()
	if w.admitNowLocked(pri) {
		w.mu.Unlock()
		return nil
	}
	if w.queueLen >= w.cfg.QueueLimit && !w.evictBelowLocked(pri) {
		w.stats[pri].Shed++
		w.mu.Unlock()
		return ErrQueueFull
	}
	wt := &waiter{ch: make(chan error, 1), pri: pri}
	w.waiters[pri] = append(w.waiters[pri], wt)
	w.queueLen++
	w.stats[pri].Queued++
	w.wakeLocked()
	w.mu.Unlock()

	select {
	case err := <-wt.ch:
		return err
	case <-ctx.Done():
	}
	// Cancellation races the waker: settle under the lock.
	w.mu.Lock()
	switch wt.state {
	case waiterQueued:
		w.removeLocked(wt)
		wt.state = waiterCancelled
		w.stats[pri].Cancelled++
		w.mu.Unlock()
		return ctx.Err()
	case waiterGranted:
		// The slot was granted concurrently with cancellation; give it
		// back and wake the next waiter.
		w.inflight--
		w.stats[pri].Admitted--
		w.stats[pri].Cancelled++
		w.wakeLocked()
		w.mu.Unlock()
		return ctx.Err()
	default: // shed concurrently with cancellation
		w.mu.Unlock()
		return ctx.Err()
	}
}

// TryAdmit takes a slot if the request need not queue — the common case,
// which then costs no context, timer or waiter — and reports whether it did.
// After false nothing was counted: the caller goes on to AdmitPriority with
// whatever deadline the wait should have.
func (w *WorkloadManager) TryAdmit(pri Priority) bool {
	if int(pri) >= numPriorities {
		pri = PriorityHigh
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.admitNowLocked(pri)
}

// admitNowLocked grants a free slot to a request nobody it must wait behind
// is queued for: with waiters queued it jumps only ahead of strictly lower
// classes — equal-priority requests stay FIFO. Caller holds w.mu.
func (w *WorkloadManager) admitNowLocked(pri Priority) bool {
	if w.inflight >= w.limit || (w.queueLen > 0 && w.queuedAtOrAboveLocked(pri)) {
		return false
	}
	w.inflight++
	w.stats[pri].Admitted++
	return true
}

// queuedAtOrAboveLocked reports whether any waiter of class >= pri is
// queued. Caller holds w.mu.
func (w *WorkloadManager) queuedAtOrAboveLocked(pri Priority) bool {
	for p := int(pri); p < numPriorities; p++ {
		if len(w.waiters[p]) > 0 {
			return true
		}
	}
	return false
}

// evictBelowLocked sheds the most recently queued waiter of the lowest
// class strictly below pri, returning whether a queue slot was freed.
// Caller holds w.mu.
func (w *WorkloadManager) evictBelowLocked(pri Priority) bool {
	for p := 0; p < int(pri); p++ {
		q := w.waiters[p]
		if len(q) == 0 {
			continue
		}
		victim := q[len(q)-1]
		w.waiters[p] = q[:len(q)-1]
		w.queueLen--
		victim.state = waiterShed
		w.stats[p].Shed++
		victim.ch <- ErrQueueFull
		return true
	}
	return false
}

// removeLocked unlinks a queued waiter (cancellation path), freeing its
// queue slot. Caller holds w.mu.
func (w *WorkloadManager) removeLocked(wt *waiter) {
	q := w.waiters[wt.pri]
	for i, cand := range q {
		if cand == wt {
			w.waiters[wt.pri] = append(q[:i], q[i+1:]...)
			w.queueLen--
			return
		}
	}
}

// Release returns a slot, reporting the statement's latency to the control
// loop.
func (w *WorkloadManager) Release(latency time.Duration) {
	w.mu.Lock()
	w.inflight--
	w.latencies = append(w.latencies, latency)
	if len(w.latencies) >= w.cfg.Window {
		w.adaptLocked()
		w.latencies = w.latencies[:0]
	}
	w.wakeLocked()
	w.mu.Unlock()
}

// wakeLocked admits queued waiters up to the limit, highest priority
// first, FIFO within a class.
func (w *WorkloadManager) wakeLocked() {
	for w.inflight < w.limit && w.queueLen > 0 {
		for p := numPriorities - 1; p >= 0; p-- {
			q := w.waiters[p]
			if len(q) == 0 {
				continue
			}
			wt := q[0]
			w.waiters[p] = q[1:]
			w.queueLen--
			w.inflight++
			wt.state = waiterGranted
			w.stats[p].Admitted++
			wt.ch <- nil
			break
		}
	}
}

// adaptLocked is the AIMD step: over SLA → multiplicative decrease; under
// 70% of SLA → additive increase.
func (w *WorkloadManager) adaptLocked() {
	w.decisions++
	samples := make([]float64, len(w.latencies))
	for i, l := range w.latencies {
		samples[i] = float64(l)
	}
	p95 := time.Duration(Percentile(samples, 0.95))
	old := w.limit
	switch {
	case p95 > w.sla.TargetP95:
		w.limit = maxInt(w.cfg.MinConcurrency, w.limit/2)
	case p95 < w.sla.TargetP95*7/10:
		w.limit = minInt(w.cfg.MaxConcurrency, w.limit+1)
	}
	if w.limit != old && w.cm != nil {
		w.cm.Set("workload.concurrency", float64(w.limit),
			"p95 "+p95.String()+" vs SLA "+w.sla.TargetP95.String())
	}
}

// Decisions counts control-loop evaluations (tests).
func (w *WorkloadManager) Decisions() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.decisions
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
