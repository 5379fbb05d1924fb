package autonomous

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fill(t *testing.T, wm *WorkloadManager, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := wm.Admit(); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
}

func TestAdmitCtxCancelFreesQueueSlot(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second},
		WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1, QueueLimit: 1}, nil)
	fill(t, wm, 1)

	// One waiter occupies the whole queue.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- wm.AdmitCtx(ctx) }()
	waitFor(t, func() bool { return wm.QueueLen() == 1 })

	// The queue is full: another request is shed.
	if err := wm.AdmitCtx(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}

	// Cancelling the waiter frees its queue slot without releasing anything.
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v", err)
	}
	if n := wm.QueueLen(); n != 0 {
		t.Fatalf("queue slot leaked: len = %d", n)
	}
	if got := wm.Stats().Class(PriorityNormal).Cancelled; got != 1 {
		t.Fatalf("cancelled count = %d", got)
	}

	// The freed slot is usable again.
	done := make(chan error, 1)
	go func() { done <- wm.AdmitCtx(context.Background()) }()
	waitFor(t, func() bool { return wm.QueueLen() == 1 })
	wm.Release(time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("queued admit after cancel: %v", err)
	}
	wm.Release(time.Millisecond)
}

func TestAdmitCtxTimeout(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second},
		WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1}, nil)
	fill(t, wm, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := wm.AdmitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline exceeded, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout did not fire promptly — waiter blocked forever")
	}
	if wm.QueueLen() != 0 {
		t.Fatal("timed-out waiter left in queue")
	}
	wm.Release(time.Millisecond)
}

func TestAdmitCtxAlreadyCancelled(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second}, WorkloadConfig{}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := wm.AdmitCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if wm.Inflight() != 0 {
		t.Fatal("cancelled admit took a slot")
	}
}

// TestShedEvictsQueuedLowPriority is the waiter-bookkeeping fix: the
// evicted waiter's channel must leave w.waiters (no dead-session wakeups,
// no slot leak), and the evicting high-priority request takes its place.
func TestShedEvictsQueuedLowPriority(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second},
		WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1, QueueLimit: 1}, nil)
	fill(t, wm, 1)

	lowErr := make(chan error, 1)
	go func() { lowErr <- wm.AdmitPriority(context.Background(), PriorityLow) }()
	waitFor(t, func() bool { return wm.QueueLen() == 1 })

	// High-priority arrival on a full queue evicts the queued low waiter.
	highErr := make(chan error, 1)
	go func() { highErr <- wm.AdmitPriority(context.Background(), PriorityHigh) }()
	if err := <-lowErr; !errors.Is(err, ErrQueueFull) {
		t.Fatalf("evicted low waiter got %v", err)
	}
	if n := wm.QueueLen(); n != 1 {
		t.Fatalf("queue len after eviction = %d, want 1 (the high waiter)", n)
	}

	// The released slot goes to the high-priority waiter, not the dead one.
	wm.Release(time.Millisecond)
	if err := <-highErr; err != nil {
		t.Fatalf("high-priority waiter got %v", err)
	}
	st := wm.Stats()
	if st.Class(PriorityLow).Shed != 1 {
		t.Errorf("low shed = %d", st.Class(PriorityLow).Shed)
	}
	if st.Class(PriorityHigh).Admitted != 1 {
		t.Errorf("high admitted = %d", st.Class(PriorityHigh).Admitted)
	}
	wm.Release(time.Millisecond)
}

func TestShedNothingBelowRejectsArrival(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second},
		WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1, QueueLimit: 1}, nil)
	fill(t, wm, 1)
	go wm.AdmitPriority(context.Background(), PriorityHigh)
	waitFor(t, func() bool { return wm.QueueLen() == 1 })
	// A low arrival cannot evict the queued high waiter.
	if err := wm.AdmitPriority(context.Background(), PriorityLow); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("low arrival on full high queue: %v", err)
	}
	if wm.QueueLen() != 1 {
		t.Fatalf("queue len = %d", wm.QueueLen())
	}
	wm.Release(time.Millisecond)
	wm.Release(time.Millisecond)
}

func TestWakePriorityOrder(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second},
		WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1, QueueLimit: 8}, nil)
	fill(t, wm, 1)

	order := make(chan Priority, 3)
	enqueue := func(p Priority) {
		go func() {
			if wm.AdmitPriority(context.Background(), p) == nil {
				order <- p
				wm.Release(time.Millisecond)
			}
		}()
		waitFor(t, func() bool { return wm.Stats().Class(p).Queued > 0 })
	}
	enqueue(PriorityLow)
	enqueue(PriorityNormal)
	enqueue(PriorityHigh)

	wm.Release(time.Millisecond)
	want := []Priority{PriorityHigh, PriorityNormal, PriorityLow}
	for i, w := range want {
		if got := <-order; got != w {
			t.Fatalf("wake %d = %s, want %s", i, got, w)
		}
	}
}

// AIMD edge cases: the limit must clamp at MinConcurrency under sustained
// violation and at MaxConcurrency under sustained headroom.
func TestAIMDFloorAtMinConcurrency(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: 10 * time.Millisecond},
		WorkloadConfig{InitialConcurrency: 8, MinConcurrency: 2, MaxConcurrency: 16, Window: 4}, nil)
	for round := 0; round < 20; round++ {
		for i := 0; i < 4; i++ {
			if err := wm.Admit(); err != nil {
				t.Fatal(err)
			}
			wm.Release(time.Second) // always violating
		}
	}
	if l := wm.Limit(); l != 2 {
		t.Fatalf("limit = %d, want floor 2", l)
	}
}

func TestAIMDCeilingAtMaxConcurrency(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: 10 * time.Millisecond},
		WorkloadConfig{InitialConcurrency: 4, MinConcurrency: 1, MaxConcurrency: 6, Window: 4}, nil)
	for round := 0; round < 20; round++ {
		for i := 0; i < 4; i++ {
			if err := wm.Admit(); err != nil {
				t.Fatal(err)
			}
			wm.Release(time.Microsecond) // far under SLA
		}
	}
	if l := wm.Limit(); l != 6 {
		t.Fatalf("limit = %d, want ceiling 6", l)
	}
	if wm.Decisions() == 0 {
		t.Fatal("control loop never evaluated")
	}
}

// TestConcurrentAdmitReleaseInvariants hammers Admit/AdmitCtx/Release from
// many goroutines (run under -race) and checks the bookkeeping invariants:
// every admit is paired with a release, and at the end inflight and the
// queue are empty with no leaked slots.
func TestConcurrentAdmitReleaseInvariants(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second},
		WorkloadConfig{InitialConcurrency: 4, MinConcurrency: 2, MaxConcurrency: 8, Window: 16, QueueLimit: 32}, nil)
	var admitted, shed, cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		pri := Priority(g % numPriorities)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%5 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 100*time.Microsecond)
				}
				err := wm.AdmitPriority(ctx, pri)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					admitted.Add(1)
					wm.Release(time.Duration(i%7) * time.Millisecond)
				case errors.Is(err, ErrQueueFull):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					t.Errorf("unexpected admit error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if wm.Inflight() != 0 {
		t.Errorf("inflight = %d after all releases", wm.Inflight())
	}
	if wm.QueueLen() != 0 {
		t.Errorf("queue len = %d after drain", wm.QueueLen())
	}
	if l := wm.Limit(); l < 2 || l > 8 {
		t.Errorf("limit = %d outside [2,8]", l)
	}
	if admitted.Load() == 0 {
		t.Error("nothing admitted")
	}
	st := wm.Stats()
	var total int64
	for p := 0; p < numPriorities; p++ {
		total += st.ByClass[p].Admitted
	}
	if total != admitted.Load() {
		t.Errorf("stats admitted = %d, callers saw %d", total, admitted.Load())
	}
	t.Logf("admitted=%d shed=%d cancelled=%d limit=%d",
		admitted.Load(), shed.Load(), cancelled.Load(), wm.Limit())
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestTryAdmit: a free slot is taken without a context; a request that would
// have to queue — no slot, or an equal-or-higher class already waiting — is
// left alone, uncounted, for AdmitPriority.
func TestTryAdmit(t *testing.T) {
	wm := NewWorkloadManager(SLA{TargetP95: time.Second},
		WorkloadConfig{InitialConcurrency: 2, MaxConcurrency: 2}, nil)
	if !wm.TryAdmit(PriorityNormal) || !wm.TryAdmit(PriorityLow) {
		t.Fatal("free slots refused")
	}
	if wm.TryAdmit(PriorityHigh) {
		t.Fatal("admitted beyond the limit")
	}
	if st := wm.Stats(); st.Inflight != 2 || st.QueueLen != 0 || st.ByClass[PriorityHigh] != (ClassStats{}) {
		t.Fatalf("after a refused TryAdmit: %+v", st)
	}
	// Queue a normal-priority waiter, then free a slot for it: until it has
	// taken it, TryAdmit may not jump it at its own class.
	queued := make(chan error, 1)
	go func() { queued <- wm.AdmitPriority(context.Background(), PriorityNormal) }()
	for wm.QueueLen() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	if wm.TryAdmit(PriorityNormal) {
		t.Fatal("jumped a queued waiter of the same class")
	}
	wm.Release(time.Millisecond)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	if got := wm.Stats().ByClass[PriorityNormal].Admitted; got != 2 {
		t.Fatalf("normal class admitted %d, want 2", got)
	}
}
