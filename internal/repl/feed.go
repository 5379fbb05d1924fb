package repl

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// Leg is one committed transaction leg queued on a Feed: the leg's write
// records in the source node's commit order. ack is the group-wide quorum
// counter shared by every replica's copy of the leg (nil outside sync-mode
// replication).
type Leg struct {
	Recs []cluster.WriteRec
	ack  *quorumAck
}

// Feed is the commit stream of one log-fed replica — row standby or
// columnar HTAP mirror alike: an ordered queue of committed legs consumed
// one batch at a time (step), a quiesce gate that holds consumption between
// batches, enqueued/applied watermarks, and a poison latch that stops
// applying while the queue keeps draining. Appends come from the commit tap
// under the source node's commit lock (or, for a chained standby, from its
// parent's consumer), so queue order is commit order. Batches are run by the
// feed's consumer goroutine (Run) and by whoever waits for the watermark
// (WaitApplied): a reader at a freshness gate applies the backlog it is
// waiting for rather than waking the consumer and being woken by it.
type Feed struct {
	mu   sync.Mutex
	cond *sync.Cond
	legs []Leg
	idx  int // next leg to hand to the sink
	// holds counts Quiesce calls not yet released; busy marks a batch
	// inside the sink. A batch starts only while holds == 0 and busy is
	// false — one batch in the sink at a time, in queue order, whoever runs
	// it — and Quiesce returns only once busy is false.
	holds  int
	busy   bool
	closed bool
	// max and sink are the consumer's batch size and sink, set by Run.
	max  int
	sink func(batch []Leg, done func()) error

	enqueued    atomic.Int64 // records appended
	applied     atomic.Int64 // records the sink applied
	appliedLegs atomic.Int64
	waiters     atomic.Int32 // WaitApplied callers parked on cond
	failure     atomic.Pointer[error]
}

// NewFeed returns an empty feed; start its consumer with Run.
func NewFeed() *Feed {
	f := &Feed{}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Append enqueues one leg and wakes the consumer. The caller may hold a
// commit lock, so this never blocks on the sink.
func (f *Feed) Append(recs []cluster.WriteRec) { f.append(recs, nil) }

// append is Append carrying a quorum ack. A leg appended to a closed feed
// (a replica just promoted away) acks immediately: nobody will consume
// the queue, and the promoted node holds the records as primary.
func (f *Feed) append(recs []cluster.WriteRec, ack *quorumAck) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		ack.ack()
		return
	}
	f.legs = append(f.legs, Leg{Recs: recs, ack: ack})
	f.enqueued.Add(int64(len(recs)))
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Run is the feed's consumer: it hands the sink batches of up to max queued
// legs, in order, until the feed is closed and drained. The sink calls done
// after each leg it applied — that advances the applied watermark and acks
// the leg — and returns an error to poison the feed. Legs the sink did not
// get to, and every leg of a poisoned feed, are released unapplied, so a
// sync-mode commit never waits on a replica that cannot make progress.
// Batching is what makes a geo link viable: a row sink pays one shipped
// message per batch, not per commit.
func (f *Feed) Run(max int, sink func(batch []Leg, done func()) error) {
	f.serve(max, sink)
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		switch {
		case f.stepLocked(0):
		case f.closed && f.idx == len(f.legs):
			return
		default:
			f.cond.Wait()
		}
	}
}

// serve installs the sink batches run through.
func (f *Feed) serve(max int, sink func(batch []Leg, done func()) error) {
	f.mu.Lock()
	f.max, f.sink = max, sink
	f.mu.Unlock()
}

// stepLocked runs the next batch through the sink, if one may start now:
// legs queued, a sink installed, no batch in it and no quiesce held. It
// reports whether it did. A waiter passes the records it still needs
// applied, and its batch stops at the leg that gets it there: what was
// committed behind its back is the consumer's to apply. need 0 takes up to
// max legs. Called with f.mu held, which it drops around the sink.
func (f *Feed) stepLocked(need int64) bool {
	n := len(f.legs) - f.idx
	if n == 0 || f.sink == nil || f.busy || f.holds > 0 {
		return false
	}
	f.busy = true
	batch := f.legs[f.idx : f.idx+min(n, f.max)]
	for i := 0; need > 0 && i < len(batch); i++ {
		if need -= int64(len(batch[i].Recs)); need <= 0 {
			batch = batch[:i+1]
		}
	}
	f.mu.Unlock()

	applied := 0
	if f.Err() == nil {
		err := f.sink(batch, func() {
			l := batch[applied]
			applied++
			f.appliedLegs.Add(1)
			f.applied.Add(int64(len(l.Recs)))
			l.ack.ack()
			if f.waiters.Load() > 0 {
				f.mu.Lock()
				f.cond.Broadcast()
				f.mu.Unlock()
			}
		})
		if err != nil {
			f.failure.CompareAndSwap(nil, &err)
		}
	}
	for _, l := range batch[applied:] {
		l.ack.ack()
	}

	// Retire the batch, dropping the backlog once the queue is caught up.
	f.mu.Lock()
	f.busy = false
	f.idx += len(batch)
	if f.idx == len(f.legs) {
		f.legs, f.idx = nil, 0
	}
	f.cond.Broadcast()
	return true
}

// Quiesce holds consumption between batches: it returns once no batch is
// inside the sink, and no further batch starts until release is called.
// Topology changes (seeding a chained standby from this replica's mirror,
// wiping a replica's node) and freshness tests run inside it.
func (f *Feed) Quiesce() (release func()) {
	f.mu.Lock()
	f.holds++
	for f.busy {
		f.cond.Wait()
	}
	f.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			f.holds--
			f.cond.Broadcast()
			f.mu.Unlock()
		})
	}
}

// Close ends the feed: the consumer drains what is queued and Run
// returns; later appends are acked and dropped.
func (f *Feed) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Err returns the sink error that poisoned the feed, if any.
func (f *Feed) Err() error {
	if p := f.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// Enqueued returns the records appended so far.
func (f *Feed) Enqueued() int64 { return f.enqueued.Load() }

// Applied returns the records the sink has applied so far.
func (f *Feed) Applied() int64 { return f.applied.Load() }

// AppliedLegs returns the legs the sink has applied so far.
func (f *Feed) AppliedLegs() int64 { return f.appliedLegs.Load() }

// WaitApplied blocks until the applied watermark reaches target records,
// running queued batches through the sink itself whenever one may start (see
// stepLocked) — the backlog it waits for is usually a few records, cheaper
// to apply than to wait two goroutine wake-ups for. It gives up — returning
// false — at the deadline, or as soon as the feed is poisoned or closed,
// since the watermark can then no longer be relied on to advance; a batch it
// started is finished first.
func (f *Feed) WaitApplied(target int64, deadline time.Time) bool {
	if f.applied.Load() >= target {
		return true
	}
	f.waiters.Add(1)
	defer f.waiters.Add(-1)
	f.mu.Lock()
	defer f.mu.Unlock()
	var wake *time.Timer // armed only once there is something to sleep through
	for f.applied.Load() < target {
		if f.closed || f.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		if f.stepLocked(target - f.applied.Load()) {
			continue
		}
		if wake == nil {
			wake = time.AfterFunc(time.Until(deadline), func() {
				f.mu.Lock()
				f.cond.Broadcast()
				f.mu.Unlock()
			})
			defer wake.Stop()
		}
		f.cond.Wait()
	}
	return true
}
