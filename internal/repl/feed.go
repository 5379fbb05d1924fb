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
// columnar HTAP mirror alike: an ordered queue of committed legs with a
// single batch consumer (Run), a quiesce gate that holds the consumer
// between batches, enqueued/applied watermarks, and a poison latch that
// stops applying while the queue keeps draining. Appends come from the
// commit tap under the source node's commit lock (or, for a chained
// standby, from its parent's consumer), so queue order is commit order.
type Feed struct {
	mu   sync.Mutex
	cond *sync.Cond
	legs []Leg
	idx  int // next leg to hand to the consumer
	// holds counts Quiesce calls not yet released; busy marks a batch
	// inside the sink. The consumer starts a batch only while holds == 0,
	// and Quiesce returns only once busy is false.
	holds  int
	busy   bool
	closed bool

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

// Run is the feed's single consumer: it hands the sink batches of up to
// max queued legs, in order, until the feed is closed and drained. The
// sink calls done after each leg it applied — that advances the applied
// watermark and acks the leg — and returns an error to poison the feed.
// Legs the sink did not get to, and every leg of a poisoned feed, are
// released unapplied, so a sync-mode commit never waits on a replica that
// cannot make progress. Batching is what makes a geo link viable: a row
// sink pays one shipped message per batch, not per commit.
func (f *Feed) Run(max int, sink func(batch []Leg, done func()) error) {
	for {
		batch := f.take(max)
		if batch == nil {
			return
		}
		n := 0
		if f.Err() == nil {
			err := sink(batch, func() {
				l := batch[n]
				n++
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
		for _, l := range batch[n:] {
			l.ack.ack()
		}
		f.release(len(batch))
	}
}

// take blocks until legs are queued and no quiesce is held, marks the
// consumer busy and returns the next batch; nil once the feed is closed
// and drained.
func (f *Feed) take(max int) []Leg {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if n := len(f.legs) - f.idx; n > 0 && f.holds == 0 {
			f.busy = true
			return f.legs[f.idx : f.idx+min(n, max)]
		} else if n == 0 && f.closed {
			return nil
		}
		f.cond.Wait()
	}
}

// release retires the n legs of the finished batch, dropping the backlog
// once the consumer has caught up.
func (f *Feed) release(n int) {
	f.mu.Lock()
	f.busy = false
	f.idx += n
	if f.idx == len(f.legs) {
		f.legs, f.idx = nil, 0
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Quiesce holds the consumer between batches: it returns once no batch is
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

// WaitApplied blocks until the applied watermark reaches target records.
// It gives up — returning false — at the deadline, or as soon as the feed
// is poisoned or closed, since the watermark can then no longer be relied
// on to advance.
func (f *Feed) WaitApplied(target int64, deadline time.Time) bool {
	if f.applied.Load() >= target {
		return true
	}
	f.waiters.Add(1)
	defer f.waiters.Add(-1)
	wake := time.AfterFunc(time.Until(deadline), func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	defer wake.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.applied.Load() < target {
		if f.closed || f.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		f.cond.Wait()
	}
	return true
}
