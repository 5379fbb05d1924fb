package repl

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// leg builds a one-record leg tagged with n (carried in Bucket).
func leg(n int) []cluster.WriteRec {
	return []cluster.WriteRec{{Op: cluster.OpReap, Bucket: n}}
}

// runFeed starts f's consumer with sink and returns a channel closed when
// Run returns.
func runFeed(f *Feed, max int, sink func(batch []Leg, done func()) error) <-chan struct{} {
	exited := make(chan struct{})
	go func() {
		f.Run(max, sink)
		close(exited)
	}()
	return exited
}

func waitExit(t *testing.T, exited <-chan struct{}) {
	t.Helper()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("feed consumer did not exit")
	}
}

// TestFeed covers the contract both replica kinds sit on: commit order is
// preserved across batches, Quiesce holds the consumer between batches,
// Close drains what is queued, and a poisoned feed stops applying but
// keeps draining — releasing every waiter.
func TestFeed(t *testing.T) {
	t.Run("order across batches", func(t *testing.T) {
		f := NewFeed()
		release := f.Quiesce() // queue everything before the first batch
		for i := 0; i < 10; i++ {
			f.Append(leg(i))
		}
		var order, sizes []int
		exited := runFeed(f, 4, func(batch []Leg, done func()) error {
			sizes = append(sizes, len(batch))
			for _, l := range batch {
				order = append(order, l.Recs[0].Bucket)
				done()
			}
			return nil
		})
		release()
		if !f.WaitApplied(10, time.Now().Add(5*time.Second)) {
			t.Fatalf("applied %d of 10 records", f.Applied())
		}
		f.Close()
		waitExit(t, exited)
		for i, n := range order {
			if n != i {
				t.Fatalf("legs applied in order %v", order)
			}
		}
		if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
			t.Errorf("batch sizes %v, want [4 4 2]", sizes)
		}
		if f.Enqueued() != 10 || f.Applied() != 10 || f.AppliedLegs() != 10 || f.Err() != nil {
			t.Errorf("enqueued %d applied %d legs %d err %v", f.Enqueued(), f.Applied(), f.AppliedLegs(), f.Err())
		}
	})

	t.Run("quiesce holds the consumer between batches", func(t *testing.T) {
		f := NewFeed()
		entered, proceed := make(chan struct{}), make(chan struct{})
		exited := runFeed(f, 4, func(batch []Leg, done func()) error {
			if batch[0].Recs[0].Bucket == 0 {
				close(entered)
				<-proceed
			}
			for range batch {
				done()
			}
			return nil
		})
		f.Append(leg(0))
		<-entered

		// A batch is inside the sink: Quiesce must wait it out.
		quiesced := make(chan func(), 1)
		go func() { quiesced <- f.Quiesce() }()
		select {
		case <-quiesced:
			t.Fatal("Quiesce returned while a batch was inside the sink")
		case <-time.After(20 * time.Millisecond):
		}
		close(proceed)
		release := <-quiesced
		if f.Applied() != 1 {
			t.Fatalf("Quiesce returned with %d records applied, want the in-flight batch finished", f.Applied())
		}

		// Held: new legs queue but no batch starts.
		f.Append(leg(1))
		if f.WaitApplied(2, time.Now().Add(20*time.Millisecond)) {
			t.Fatal("a batch started while the feed was quiesced")
		}
		release()
		release() // releasing twice must not release someone else's hold
		if !f.WaitApplied(2, time.Now().Add(5*time.Second)) {
			t.Fatal("consumer did not resume after release")
		}
		f.Close()
		waitExit(t, exited)
	})

	t.Run("close drains", func(t *testing.T) {
		f := NewFeed()
		release := f.Quiesce()
		for i := 0; i < 5; i++ {
			f.Append(leg(i))
		}
		f.Close()
		exited := runFeed(f, 2, func(batch []Leg, done func()) error {
			for range batch {
				done()
			}
			return nil
		})
		release()
		waitExit(t, exited)
		if f.Applied() != 5 {
			t.Errorf("closed feed applied %d of 5 queued records", f.Applied())
		}
		// Nobody consumes a closed feed: a late leg is acked, not queued.
		late := newQuorumAck(1)
		f.append(leg(5), late)
		select {
		case <-late.done:
		default:
			t.Error("leg appended after Close was not acked")
		}
		if f.Enqueued() != 5 {
			t.Errorf("closed feed enqueued a late leg (%d records)", f.Enqueued())
		}
	})

	t.Run("poison stops apply but not draining", func(t *testing.T) {
		f := NewFeed()
		release := f.Quiesce()
		acks := make([]*quorumAck, 6)
		for i := range acks {
			acks[i] = newQuorumAck(1)
			f.append(leg(i), acks[i])
		}
		boom := errors.New("mirror diverged")
		calls := 0
		exited := runFeed(f, 2, func(batch []Leg, done func()) error {
			calls++
			for _, l := range batch {
				if l.Recs[0].Bucket == 2 {
					return boom
				}
				done()
			}
			return nil
		})
		release()
		f.Close()
		waitExit(t, exited)
		if !errors.Is(f.Err(), boom) {
			t.Fatalf("Err() = %v, want %v", f.Err(), boom)
		}
		if f.Applied() != 2 || calls != 2 {
			t.Errorf("applied %d records in %d sink calls, want 2 and 2 (nothing after the poisoning batch)", f.Applied(), calls)
		}
		for i, a := range acks {
			select {
			case <-a.done:
			default:
				t.Errorf("leg %d of the poisoned feed was never released", i)
			}
		}
		start := time.Now()
		if f.WaitApplied(6, start.Add(5*time.Second)) || time.Since(start) > time.Second {
			t.Error("WaitApplied on a poisoned feed did not give up at once")
		}
	})
}

// TestFeedWaiterHelps: whoever waits for the watermark runs batches itself.
// With no consumer goroutine at all the wait still ends, in queue order and
// one batch at a time; it takes only what it needs, leaves the rest queued,
// and stays out while a Quiesce holds the feed — timing out, as a freshness
// gate expects of a paused replica.
func TestFeedWaiterHelps(t *testing.T) {
	t.Run("no consumer goroutine", func(t *testing.T) {
		f := NewFeed()
		var order []int
		inSink := 0
		f.serve(4, func(batch []Leg, done func()) error {
			if inSink++; inSink > 1 {
				t.Error("two batches in the sink at once")
			}
			for _, l := range batch {
				order = append(order, l.Recs[0].Bucket)
				done()
			}
			inSink--
			return nil
		})
		for i := 0; i < 10; i++ {
			f.Append(leg(i))
		}
		if !f.WaitApplied(6, time.Now().Add(5*time.Second)) {
			t.Fatalf("WaitApplied(6) gave up with %d applied and nobody else to apply", f.Applied())
		}
		// Batches of 4, and the second stops at the leg that reaches 6.
		if got := f.Applied(); got != 6 {
			t.Fatalf("the waiter applied %d records, want exactly the 6 it waited for", got)
		}
		if !f.WaitApplied(10, time.Now().Add(5*time.Second)) {
			t.Fatalf("WaitApplied(10) gave up with %d applied", f.Applied())
		}
		for i, n := range order {
			if n != i {
				t.Fatalf("legs applied in order %v", order)
			}
		}
		if len(order) != 10 {
			t.Fatalf("applied %d legs, want 10", len(order))
		}
	})

	t.Run("consumer held behind a quiesce", func(t *testing.T) {
		f := NewFeed()
		release := f.Quiesce()
		applied := make(chan int, 16)
		exited := runFeed(f, 2, func(batch []Leg, done func()) error {
			for _, l := range batch {
				applied <- l.Recs[0].Bucket
				done()
			}
			return nil
		})
		for i := 0; i < 6; i++ {
			f.Append(leg(i))
		}
		// Held: neither the consumer nor a waiter may start a batch, and the
		// wait times out (SetApplyPaused relies on exactly this).
		start := time.Now()
		if f.WaitApplied(1, start.Add(30*time.Millisecond)) {
			t.Fatal("WaitApplied succeeded while the feed was quiesced")
		}
		if f.Applied() != 0 || time.Since(start) > 2*time.Second {
			t.Fatalf("quiesced feed: %d applied, wait took %v", f.Applied(), time.Since(start))
		}
		release()
		// Released: consumer and waiter may both run batches now; whoever
		// does, order holds and the wait ends.
		if !f.WaitApplied(6, time.Now().Add(5*time.Second)) {
			t.Fatalf("after release: %d of 6 applied", f.Applied())
		}
		for want := 0; want < 6; want++ {
			if got := <-applied; got != want {
				t.Fatalf("leg %d applied at position %d", got, want)
			}
		}
		f.Close()
		waitExit(t, exited)
	})

	t.Run("waiters and consumer together", func(t *testing.T) {
		// Many waiters, one consumer, a sink that checks it is never entered
		// twice at once and sees legs in order. Run under -race.
		f := NewFeed()
		var busy, next atomic.Int64
		exited := runFeed(f, 3, func(batch []Leg, done func()) error {
			if busy.Add(1) != 1 {
				t.Error("two batches in the sink at once")
			}
			for _, l := range batch {
				if got := int64(l.Recs[0].Bucket); got != next.Load() {
					t.Errorf("leg %d applied, want %d", got, next.Load())
				}
				next.Add(1)
				done()
			}
			busy.Add(-1)
			return nil
		})
		const legs = 400
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for target := int64(1); target <= legs; target += 7 {
					if !f.WaitApplied(target, time.Now().Add(10*time.Second)) {
						t.Errorf("WaitApplied(%d) gave up at %d", target, f.Applied())
						return
					}
				}
			}()
		}
		for i := 0; i < legs; i++ {
			f.Append(leg(i))
		}
		wg.Wait()
		if !f.WaitApplied(legs, time.Now().Add(10*time.Second)) {
			t.Fatalf("applied %d of %d", f.Applied(), legs)
		}
		f.Close()
		waitExit(t, exited)
	})
}
