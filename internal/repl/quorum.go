package repl

import "sync/atomic"

// quorumAck tracks one committed leg's K-of-N acknowledgement across a
// replica group: done closes when the K-th replica acks. The need is
// mutable — a live quorum reconfiguration (Manager.SetQuorum) lowering K
// sweeps the pending acks and lowers their need, releasing waiters blocked
// behind a quorum the group can no longer fill. The acked/need pair is
// checked crosswise with sequentially consistent atomics (ack stores
// acked then reads need; lowerNeed stores need then reads acked), so at
// least one side observes a satisfied quorum — no lost wakeup — and the
// closed latch makes done close exactly once.
type quorumAck struct {
	acked  atomic.Int32
	need   atomic.Int32
	closed atomic.Bool
	done   chan struct{}
}

func newQuorumAck(k int) *quorumAck {
	q := &quorumAck{done: make(chan struct{})}
	q.need.Store(int32(k))
	if k <= 0 {
		q.close()
	}
	return q
}

// ack counts one replica's acknowledgement; the K-th closes done. A
// replica acks when it applied the leg — or when it is broken or the
// manager is closing, so a poisoned mirror only degrades commits until
// its queue drains instead of wedging every sync client behind it (the
// quorum's durability claim shrinks by one replica either way, which
// Status surfaces as Broken).
func (q *quorumAck) ack() {
	if q == nil {
		return // async mode: nobody waits on the leg
	}
	if q.acked.Add(1) >= q.need.Load() {
		q.close()
	}
}

// lowerNeed reduces the quorum this leg still waits for (a raise never
// applies retroactively — in-flight waits only ever get easier), closing
// done if the acks already collected now satisfy it.
func (q *quorumAck) lowerNeed(k int32) {
	for {
		cur := q.need.Load()
		if k >= cur {
			return
		}
		if q.need.CompareAndSwap(cur, k) {
			break
		}
	}
	if q.acked.Load() >= k {
		q.close()
	}
}

func (q *quorumAck) close() {
	if q.closed.CompareAndSwap(false, true) {
		close(q.done)
	}
}
