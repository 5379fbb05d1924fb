package repl

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/transport"
)

// replica is one standby mirror inside a replica group.
type replica struct {
	node int // the standby's data-node id
	g    *group

	// upstream is the node this replica ships from: the group primary for
	// a direct replica, the parent standby for a chained one. A failover
	// reparents survivors by storing the promoted node here; the sink
	// re-reads it per send, so retries migrate to the new link.
	upstream atomic.Int64
	// link is the WAN latency configured for this replica's ship link,
	// re-applied to the new upstream link when a failover reparents it.
	link transport.Latency

	// feed queues the legs this replica still has to apply; its poison
	// latch is the replica's broken state (an apply error — mirror
	// divergence — leaves it neither readable nor promotable, while the
	// queue keeps draining and acking so sync-mode commits are released),
	// and a chained attach quiesces it so base = parent.base +
	// parent.applied is consistent with the seed snapshot.
	feed *Feed
	// base is the group log offset at seed time: records appended before
	// base were part of the seed snapshot, so lag counts only what this
	// replica still has to apply.
	base int64

	batches atomic.Int64 // ReplShip batches delivered to this replica

	// children are chained standbys fed by this replica's sink
	// (copy-on-write under Manager.mu).
	children atomic.Pointer[[]*replica]

	// detached latches when a self-healing re-seed takes this replica
	// object out of service (its node re-enrolls under a fresh replica):
	// the sink stops applying — and ship retry loops bail — so the node's
	// partitions are quiescent while the cluster wipes and re-seeds them.
	// A detached replica acks through, like a broken one.
	detached atomic.Bool
}

func newReplica(g *group, link transport.Latency) *replica {
	r := &replica{node: -1, g: g, link: link, feed: NewFeed()}
	empty := []*replica{}
	r.children.Store(&empty)
	return r
}

// lag is the records committed on the group's primary that this replica
// has not applied yet (its distance from the group log's head).
func (r *replica) lag() int64 { return r.g.appended.Load() - r.base - r.feed.Applied() }

func (r *replica) broken() bool { return r.feed.Err() != nil }

// group is one shard's replica group: the current primary plus every
// standby mirroring it, directly or through a chain.
type group struct {
	// primary is the current primary node; failover re-keys the group
	// under the promoted replica.
	primary atomic.Int64
	// appended counts records captured from the (current) primary over
	// the group's lifetime — the log head every replica measures lag
	// against. It survives failovers: the promoted primary continues the
	// same stream.
	appended atomic.Int64
	// replicas is every replica of the group; direct is the subset fed
	// straight from the primary's commit tap (chained replicas are fed by
	// their parent's sink). Both copy-on-write under Manager.mu.
	replicas atomic.Pointer[[]*replica]
	direct   atomic.Pointer[[]*replica]
	// failing latches while a failover runs so it runs exactly once.
	failing atomic.Bool
	// rr is the read-replica round-robin cursor.
	rr atomic.Int64
}

func newGroup(primary int) *group {
	g := &group{}
	g.primary.Store(int64(primary))
	empty := []*replica{}
	g.replicas.Store(&empty)
	g.direct.Store(&empty)
	return g
}

func (m *Manager) group(primary int) *group { return (*m.groups.Load())[primary] }

// findReplica locates node as a standby in any group, returning its group
// and replica (nil, nil if absent).
func (m *Manager) findReplica(node int) (*group, *replica) {
	for _, g := range *m.groups.Load() {
		for _, r := range *g.replicas.Load() {
			if r.node == node {
				return g, r
			}
		}
	}
	return nil, nil
}

// appendCoW appends r to a copy-on-write replica slice. Caller holds
// Manager.mu.
func appendCoW(p *atomic.Pointer[[]*replica], r *replica) {
	next := append(slices.Clip(*p.Load()), r)
	p.Store(&next)
}

// removeCoW removes r from a copy-on-write replica slice (no-op when
// absent). Caller holds Manager.mu.
func removeCoW(p *atomic.Pointer[[]*replica], r *replica) {
	next := slices.DeleteFunc(slices.Clone(*p.Load()), func(x *replica) bool { return x == r })
	p.Store(&next)
}

// ReplicaSpec describes one replica to attach.
type ReplicaSpec struct {
	// Upstream is the node to mirror: a primary (direct replica) or an
	// existing standby (chained, standby-of-standby replica).
	Upstream int
	// Link, when non-zero, shapes the replica's ship link — the modeled
	// geo (WAN) latency of this leg of the group.
	Link transport.Latency
}

// AttachStandby provisions one direct standby for upstream over a LAN
// link (single-standby compatibility wrapper around AttachReplica).
func (m *Manager) AttachStandby(upstream int) (int, error) {
	return m.AttachReplica(ReplicaSpec{Upstream: upstream})
}

// AttachReplica provisions a standby per spec: the cluster seeds a new
// node with a physical mirror under the route barrier, and the replica's
// log starts capturing inside that same barrier — no committed write can
// fall between the seed snapshot and the first shipped record. Chained
// replicas (spec.Upstream names an existing standby) seed from the parent
// mirror while the parent's feed is quiesced, and are fed by it
// afterwards.
func (m *Manager) AttachReplica(spec ReplicaSpec) (int, error) {
	return m.attach(spec.Upstream, spec.Link, func(onReady func(int)) error {
		_, err := m.c.AddStandby(spec.Upstream, onReady)
		return err
	})
}

// ReenrollStandby returns a retired primary to service as a fresh standby
// of upstream (typically the successor promoted in its place): the
// cluster wipes its partitions, re-seeds them under the route barrier,
// and shipping resumes from the seed snapshot — closing the failover
// lifecycle loop, since the group regains its configured redundancy
// without provisioning a new node.
func (m *Manager) ReenrollStandby(node, upstream int) error {
	_, err := m.attach(upstream, transport.Latency{}, func(onReady func(int)) error {
		return m.c.ReenrollStandby(node, upstream, onReady)
	})
	return err
}

// attach is the shared enrollment path: resolve the upstream into a group
// (joining a parent replica for chains, or creating/joining the primary's
// group), run the cluster-side enrollment with an onReady that registers
// the replica inside the barrier, then start its feed's consumer.
func (m *Manager) attach(up int, link transport.Latency, enroll func(onReady func(int)) error) (int, error) {
	g := m.group(up)
	var parent *replica
	if g == nil {
		g, parent = m.findReplica(up)
	}
	if g != nil && g.failing.Load() {
		return 0, fmt.Errorf("repl: dn%d's group has a failover in progress", up)
	}
	if parent != nil && parent.broken() {
		return 0, fmt.Errorf("repl: cannot chain off diverged standby dn%d: %w", up, parent.feed.Err())
	}
	if g == nil {
		g = newGroup(up)
	}
	r := newReplica(g, link)

	if parent != nil {
		// Quiesce the parent's feed: base must equal exactly what the seed
		// snapshot contains, and the parent must not advance (or start
		// forwarding) mid-seed.
		defer parent.feed.Quiesce()()
	}

	err := enroll(func(standbyID int) {
		// Runs under the cluster's route barrier.
		r.node = standbyID
		r.upstream.Store(int64(up))
		m.mu.Lock()
		defer m.mu.Unlock()
		if parent != nil {
			r.base = parent.base + parent.feed.Applied()
			appendCoW(&g.replicas, r)
			appendCoW(&parent.children, r)
			return
		}
		// Join the registered group if a concurrent attach won the race
		// to create it.
		if cur := (*m.groups.Load())[up]; cur != nil {
			g = cur
			r.g = g
		} else {
			m.storeGroupLocked(up, g)
		}
		r.base = g.appended.Load()
		appendCoW(&g.replicas, r)
		appendCoW(&g.direct, r)
	})
	if err != nil {
		return 0, err
	}
	if link != (transport.Latency{}) {
		m.fab.SetLinkLatency(transport.DN(up), transport.DN(r.node), link)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		r.feed.Run(maxShipBatch, func(batch []Leg, done func()) error { return m.apply(r, batch, done) })
	}()
	return r.node, nil
}

// storeGroupLocked publishes a new group under primary (caller holds
// Manager.mu).
func (m *Manager) storeGroupLocked(primary int, g *group) {
	old := *m.groups.Load()
	next := make(map[int]*group, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[primary] = g
	m.groups.Store(&next)
}

// ReadReplica returns a replica of primary's shard that is currently safe
// to read (unbroken, zero lag), round-robining across the group so read
// offload spreads over all N replicas. It is the oracle wired into
// cluster.SetStandbyReads — consulted under the route lock on every
// SELECT, hence atomics only.
func (m *Manager) ReadReplica(primary int) (int, bool) {
	g := m.group(primary)
	if g == nil {
		return 0, false
	}
	reps := *g.replicas.Load()
	n := len(reps)
	if n == 0 {
		return 0, false
	}
	start := int(g.rr.Add(1) % int64(n))
	if start < 0 {
		start += n
	}
	for i := 0; i < n; i++ {
		r := reps[(start+i)%n]
		if !r.broken() && !r.detached.Load() && r.lag() == 0 {
			return r.node, true
		}
	}
	return 0, false
}

// Replicas returns the node ids of primary's replica group (direct and
// chained), in attach order.
func (m *Manager) Replicas(primary int) []int {
	g := m.group(primary)
	if g == nil {
		return nil
	}
	var out []int
	for _, r := range *g.replicas.Load() {
		out = append(out, r.node)
	}
	return out
}
