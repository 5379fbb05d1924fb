// Live replica-group reconfiguration: the repl-side actuators of the
// autopilot's closed loop. SetQuorum changes sync-mode K on a running
// manager — raising it under ship-drop storms (when the one fast replica
// that satisfies a small K may be the only one still receiving records),
// lowering it back once the group heals. ReattachOrphans re-homes replicas
// whose ship pipeline can no longer make progress — chained standbys whose
// parent broke or died, and poisoned mirrors on live nodes — by wiping and
// re-seeding them directly under the group's current primary.
package repl

import (
	"fmt"
	"sort"
)

// Quorum returns the live sync-quorum K.
func (m *Manager) Quorum() int { return int(m.quorumK.Load()) }

// BaseQuorum returns the configured (baseline) K the autopilot lowers back
// to after a raise.
func (m *Manager) BaseQuorum() int { return m.cfg.QuorumAcks }

// SetQuorum changes the sync-quorum K on the running manager and returns
// the previous value. It is serialized under the manager's topology lock,
// so it linearizes with concurrent failover regroups and attaches: a
// commit observes either the old or the new K, never a torn mix.
//
//   - Raising K applies to future commits only; each commit still clamps
//     to its group's size, so raising K above the live standby count
//     degrades to all-replicas instead of wedging clients.
//   - Lowering K also sweeps the in-flight commit waits and lowers their
//     need, releasing waiters blocked behind a quorum the group can no
//     longer fill (e.g. mid-ship-drop) — without ever raising an
//     individual wait's already-clamped need.
func (m *Manager) SetQuorum(k int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("repl: quorum K must be >= 1, got %d", k)
	}
	m.mu.Lock()
	old := int(m.quorumK.Swap(int32(k)))
	if k < old {
		m.ackMu.Lock()
		for ack := range m.pending {
			ack.lowerNeed(int32(k))
		}
		m.ackMu.Unlock()
	}
	m.mu.Unlock()
	return old, nil
}

// GroupPrimaries lists the current primary of every replica group, sorted.
func (m *Manager) GroupPrimaries() []int {
	var out []int
	for p := range *m.groups.Load() {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// TargetReplicas is the configured per-shard redundancy (StandbysPerShard)
// — the N the autopilot heals groups back toward.
func (m *Manager) TargetReplicas() int { return m.cfg.StandbysPerShard }

// needsReseed reports whether r's ship pipeline is beyond in-place repair
// and the replica should be wiped and re-seeded directly under primary:
// a stale detach latch (a previous re-seed failed partway), a poisoned
// mirror, or a chained replica whose parent can no longer feed it.
func (m *Manager) needsReseed(g *group, r *replica, primary int) bool {
	if r.detached.Load() || r.broken() {
		return true
	}
	up := int(r.upstream.Load())
	if up == primary {
		return false
	}
	// Chained: orphaned when its parent is gone from the group, broken,
	// detached, or down — records relayed through the parent stop flowing,
	// so the child lags forever no matter how healthy it is itself.
	for _, p := range *g.replicas.Load() {
		if p == r || p.node != up {
			continue
		}
		return p.broken() || p.detached.Load() || m.c.NodeIsDown(p.node)
	}
	return true // parent absent entirely
}

// Orphans lists the replicas of primary's group that ReattachOrphans would
// re-seed right now: pipeline-dead replicas (see needsReseed) whose own
// node is up. A planning view with no side effects — dry-run mode uses it.
func (m *Manager) Orphans(primary int) []int {
	g := m.group(primary)
	if g == nil || g.failing.Load() {
		return nil
	}
	var out []int
	for _, r := range *g.replicas.Load() {
		if m.needsReseed(g, r, primary) && !m.c.NodeIsDown(r.node) {
			out = append(out, r.node)
		}
	}
	sort.Ints(out)
	return out
}

// ReattachOrphans re-homes every orphaned replica of primary's group as a
// fresh direct standby of the current primary: quiesce the old apply
// pipeline, wipe and re-seed the node under the route barrier, and start a
// new replica in its place. Returns the node ids healed; on an error the
// remaining orphans are left for the next pass (the detach latch makes a
// partial failure retryable).
func (m *Manager) ReattachOrphans(primary int) ([]int, error) {
	g := m.group(primary)
	if g == nil {
		return nil, fmt.Errorf("repl: dn%d has no replica group", primary)
	}
	if g.failing.Load() {
		return nil, fmt.Errorf("repl: dn%d's group has a failover in progress", primary)
	}
	var healed []int
	for _, r := range *g.replicas.Load() {
		if !m.needsReseed(g, r, primary) || m.c.NodeIsDown(r.node) {
			continue
		}
		if err := m.reattach(g, r, primary); err != nil {
			return healed, err
		}
		healed = append(healed, r.node)
	}
	return healed, nil
}

// reattach replaces one replica object with a freshly seeded direct
// replica of primary on the same node.
func (m *Manager) reattach(g *group, r *replica, primary int) error {
	// Quiesce: latch the detach flag (ship retry loops bail, the sink
	// skips), close the old feed (it drains acking-through and its consumer
	// exits), and wait out any batch already inside the sink. After this,
	// nothing applies records to the node.
	r.detached.Store(true)
	r.feed.Close()
	r.feed.Quiesce()()

	// Wipe and re-seed under the route barrier; the new replica registers
	// inside the barrier, so capture resumes exactly at the seed snapshot.
	_, err := m.attach(primary, r.link, func(onReady func(int)) error {
		return m.c.ReseedStandby(r.node, primary, onReady)
	})
	if err != nil {
		return err
	}

	// Retire the old replica object from the topology (the node now lives
	// in the group as the freshly attached replica).
	m.mu.Lock()
	removeCoW(&g.replicas, r)
	removeCoW(&g.direct, r)
	for _, p := range *g.replicas.Load() {
		removeCoW(&p.children, r)
	}
	m.mu.Unlock()
	return nil
}
