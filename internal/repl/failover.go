package repl

import (
	"fmt"
	"time"

	"repro/internal/transport"
)

// FailoverReport summarizes one promotion.
type FailoverReport struct {
	Primary   int
	Standby   int   // the promoted replica
	Survivors []int // replicas reparented under the new primary
	Buckets   int   // bucket ownerships flipped to the standby
	Replayed  int   // in-doubt 2PC legs committed during replay
	Elapsed   time.Duration
}

// Failover promotes one replica of primary's group:
//
//  1. fence — mark the primary down, so new commits touching it abort;
//  2. settle — wait out commits that raced the fence (they have either
//     appended to the logs or aborted once this returns);
//  3. replay — resolve the primary's prepared 2PC legs against the GTM
//     outcome log, shipping decided commits' stashed records;
//  4. drain — wait for a direct, unbroken, reachable replica to reach
//     zero lag: the promotion candidate;
//  5. verify — compare per-table digests of the primary's partitions and
//     the candidate mirror (zero committed-transaction loss);
//  6. promote — flip every bucket the primary owned to the candidate
//     under the route barrier, retire the primary and count the failover
//     (Failovers), all in one step;
//  7. regroup — reparent the surviving replicas (including the
//     candidate's own chained standbys, which become direct) under the
//     new primary, so the group keeps N-1 replicas and a second failover
//     can follow immediately.
//
// On an error in any phase the primary stays fenced and the group stays
// latched; the cluster keeps serving what it can (replicated reads, other
// shards, replica reads) but the shard needs operator attention.
func (m *Manager) Failover(primary int) (FailoverReport, error) {
	g := m.group(primary)
	if g == nil {
		return FailoverReport{}, fmt.Errorf("repl: dn%d has no standby", primary)
	}
	if !g.failing.CompareAndSwap(false, true) {
		return FailoverReport{}, fmt.Errorf("repl: failover of dn%d already in progress", primary)
	}
	start := time.Now()

	m.c.SetDataNodeDown(primary, true)
	if err := m.c.WaitCommitsSettled(primary, m.cfg.DrainTimeout); err != nil {
		return FailoverReport{}, fmt.Errorf("repl: failover of dn%d: %w", primary, err)
	}
	replayed, _ := m.c.ResolveInDoubt(primary)

	cand, err := m.drainCandidate(g)
	if err != nil {
		return FailoverReport{}, fmt.Errorf("repl: failover of dn%d: %w", primary, err)
	}

	for _, name := range m.c.DistributedTableNames() {
		want, err := m.c.PartitionDigest(name, primary, primary)
		if err != nil {
			return FailoverReport{}, err
		}
		got, err := m.c.PartitionDigest(name, cand.node, primary)
		if err != nil {
			return FailoverReport{}, err
		}
		if want != got {
			return FailoverReport{}, fmt.Errorf("repl: table %q mirror mismatch before promotion (primary %d rows, standby %d rows)", name, want.Rows, got.Rows)
		}
	}

	flipped, err := m.c.PromoteStandby(primary, cand.node, func() { m.failovers.Add(1) })
	if err != nil {
		return FailoverReport{}, err
	}
	survivors := m.regroup(g, primary, cand)
	cand.feed.Close()
	g.failing.Store(false)
	return FailoverReport{
		Primary:   primary,
		Standby:   cand.node,
		Survivors: survivors,
		Buckets:   flipped,
		Replayed:  replayed,
		Elapsed:   time.Since(start),
	}, nil
}

// drainCandidate waits for a promotable replica: direct (a chained
// standby's mirror trails its parent, not the primary), unbroken,
// reachable, and at zero lag. The first to drain wins — with geo links
// that is naturally the closest replica.
func (m *Manager) drainCandidate(g *group) (*replica, error) {
	deadline := time.Now().Add(m.cfg.DrainTimeout)
	for {
		viable := 0
		var brokenErr error
		for _, r := range *g.direct.Load() {
			if r.detached.Load() {
				continue
			}
			if err := r.feed.Err(); err != nil {
				if brokenErr == nil {
					brokenErr = fmt.Errorf("standby dn%d diverged, refusing promotion: %w", r.node, err)
				}
				continue
			}
			if m.c.NodeIsDown(r.node) {
				continue
			}
			viable++
			if r.lag() == 0 {
				return r, nil
			}
		}
		if viable == 0 {
			if brokenErr != nil {
				return nil, brokenErr
			}
			return nil, fmt.Errorf("no viable standby to promote")
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("log drain timed out with %d records unapplied on the closest standby", m.minLag(g))
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (m *Manager) minLag(g *group) int64 {
	min := int64(-1)
	for _, r := range *g.direct.Load() {
		if r.broken() || m.c.NodeIsDown(r.node) {
			continue
		}
		if l := r.lag(); min < 0 || l < min {
			min = l
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// regroup rewires the group under the promoted replica: cand leaves the
// replica set, its chained children become direct standbys of the new
// primary, every surviving replica re-targets its ship link (re-applying
// its configured geo latency to the new leg), and the groups map re-keys
// from the dead primary to the new one. Returns the surviving replicas'
// node ids.
func (m *Manager) regroup(g *group, oldPrimary int, cand *replica) []int {
	m.mu.Lock()
	defer m.mu.Unlock()

	newPrimary := cand.node
	var survivors []int

	reps := *g.replicas.Load()
	nextReps := make([]*replica, 0, len(reps))
	for _, r := range reps {
		if r != cand {
			nextReps = append(nextReps, r)
		}
	}
	g.replicas.Store(&nextReps)

	direct := *g.direct.Load()
	nextDirect := make([]*replica, 0, len(direct))
	for _, r := range direct {
		if r != cand {
			nextDirect = append(nextDirect, r)
		}
	}
	// The candidate's chained standbys already mirror its partitions; when
	// it becomes primary they become its direct standbys, fed by the
	// commit tap instead of its (now closed) feed.
	nextDirect = append(nextDirect, *cand.children.Load()...)
	empty := []*replica{}
	cand.children.Store(&empty)
	g.direct.Store(&nextDirect)

	for _, r := range nextDirect {
		r.upstream.Store(int64(newPrimary))
		if r.link != (transport.Latency{}) {
			m.fab.SetLinkLatency(transport.DN(newPrimary), transport.DN(r.node), r.link)
		}
	}
	for _, r := range nextReps {
		survivors = append(survivors, r.node)
	}

	g.primary.Store(int64(newPrimary))
	old := *m.groups.Load()
	next := make(map[int]*group, len(old))
	for k, v := range old {
		if k != oldPrimary {
			next[k] = v
		}
	}
	// A group with no survivors (N=1) dissolves: the promoted node runs
	// unreplicated until a new standby is attached.
	if len(nextReps) > 0 {
		next[newPrimary] = g
	}
	m.groups.Store(&next)
	return survivors
}

// watch is the failure detector: every ProbeInterval it probes each
// group's primary and fails over any seen down failAfterMisses probes in
// a row.
func (m *Manager) watch() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.ProbeInterval)
	defer ticker.Stop()
	misses := map[int]int{}
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		for primary, g := range *m.groups.Load() {
			if g.failing.Load() {
				continue
			}
			if !m.c.NodeIsDown(primary) {
				misses[primary] = 0
				continue
			}
			misses[primary]++
			if misses[primary] >= failAfterMisses {
				misses[primary] = 0
				// Best effort: an error leaves the group latched and the
				// primary fenced; Status surfaces the broken state.
				_, _ = m.Failover(primary)
			}
		}
	}
}
