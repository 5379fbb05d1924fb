// Package repl implements per-shard replica groups: commit-log shipping
// from each primary data node to N standbys — direct or chained
// (standby-of-standby) — sync (quorum K-of-N ack) or async, over latency-
// shaped geo links, with automatic failover, post-failover re-attachment
// of survivors, re-enrollment of retired primaries, and read-replica
// routing across the whole group.
//
// The cluster layer provides the primitives (see internal/cluster
// standby.go): a commit tap that hands every committed transaction leg's
// write records to this package in commit order, a standby seeding barrier
// (AddStandby / ReenrollStandby), commit slots that let a failover drain
// in-flight commits to a definite log, and the 256-bucket routing flip
// (PromoteStandby). On top of those the Manager keeps one Feed (feed.go)
// per replica, batches shipped records per link, exposes
// per-replica lag, serves reads round-robin from synced replicas, and —
// on a dead primary — replays the log tail, verifies a mirror, promotes
// it, and reparents the surviving replicas under the new primary, losing
// no committed transaction.
package repl

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport"
)

// Mode selects how commit acknowledgement relates to shipping.
type Mode int

const (
	// ModeAsync acknowledges the client at primary commit; records ship in
	// the background and replicas may lag.
	ModeAsync Mode = iota
	// ModeSync blocks the committing client until its leg is applied on
	// QuorumAcks replicas, degrading to async after SyncTimeout so a stuck
	// or partitioned replica cannot wedge commits.
	ModeSync
)

func (m Mode) String() string {
	if m == ModeSync {
		return "sync"
	}
	return "async"
}

// Config tunes the replication subsystem. The zero value is a sensible
// async, one-standby-per-shard setup with manual failover.
type Config struct {
	// Mode is the shipping mode (async by default).
	Mode Mode
	// QuorumAcks is K in sync mode's K-of-N commit ack: the client is
	// released once K replicas of the shard applied the leg (default 1,
	// clamped to the group size). K=1 acks at the fastest replica — a
	// LAN standby hides a WAN one; K=N waits for the slowest link.
	QuorumAcks int
	// SyncTimeout bounds the sync-mode commit ack wait (default 2s); on
	// expiry the commit returns anyway — it is durable on the primary.
	SyncTimeout time.Duration
	// DrainTimeout bounds each failover phase: commit-slot settle and log
	// drain (default 5s).
	DrainTimeout time.Duration
	// AutoFailover runs a failure detector that promotes a standby of any
	// primary observed down failAfterMisses probes in a row.
	AutoFailover bool
	// ProbeInterval is the detector's probe period (default 5ms).
	ProbeInterval time.Duration
	// StandbysPerShard is how many direct standbys core.EnableHA attaches
	// per primary (default 1). Attach more, or chains, with AttachReplica.
	StandbysPerShard int
	// Links optionally gives the geo latency for each standby index that
	// EnableHA attaches (Links[i] shapes standby i's ship link); shorter
	// than StandbysPerShard means the remainder are LAN links.
	Links []transport.Latency
	// ReadMode routes reads to synced replicas (off by default).
	ReadMode bool
}

const (
	// maxShipBatch bounds how many queued legs ship as one ReplShip
	// message. Batching amortizes link latency: a replica behind a WAN
	// link catches up at one round trip per batch.
	maxShipBatch = 64
	// failAfterMisses is the detector's consecutive-down-probe threshold.
	failAfterMisses = 2
)

func (cfg Config) withDefaults() Config {
	if cfg.QuorumAcks <= 0 {
		cfg.QuorumAcks = 1
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 5 * time.Millisecond
	}
	if cfg.StandbysPerShard <= 0 {
		cfg.StandbysPerShard = 1
	}
	return cfg
}

// Manager owns the cluster's replica groups. It installs itself as the
// cluster's commit tap and (when configured) as the standby-read oracle;
// create it with NewManager and tear it down with Close.
type Manager struct {
	c   *cluster.Cluster
	cfg Config
	fab *transport.Fabric

	mu     sync.Mutex                     // serializes group/replica topology writes
	groups atomic.Pointer[map[int]*group] // current primary -> group, copy-on-write

	// quorumK is the live sync-quorum K, initialized from cfg.QuorumAcks
	// and changed at runtime by SetQuorum (see reconfig.go).
	quorumK atomic.Int32
	// pending registers sync acks whose commit wait has not finished, so a
	// live K lowering can sweep them and release blocked waiters.
	ackMu   sync.Mutex
	pending map[*quorumAck]struct{}

	shipped   atomic.Int64 // records applied on replicas, lifetime
	failovers atomic.Int64

	// Sync commit ack telemetry: waits served, waits that hit SyncTimeout
	// (degraded to async), and total wait time — the ack-latency signal
	// the autopilot's quorum policy consumes.
	ackWaits    atomic.Int64
	ackTimeouts atomic.Int64
	ackWaitNs   atomic.Int64

	detach    func() // commit-tap unsubscribe
	wg        sync.WaitGroup
	stop      chan struct{}
	closeOnce sync.Once
}

// NewManager wires replication into the cluster: the commit tap starts
// capturing write records and, if cfg.ReadMode says so, synced replicas
// start serving reads. Replicas are added with AttachReplica (or the
// single-standby AttachStandby).
func NewManager(c *cluster.Cluster, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{c: c, cfg: cfg, fab: c.Fabric(), stop: make(chan struct{}), pending: map[*quorumAck]struct{}{}}
	empty := map[int]*group{}
	m.groups.Store(&empty)
	m.quorumK.Store(int32(cfg.QuorumAcks))
	m.detach = c.AddCommitTap(m)
	if cfg.ReadMode {
		c.SetStandbyReads(m.ReadReplica)
	}
	if cfg.AutoFailover {
		m.wg.Add(1)
		go m.watch()
	}
	return m
}

// Config returns the manager's effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// Close detaches the tap and read routing, stops the detector and apply
// loops (draining queued entries), and waits for them.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		m.detach()
		m.c.SetStandbyReads(nil)
		close(m.stop)
		for _, g := range *m.groups.Load() {
			for _, r := range *g.replicas.Load() {
				r.feed.Close()
			}
		}
		m.wg.Wait()
	})
}

// Committed implements cluster.CommitTap. It runs under the committing
// node's commit lock, so it only enqueues — fanning the leg out to every
// direct replica of the node's group; in sync mode the returned wait
// blocks the client (after all locks are released) until K replicas
// applied the leg or SyncTimeout passed.
func (m *Manager) Committed(dnID int, recs []cluster.WriteRec) func() {
	g := m.group(dnID)
	if g == nil {
		return nil
	}
	g.appended.Add(int64(len(recs)))
	direct := *g.direct.Load()
	if len(direct) == 0 {
		return nil
	}
	var ack *quorumAck
	if m.cfg.Mode == ModeSync {
		// K is the live quorum (SetQuorum), clamped per commit to the group
		// size: asking for more acks than the group has replicas degrades
		// to all-replicas instead of wedging the client.
		k := int(m.quorumK.Load())
		if k < 1 {
			k = 1
		}
		if n := len(*g.replicas.Load()); k > n {
			k = n
		}
		ack = newQuorumAck(k)
		m.ackMu.Lock()
		m.pending[ack] = struct{}{}
		m.ackMu.Unlock()
	}
	for _, r := range direct {
		r.feed.append(recs, ack)
	}
	if ack == nil {
		return nil
	}
	timeout := m.cfg.SyncTimeout
	return func() {
		start := time.Now()
		// Stopped on return: an ack arriving in microseconds must not
		// leave a timer alive for the rest of SyncTimeout.
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-ack.done:
		case <-timer.C:
			// Degrade to async: the commit is durable on the primary and
			// stays queued for the replicas; only the quorum ack is lost.
			m.ackTimeouts.Add(1)
		}
		m.ackWaits.Add(1)
		m.ackWaitNs.Add(time.Since(start).Nanoseconds())
		m.ackMu.Lock()
		delete(m.pending, ack)
		m.ackMu.Unlock()
	}
}

// apply is the row sink of one replica's feed: it ships the batch over
// the replica's current upstream link and applies it leg by leg, each as
// one replica-local transaction, forwarding every applied leg to chained
// children. A transport failure is retried until the fabric heals — the
// records are durable upstream and lag simply grows, taking the replica out
// of read rotation and degrading sync-mode commits — whether it loses the
// ReplShip message or cuts the replica off between a batch's delivery and
// its apply: the legs the replica could not commit are shipped again, so a
// partition looks the same (ReplShip drops, growing lag) whichever side of
// the delivery it lands on. Any other apply error poisons the feed (the
// mirror can no longer be trusted); the feed keeps draining — and acking —
// so sync-mode commits are still released.
func (m *Manager) apply(r *replica, batch []Leg, done func()) error {
	for {
		if r.detached.Load() || !m.ship(r, batch) {
			return nil
		}
		r.batches.Add(1)
		for len(batch) > 0 {
			l := batch[0]
			if err := m.c.ApplyStandbyRecs(r.node, l.Recs); err != nil {
				// ErrNodeDown rolled the leg's transaction back whole. It is
				// the fabric's doing, and transient, unless the node is down
				// for a reason of its own.
				dead := m.c.NodeIsDown(r.node) && !m.fab.Unreachable(transport.DN(r.node))
				if !errors.Is(err, cluster.ErrNodeDown) || dead {
					return err
				}
				break
			}
			m.shipped.Add(int64(len(l.Recs)))
			for _, child := range *r.children.Load() {
				child.feed.append(l.Recs, l.ack)
			}
			done()
			batch = batch[1:]
		}
		if len(batch) == 0 || !m.retryPause(r) {
			return nil
		}
	}
}

// ship delivers one batch over the replica's upstream link as a single
// ReplShip message, retrying transport failures until delivery or manager
// close. The upstream is re-read on every retry, so a replica reparented
// by a failover mid-retry migrates to the promoted primary's link.
// Returns false only when retrying stopped before delivery (retryPause).
func (m *Manager) ship(r *replica, batch []Leg) bool {
	payload := 0
	for _, l := range batch {
		payload += recsPayload(l.Recs)
	}
	for {
		up := int(r.upstream.Load())
		// Send only fails with ErrUnreachable variants (drop fault, severed
		// link, partition) — all transient from the log's point of view.
		if m.fab.Send(transport.DN(up), transport.DN(r.node), transport.ReplShip, payload) == nil {
			return true
		}
		if !m.retryPause(r) {
			return false
		}
	}
}

// retryPause backs off before the replica's sink retries a transient
// failure. It returns false when retrying must stop instead: the manager
// closed, or a re-seed is taking this replica object out of service and its
// feed has to quiesce promptly.
func (m *Manager) retryPause(r *replica) bool {
	select {
	case <-m.stop:
		return false
	case <-time.After(200 * time.Microsecond):
		return !r.detached.Load()
	}
}

// recsPayload estimates the wire size of a shipped leg so bandwidth-shaped
// fabrics charge replication streams like the bulk transfers they are.
func recsPayload(recs []cluster.WriteRec) int {
	n := 0
	for _, r := range recs {
		n += (len(r.Row) + len(r.Old)) * 8
	}
	return n
}

// Synced reports whether primary's replica group is fully caught up:
// at least one replica, every unbroken replica at zero lag, and at least
// one unbroken replica.
func (m *Manager) Synced(primary int) bool {
	g := m.group(primary)
	if g == nil {
		return false
	}
	reps := *g.replicas.Load()
	if len(reps) == 0 {
		return false
	}
	live := 0
	for _, r := range reps {
		if r.broken() || r.detached.Load() {
			continue
		}
		if r.lag() != 0 {
			return false
		}
		live++
	}
	return live > 0
}

// Lag returns the worst per-replica lag in primary's group (0 when the
// shard has no replicas).
func (m *Manager) Lag(primary int) int64 {
	g := m.group(primary)
	if g == nil {
		return 0
	}
	var max int64
	for _, r := range *g.replicas.Load() {
		if l := r.lag(); l > max {
			max = l
		}
	}
	return max
}

// RecordsShipped returns the lifetime count of records applied on replicas.
func (m *Manager) RecordsShipped() int64 { return m.shipped.Load() }

// Failovers returns the number of completed promotions.
func (m *Manager) Failovers() int64 { return m.failovers.Load() }

// ReplicaStatus is one replica's monitoring snapshot.
type ReplicaStatus struct {
	Primary  int // the group's current primary
	Node     int // this replica's node
	Upstream int // the node it ships from (primary, or parent standby if chained)
	Applied  int64
	Lag      int64
	Batches  int64 // ReplShip batches delivered
	Broken   bool
}

// Status snapshots every replica of every group (sorted by primary, then
// node) plus the lifetime counters; the autonomous layer folds this into
// the InfoStore as repl.records_shipped / repl.max_replica_lag /
// repl.failovers / repl.replicas.
type Status struct {
	Replicas       []ReplicaStatus
	RecordsShipped int64
	Failovers      int64

	// QuorumAcks is the live sync-quorum K (see SetQuorum).
	QuorumAcks int
	// AckWaits / AckTimeouts / AckWaitAvg summarize sync commit ack waits:
	// how many were served, how many degraded to async at SyncTimeout, and
	// the mean wait — the ack-latency signal driving quorum policy.
	AckWaits    int64
	AckTimeouts int64
	AckWaitAvg  time.Duration
}

// Status implements the monitoring pull.
func (m *Manager) Status() Status {
	st := Status{
		RecordsShipped: m.shipped.Load(),
		Failovers:      m.failovers.Load(),
		QuorumAcks:     int(m.quorumK.Load()),
		AckWaits:       m.ackWaits.Load(),
		AckTimeouts:    m.ackTimeouts.Load(),
	}
	if st.AckWaits > 0 {
		st.AckWaitAvg = time.Duration(m.ackWaitNs.Load() / st.AckWaits)
	}
	for primary, g := range *m.groups.Load() {
		for _, r := range *g.replicas.Load() {
			st.Replicas = append(st.Replicas, ReplicaStatus{
				Primary:  primary,
				Node:     r.node,
				Upstream: int(r.upstream.Load()),
				Applied:  r.feed.Applied(),
				Lag:      r.lag(),
				Batches:  r.batches.Load(),
				Broken:   r.broken(),
			})
		}
	}
	sort.Slice(st.Replicas, func(i, j int) bool {
		if st.Replicas[i].Primary != st.Replicas[j].Primary {
			return st.Replicas[i].Primary < st.Replicas[j].Primary
		}
		return st.Replicas[i].Node < st.Replicas[j].Node
	})
	return st
}
