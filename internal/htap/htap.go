// Package htap implements HTAP analytical replicas (paper §II-III,
// GaussDB/Taurus; Polynesia in PAPERS.md): per-shard columnar replicas fed
// by the cluster's commit-log tap, kept consistent with the row primaries
// by replaying committed write records in per-DN commit order.
//
// Each primary data node gets one replica: a set of colstore tables in
// delta-merge mode (insert append + xmax tombstones for update/delete)
// under a replica-local transaction manager, so analytical scans read a
// transactionally consistent per-DN prefix of the commit stream. A
// configurable freshness bound (maximum apply lag, in records) governs
// routing: a statement whose replicas lag beyond the bound either blocks
// until they catch up (PolicyBlock) or degrades to the primary row path
// (PolicyDegrade). Consistency is enforced by that bound, not by shared
// locks — analytical scans never contend with OLTP commits.
//
// The commit stream itself — ordered queue, batch consumer, quiesce gate,
// watermarks, poison latch — is the same repl.Feed a row standby runs on;
// this package only adds the columnar sink behind it.
package htap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/repl"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// Policy selects what a statement does when its replicas exceed the
// freshness bound.
type Policy uint8

const (
	// PolicyBlock waits (up to BlockTimeout) for the apply watermark to
	// catch up, then degrades.
	PolicyBlock Policy = iota
	// PolicyDegrade sends the statement to the primary row path
	// immediately.
	PolicyDegrade
)

func (p Policy) String() string {
	if p == PolicyDegrade {
		return "degrade"
	}
	return "block"
}

// Config tunes the HTAP manager. The zero value is a strict configuration:
// replicas must be fully applied (lag 0) before serving, blocking up to
// the default timeout.
type Config struct {
	// MaxLagRecords is the freshness bound: the largest apply lag (records
	// enqueued minus applied, per replica) at which a replica may still
	// serve analytical reads. 0 requires fully-applied replicas.
	MaxLagRecords int64
	// Policy picks blocking vs degrading when the bound is exceeded.
	Policy Policy
	// BlockTimeout caps how long PolicyBlock waits before degrading
	// (default 2s).
	BlockTimeout time.Duration
	// SealRows seals a replica table's delta buffer into a compressed
	// segment once it holds at least this many rows (default 512; the
	// colstore also self-seals at colstore.SegmentRows regardless).
	SealRows int
}

// mergeBatch is the maximum number of commit legs merged per apply round.
const mergeBatch = 32

func (c Config) withDefaults() Config {
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = 2 * time.Second
	}
	if c.SealRows <= 0 {
		c.SealRows = 512
	}
	return c
}

// replTable is one replicated table on one replica.
type replTable struct {
	tbl  *colstore.Table
	meta *plan.TableMeta
}

// replica is the columnar mirror of one primary data node.
type replica struct {
	dn int
	// txm is the replica-local transaction manager; one per replica, so
	// snapshots are consistent across all of its tables.
	txm *txnkit.TxnManager

	tmu    sync.RWMutex
	tables map[string]*replTable

	// feed queues the primary's committed legs for this replica; its
	// watermarks (both monotonic: enqueued advances under the primary's
	// commit lock, applied as the sink commits replica transactions) are
	// what the freshness bound is measured on.
	feed *repl.Feed
}

// lag returns the replica's current apply lag in records.
func (r *replica) lag() int64 { return r.feed.Enqueued() - r.feed.Applied() }

func (r *replica) table(name string) *replTable {
	r.tmu.RLock()
	defer r.tmu.RUnlock()
	return r.tables[name]
}

// Manager owns the analytical replicas: it subscribes to the cluster
// commit tap, runs one feed per replica, and implements
// cluster.AnalyticalProvider for statement routing.
type Manager struct {
	c        *cluster.Cluster
	cfg      Config
	replicas map[int]*replica // keyed by primary dn; immutable after Enable

	// Runtime-adjustable freshness knobs (E19 sweeps them on a live
	// manager).
	maxLag atomic.Int64
	policy atomic.Int32

	detach func() // commit-tap unsubscribe
	wg     sync.WaitGroup
	closed atomic.Bool

	// resume holds the feeds' quiesce releases while SetApplyPaused(true)
	// is in effect (nil otherwise).
	pauseMu sync.Mutex
	resume  []func()

	// Routing counters.
	offloaded    atomic.Int64
	degraded     atomic.Int64
	gateBlocks   atomic.Int64
	gateTimeouts atomic.Int64
}

// Enable builds columnar replicas of every distributed table under a
// cluster-wide barrier, subscribes to the commit tap before the barrier
// lifts (so the replicas see exactly the seed plus every later committed
// record), installs analytical-read routing, and starts the apply loops.
func Enable(c *cluster.Cluster, cfg Config) (*Manager, error) {
	m := &Manager{
		c:        c,
		cfg:      cfg.withDefaults(),
		replicas: make(map[int]*replica),
	}
	m.maxLag.Store(m.cfg.MaxLagRecords)
	m.policy.Store(int32(m.cfg.Policy))

	err := c.SeedAnalyticalReplicas(func(primaries []int, tables []*plan.TableMeta, seed map[int][]cluster.WriteRec) error {
		for _, dn := range primaries {
			r := &replica{
				dn:     dn,
				txm:    txnkit.NewTxnManager(),
				tables: make(map[string]*replTable),
				feed:   repl.NewFeed(),
			}
			m.replicas[dn] = r
			for _, meta := range tables {
				r.createTable(meta)
			}
			// A seed is insert records: it replays like any committed leg.
			if err := m.applyLeg(r, seed[dn]); err != nil {
				return err
			}
			for _, rt := range r.tables {
				rt.tbl.Flush()
			}
		}
		// Subscribe while the barrier is still held: every commit after
		// this point reaches the feeds, and none before it can.
		m.detach = c.AddCommitTap(m)
		return nil
	})
	if err != nil {
		if m.detach != nil {
			m.detach()
		}
		return nil, err
	}
	for _, r := range m.replicas {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			r.feed.Run(mergeBatch, func(batch []repl.Leg, done func()) error { return m.apply(r, batch, done) })
		}()
	}
	c.SetAnalyticalReads(m)
	return m, nil
}

// Close detaches routing and the commit tap, then closes the feeds and
// waits for their consumers to drain what was queued.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	m.c.SetAnalyticalReads(nil)
	m.detach()
	m.SetApplyPaused(false)
	for _, r := range m.replicas {
		r.feed.Close()
	}
	m.wg.Wait()
}

// createTable registers an empty delta-merge table on the replica.
func (r *replica) createTable(meta *plan.TableMeta) *replTable {
	tbl := colstore.NewTable(meta.Name, meta.Schema, r.txm)
	tbl.EnableTombstones()
	rt := &replTable{tbl: tbl, meta: meta}
	r.tmu.Lock()
	r.tables[meta.Name] = rt
	r.tmu.Unlock()
	return rt
}

// ---------------------------------------------------------------------------
// Commit-tap ingest
// ---------------------------------------------------------------------------

// Committed implements cluster.CommitTap. It runs under the data node's
// commit lock, so it only enqueues: the records land on the replica's feed
// in commit order. Legs from nodes without a replica (standbys,
// post-enable primaries) are ignored — their fragments read the primary.
func (m *Manager) Committed(dnID int, recs []cluster.WriteRec) func() {
	if r := m.replicas[dnID]; r != nil {
		r.feed.Append(recs)
	}
	return nil
}

// apply is the columnar sink of one replica's feed: replay each leg of the
// batch as one replica-local transaction, then seal the delta buffers that
// crossed the merge threshold so scans run on compressed, zone-mapped
// segments. An error poisons the feed — the replica diverged beyond repair
// — and the gate refuses every statement from then on.
func (m *Manager) apply(r *replica, batch []repl.Leg, done func()) error {
	for _, l := range batch {
		if err := m.applyLeg(r, l.Recs); err != nil {
			return err
		}
		done()
	}
	r.tmu.RLock()
	defer r.tmu.RUnlock()
	for _, rt := range r.tables {
		if rt.tbl.DeltaLen() >= m.cfg.SealRows {
			rt.tbl.Flush()
		}
	}
	return nil
}

// applyLeg replays one committed leg as a single replica transaction, so
// the leg's writes become visible atomically, exactly as they did on the
// primary.
func (m *Manager) applyLeg(r *replica, recs []cluster.WriteRec) error {
	xid := r.txm.Begin()
	snap := r.txm.LocalSnapshot()
	for _, rec := range recs {
		rt := r.table(rec.Table)
		if rt == nil {
			// Table created after Enable: the tap has carried every write
			// since its creation, so an empty replica table is exact.
			meta, err := m.c.Resolve(rec.Table)
			if err != nil {
				_ = r.txm.Abort(xid)
				return fmt.Errorf("htap: dn%d: unknown table %q in commit stream: %w", r.dn, rec.Table, err)
			}
			rt = r.createTable(meta)
		}
		var err error
		switch rec.Op {
		case cluster.OpInsert:
			err = rt.tbl.Insert(xid, rec.Row)
		case cluster.OpUpdate:
			if err = rt.tbl.DeleteMatching(xid, &snap, rec.Old); err == nil {
				err = rt.tbl.Insert(xid, rec.Row)
			}
		case cluster.OpDelete:
			err = rt.tbl.DeleteMatching(xid, &snap, rec.Old)
		case cluster.OpReap:
			// The primary physically drops the bucket's rows after a
			// migration; the replica expresses the same removal as an MVCC
			// delete, which future snapshots see identically.
			if dk := rt.meta.DistKey; dk >= 0 {
				rt.tbl.DeleteWhere(xid, &snap, func(row types.Row) bool {
					return cluster.BucketOf(row[dk]) == rec.Bucket
				})
			}
		}
		if err != nil {
			_ = r.txm.Abort(xid)
			return fmt.Errorf("htap: dn%d: replica diverged applying %s on %q: %w", r.dn, rec.Op, rec.Table, err)
		}
	}
	return r.txm.Commit(xid)
}

// ---------------------------------------------------------------------------
// Routing: cluster.AnalyticalProvider
// ---------------------------------------------------------------------------

// Gate implements the freshness bound. Called once per analytical
// statement with the primaries it would scan; true admits the statement to
// the replicas. Under PolicyBlock a stale replica is waited on — the
// target watermark is captured at gate time, so the wait terminates as
// long as the feed's consumer is running (and times out into degradation
// when it is paused or wedged).
func (m *Manager) Gate(dnIDs []int) bool {
	if m.Err() != nil || m.closed.Load() {
		m.degraded.Add(1)
		return false
	}
	maxLag := m.maxLag.Load()
	var stale []*replica
	var targets []int64
	for _, dn := range dnIDs {
		r := m.replicas[dn]
		if r == nil {
			continue // no replica: that fragment reads the primary anyway
		}
		if enq := r.feed.Enqueued(); enq-r.feed.Applied() > maxLag {
			stale = append(stale, r)
			targets = append(targets, enq-maxLag)
		}
	}
	if len(stale) == 0 {
		m.offloaded.Add(1)
		return true
	}
	if Policy(m.policy.Load()) == PolicyDegrade {
		m.degraded.Add(1)
		return false
	}
	m.gateBlocks.Add(1)
	deadline := time.Now().Add(m.cfg.BlockTimeout)
	for i, r := range stale {
		if !r.feed.WaitApplied(targets[i], deadline) {
			m.gateTimeouts.Add(1)
			m.degraded.Add(1)
			return false
		}
	}
	m.offloaded.Add(1)
	return true
}

// Replica implements cluster.AnalyticalProvider table lookup.
func (m *Manager) Replica(name string, dn int) (*colstore.Table, *txnkit.TxnManager, bool) {
	r := m.replicas[dn]
	if r == nil {
		return nil, nil, false
	}
	rt := r.table(name)
	if rt == nil {
		return nil, nil, false
	}
	return rt.tbl, r.txm, true
}

// ---------------------------------------------------------------------------
// Freshness knobs, test hooks, verification
// ---------------------------------------------------------------------------

// SetFreshnessBound adjusts the maximum apply lag (records) at runtime.
func (m *Manager) SetFreshnessBound(records int64) { m.maxLag.Store(records) }

// SetPolicy adjusts the staleness policy at runtime.
func (m *Manager) SetPolicy(p Policy) { m.policy.Store(int32(p)) }

// SetApplyPaused freezes (true) or resumes (false) every replica's feed
// between batches — enqueued records accumulate as lag while paused. Test
// hook for the freshness bound.
func (m *Manager) SetApplyPaused(paused bool) {
	m.pauseMu.Lock()
	defer m.pauseMu.Unlock()
	if paused == (m.resume != nil) {
		return
	}
	for _, release := range m.resume {
		release()
	}
	m.resume = nil
	if paused {
		for _, r := range m.replicas {
			m.resume = append(m.resume, r.feed.Quiesce())
		}
	}
}

// Err returns the apply failure that poisoned a replica, if any.
func (m *Manager) Err() error {
	for _, r := range m.replicas {
		if err := r.feed.Err(); err != nil {
			return err
		}
	}
	return nil
}

// WaitCaughtUp blocks until every replica's applied watermark reaches the
// enqueue watermark observed at call time, or the timeout expires.
func (m *Manager) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, r := range m.replicas {
		if !r.feed.WaitApplied(r.feed.Enqueued(), deadline) {
			if err := m.Err(); err != nil {
				return err
			}
			return fmt.Errorf("htap: dn%d apply lag %d records after %v", r.dn, r.lag(), timeout)
		}
	}
	return nil
}

// ReplicaDigest digests the replica rows of table name on dn that the
// routing map currently assigns to dn, under a fresh replica snapshot —
// directly comparable to cluster.PartitionDigest(name, dn, dn).
func (m *Manager) ReplicaDigest(name string, dn int) (cluster.TableDigest, error) {
	r := m.replicas[dn]
	if r == nil {
		return cluster.TableDigest{}, fmt.Errorf("htap: no replica for dn%d", dn)
	}
	rt := r.table(name)
	if rt == nil {
		return cluster.TableDigest{}, fmt.Errorf("htap: no replica table %q on dn%d", name, dn)
	}
	owns := m.c.OwnsRow(rt.meta, dn)
	snap := r.txm.LocalSnapshot()
	var rows []types.Row
	rt.tbl.ScanRows(0, &snap, func(row types.Row) bool {
		if owns == nil || owns(row) {
			rows = append(rows, row)
		}
		return true
	})
	return cluster.DigestRows(rows), nil
}

// ---------------------------------------------------------------------------
// Status
// ---------------------------------------------------------------------------

// ReplicaStatus reports one replica's watermarks.
type ReplicaStatus struct {
	DN              int
	Tables          int
	EnqueuedRecords int64
	AppliedRecords  int64
	AppliedLegs     int64
	LagRecords      int64
}

// Status is a point-in-time snapshot of the manager.
type Status struct {
	Replicas []ReplicaStatus
	// Aggregates across replicas.
	RecordsApplied int64
	LegsApplied    int64
	MaxLagRecords  int64 // largest current per-replica lag
	// Routing counters.
	QueriesOffloaded int64
	QueriesDegraded  int64
	GateBlocks       int64
	GateTimeouts     int64
	// Colstore aggregates across every replica table (segment shape,
	// tombstones, compression).
	Colstore colstore.TableStats
	Scans    colstore.ScanStats
}

// Status collects the manager's current watermarks and replica storage
// statistics.
func (m *Manager) Status() Status {
	st := Status{
		QueriesOffloaded: m.offloaded.Load(),
		QueriesDegraded:  m.degraded.Load(),
		GateBlocks:       m.gateBlocks.Load(),
		GateTimeouts:     m.gateTimeouts.Load(),
	}
	for _, r := range m.replicas {
		rs := ReplicaStatus{
			DN:              r.dn,
			EnqueuedRecords: r.feed.Enqueued(),
			AppliedRecords:  r.feed.Applied(),
			AppliedLegs:     r.feed.AppliedLegs(),
		}
		rs.LagRecords = rs.EnqueuedRecords - rs.AppliedRecords
		r.tmu.RLock()
		rs.Tables = len(r.tables)
		for _, rt := range r.tables {
			st.Colstore.Add(rt.tbl.Stats())
			st.Scans.Add(rt.tbl.ScanStats())
		}
		r.tmu.RUnlock()
		st.RecordsApplied += rs.AppliedRecords
		st.LegsApplied += rs.AppliedLegs
		if rs.LagRecords > st.MaxLagRecords {
			st.MaxLagRecords = rs.LagRecords
		}
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}
