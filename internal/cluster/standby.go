// Per-shard standby replication: the cluster-side primitives that the
// internal/repl subsystem builds on.
//
// A standby is a regular data node — its own transaction manager, its own
// partitions — that owns zero hash buckets and physically mirrors one
// primary. Three mechanisms keep the mirror exact:
//
//   - Commit tap. Every statement records the logical writes it lands on a
//     data node (WriteRec); when the transaction commits, each leg's records
//     are handed to the installed CommitTap under that node's commit lock,
//     so the per-node record stream is in commit order. The tap is how
//     internal/repl ships records to the standby.
//   - Ownership filtering. Attaching the first standby permanently enables
//     filterByBucket, so the standby's mirror rows (whose buckets the map
//     assigns to the primary) are invisible to every scan — the same
//     mechanism that hides half-migrated buckets.
//   - Commit slots. Commits hold a per-node in-flight counter and abort if
//     the node is marked down. A failover marks the primary down, waits for
//     the slots to drain, and only then replays the log tail — so every
//     committed transaction is either in the shipped log or was aborted,
//     never in between.
//
// Promotion reuses the 256-bucket routing map: PromoteStandby flips every
// bucket the dead primary owned to its standby under the route barrier,
// exactly the ownership-transfer primitive MoveBucket cutover uses.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/transport"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// WriteOp is the kind of one logical write record.
type WriteOp uint8

// Write-record operations.
const (
	// OpInsert adds Row.
	OpInsert WriteOp = iota
	// OpUpdate replaces one stored instance of Old with Row.
	OpUpdate
	// OpDelete removes one stored instance of Old.
	OpDelete
	// OpReap physically drops every row of Bucket (bucket-move cleanup;
	// outside MVCC, mirroring the primary's reap).
	OpReap
)

func (op WriteOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return "reap"
	}
}

// WriteRec is one logical committed write on one data node. Records are
// captured per statement and shipped per transaction leg at commit time;
// replicated tables are never recorded (standbys receive their writes
// through the ordinary all-replica write path).
type WriteRec struct {
	Table string
	Op    WriteOp
	// Row is the new row (OpInsert, OpUpdate).
	Row types.Row
	// Old is the prior version (OpUpdate, OpDelete).
	Old types.Row
	// Bucket is the reaped bucket (OpReap).
	Bucket int
}

// CommitTap receives each transaction leg's records at commit time, called
// with the data node's commit lock held so the stream is in commit order.
// It must only enqueue (no blocking, no cluster calls). The returned wait
// function, if non-nil, runs after all locks are released — sync-mode
// replication blocks the committing client there until the standby acked.
type CommitTap interface {
	Committed(dnID int, recs []WriteRec) (wait func())
}

// tapEntry is one AddCommitTap subscription; its address identifies the
// subscription for detachment.
type tapEntry struct{ t CommitTap }

// AddCommitTap subscribes a tap to the commit stream and returns a
// function that detaches exactly that subscription. Every installed tap
// sees every committed leg, in per-DN commit order. The subscriber set is
// copy-on-write under tapMu, so the commit path loads the whole fan-out
// with one atomic read.
func (c *Cluster) AddCommitTap(t CommitTap) (detach func()) {
	e := &tapEntry{t: t}
	c.tapMu.Lock()
	defer c.tapMu.Unlock()
	var taps []*tapEntry
	if old := c.taps.Load(); old != nil {
		taps = append(taps, *old...)
	}
	taps = append(taps, e)
	c.taps.Store(&taps)
	return func() {
		c.tapMu.Lock()
		defer c.tapMu.Unlock()
		old := c.taps.Load()
		if old == nil {
			return
		}
		var rest []*tapEntry
		for _, x := range *old {
			if x != e {
				rest = append(rest, x)
			}
		}
		if len(rest) == 0 {
			c.taps.Store(nil) // back to no record capture at all
			return
		}
		c.taps.Store(&rest)
	}
}

// tapInstalled reports whether commits must capture write records.
func (c *Cluster) tapInstalled() bool { return c.taps.Load() != nil }

// tapCommitted fans one leg's records out to every installed tap. Caller
// holds the data node's commit lock; the returned wait (if any) composes
// the taps' waits and must run after unlocking.
func (c *Cluster) tapCommitted(dnID int, recs []WriteRec) func() {
	taps := c.taps.Load()
	if taps == nil || len(recs) == 0 {
		return nil
	}
	var waits []func()
	for _, e := range *taps {
		if w := e.t.Committed(dnID, recs); w != nil {
			waits = append(waits, w)
		}
	}
	switch len(waits) {
	case 0:
		return nil
	case 1:
		return waits[0]
	}
	return func() {
		for _, w := range waits {
			w()
		}
	}
}

// commitTapped commits xid on dn under the node's commit lock and hands
// its records to the taps before unlocking, so every tap sees the node's
// legs in commit order. The returned wait (if any) must run after the
// caller has released whatever else it holds.
func (c *Cluster) commitTapped(dn *DataNode, xid txnkit.XID, recs []WriteRec) (wait func(), err error) {
	dn.commitMu.Lock()
	defer dn.commitMu.Unlock()
	if err = dn.Txm.Commit(xid); err == nil {
		wait = c.tapCommitted(dn.ID, recs)
	}
	return wait, err
}

// commitLeg commits one transaction leg. Waits are collected, not run: the
// caller runs them after releasing its commit slots.
func (c *Cluster) commitLeg(dnID int, xid txnkit.XID, recs []WriteRec, waits *[]func()) error {
	wait, err := c.commitTapped(c.node(dnID), xid, recs)
	if wait != nil {
		*waits = append(*waits, wait)
	}
	return err
}

// commitLocal commits a node-local transaction (migration sync, standby
// apply) under a commit slot: if the node was marked down the transaction
// aborts instead, which is what lets a failover drain to a definite log.
func (c *Cluster) commitLocal(dn *DataNode, xid txnkit.XID, recs []WriteRec) error {
	dn.committing.Add(1)
	defer dn.committing.Add(-1)
	if c.nodeDown(dn.ID) {
		_ = dn.Txm.Abort(xid)
		return fmt.Errorf("%w: dn%d", ErrNodeDown, dn.ID)
	}
	wait, err := c.commitTapped(dn, xid, recs)
	if wait != nil {
		wait()
	}
	return err
}

// ---------------------------------------------------------------------------
// Prepared-leg record stash (2PC in-doubt window)
// ---------------------------------------------------------------------------

type stashKey struct {
	dnID int
	xid  txnkit.XID
}

// stashPrepared parks a prepared leg's records so in-doubt recovery can
// still ship them if the coordinator dies between the GTM decision and
// phase 2. No-op when no tap is installed.
func (c *Cluster) stashPrepared(dnID int, xid txnkit.XID, recs []WriteRec) {
	if !c.tapInstalled() || len(recs) == 0 {
		return
	}
	c.stashMu.Lock()
	defer c.stashMu.Unlock()
	if c.stash == nil {
		c.stash = make(map[stashKey][]WriteRec)
	}
	c.stash[stashKey{dnID, xid}] = recs
}

// takeStash removes and returns a leg's parked records (nil if none).
func (c *Cluster) takeStash(dnID int, xid txnkit.XID) []WriteRec {
	c.stashMu.Lock()
	defer c.stashMu.Unlock()
	k := stashKey{dnID, xid}
	recs := c.stash[k]
	delete(c.stash, k)
	return recs
}

// ---------------------------------------------------------------------------
// Standby lifecycle
// ---------------------------------------------------------------------------

// AddStandby registers a fresh data node as a standby of upstream: under
// the route barrier it drains the upstream's in-flight writes, seeds the
// standby with a full physical mirror of the upstream's partitions (and a
// copy of every replicated table), and enables bucket-ownership filtering
// so the mirror rows stay invisible. onReady, if non-nil, runs while the
// barrier is still held — internal/repl registers its feed there, so record
// capture starts exactly at the seed snapshot with no gap and no overlap.
//
// An upstream may hold any number of standbys (a replica group), and may
// itself be a standby — that is a chained (cascading) topology, where the
// chained mirror receives records relayed through its parent instead of
// from the primary directly.
//
// The standby serves replicated-table writes through the ordinary
// all-replica path from the moment it is published; distributed-table
// changes reach it only through the commit tap.
func (c *Cluster) AddStandby(upstream int, onReady func(standbyID int)) (int, error) {
	c.lockRoutes()
	defer c.routeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if upstream < 0 {
		return 0, fmt.Errorf("cluster: dn%d does not exist", upstream)
	}
	return c.enrolLocked(-1, upstream, onReady)
}

// ReenrollStandby returns a retired node (a primary replaced by a promoted
// standby) to service as a fresh standby of upstream: its partitions are
// wiped and re-seeded exactly like AddStandby's, and the node re-enters
// the standby set — un-retired, marked up, serving replicated-table writes
// again and mirroring upstream through the commit tap.
func (c *Cluster) ReenrollStandby(node, upstream int, onReady func(standbyID int)) error {
	c.lockRoutes()
	defer c.routeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if upstream < 0 {
		return fmt.Errorf("cluster: dn%d does not exist", upstream)
	}
	if !c.retired[node] {
		return fmt.Errorf("cluster: dn%d is not retired; only a replaced primary can re-enroll", node)
	}
	_, err := c.enrolLocked(node, upstream, onReady)
	return err
}

// ReseedStandby wipes an existing standby and re-seeds it as a fresh direct
// standby of a new upstream. It is the repair primitive behind two
// self-healing paths: re-homing a chain-orphaned standby (its parent
// standby broke or died) directly under the group's primary, and restoring
// a poisoned mirror (apply divergence) from a clean snapshot. The caller
// (internal/repl) must have quiesced the standby's feed first — nothing may
// call ApplyStandbyRecs for the node concurrently.
func (c *Cluster) ReseedStandby(node, upstream int, onReady func(standbyID int)) error {
	c.lockRoutes()
	defer c.routeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if upstream < 0 {
		return fmt.Errorf("cluster: dn%d does not exist", upstream)
	}
	if _, isStandby := c.standbys[node]; !isStandby {
		return fmt.Errorf("cluster: dn%d is not a standby; only standbys can re-seed (see ReenrollStandby for retired primaries)", node)
	}
	if c.downNodes[node] {
		return fmt.Errorf("cluster: cannot re-seed dn%d: %w", node, ErrNodeDown)
	}
	_, err := c.enrolLocked(node, upstream, onReady)
	return err
}

// enrolLocked is the one body behind AddDataNode, AddStandby,
// ReenrollStandby and ReseedStandby: it brings a node into service with
// freshly seeded partitions, all under the route barrier, so no statement
// can observe a half-built state and the barrier's drain makes the seed a
// definite prefix of the commit stream.
//
// node < 0 appends a new data node; otherwise node's partitions are wiped
// (replaced by empty ones). upstream < 0 enrols a primary — it owns no
// buckets yet, so only replicated tables are copied; otherwise the node
// becomes a standby of upstream and also mirrors upstream's distributed
// partitions (rows an unfinished migration left behind included — the reap
// will ship through the tap). Replicated tables copy from the first live
// node. A failed drain or copy restores every partition set and changes
// nothing else. On success the topology is published — the node leaves its
// previous standby list and the retired / down sets and is spliced out of
// the successor chains, since it is back in service — and onReady runs
// while the barrier is still held.
// Caller holds routeMu and mu.
func (c *Cluster) enrolLocked(node, upstream int, onReady func(id int)) (int, error) {
	old := c.nodes()
	if node >= len(old) || upstream >= len(old) {
		return 0, fmt.Errorf("cluster: dn%d does not exist", max(node, upstream))
	}
	if node >= 0 && node == upstream {
		return 0, fmt.Errorf("cluster: dn%d cannot be its own standby", node)
	}
	if node >= 0 && c.fab.Unreachable(transport.DN(node)) {
		return 0, fmt.Errorf("cluster: cannot seed dn%d: %w", node, ErrNodeDown)
	}
	if upstream >= 0 {
		if c.retired[upstream] {
			return 0, fmt.Errorf("cluster: dn%d is retired", upstream)
		}
		if c.downNodes[upstream] || c.fab.Unreachable(transport.DN(upstream)) {
			return 0, fmt.Errorf("cluster: cannot seed a standby from dn%d: %w", upstream, ErrNodeDown)
		}
	}

	id := node
	var dn *DataNode
	if node < 0 {
		id, dn = len(old), &DataNode{ID: len(old), Txm: txnkit.NewTxnManager()}
	} else {
		dn = old[node]
	}

	// Install fresh partitions first (copy-on-write): a reader may only see
	// a new node once its partitions exist (len(parts) >= len(dns) always).
	type swapped struct {
		ti   *TableInfo
		prev *tableParts
	}
	var tables []swapped
	var srcs []seedSource // where each copied table comes from; the rest start empty
	rollback := func(err error) (int, error) {
		for _, t := range tables {
			t.ti.parts.Store(t.prev)
		}
		return 0, err
	}
	for _, ti := range c.tables {
		src := upstream
		if ti.replicated {
			if src = c.firstLiveLocked(len(old), id); src < 0 {
				return rollback(fmt.Errorf("cluster: no live replica of %q to seed dn%d from: %w", ti.Meta.Name, id, ErrRebalanceRetry))
			}
		}
		prev := ti.parts.Load()
		tables = append(tables, swapped{ti, prev})
		if src >= 0 {
			srcs = append(srcs, seedSource{ti, src})
		}
		if node < 0 {
			ti.parts.Store(appendPartition(ti, prev, dn))
		} else {
			ti.parts.Store(replacePartition(ti, prev, node, dn))
		}
	}

	seeds, err := c.seedRecs(srcs)
	if err != nil {
		return rollback(fmt.Errorf("cluster: seeding dn%d, %w", id, err))
	}
	for i, s := range srcs {
		if err := c.copyReplica(s, seeds[i], dn); err != nil {
			return rollback(fmt.Errorf("cluster: seeding dn%d, table %q: %w", id, s.ti.Meta.Name, err))
		}
	}

	if node < 0 {
		grown := make([]*DataNode, len(old)+1)
		copy(grown, old)
		grown[len(old)] = dn
		c.dns.Store(&grown)
	}
	if prev, was := c.standbys[id]; was {
		c.standbyOf[prev] = slices.DeleteFunc(slices.Clone(c.standbyOf[prev]), func(sib int) bool { return sib == id })
	}
	if upstream >= 0 {
		// Mirror rows must never surface in scans: their buckets are owned
		// by the primary, so the ownership filter hides them — from now on.
		c.filterByBucket = true
		c.standbys[id] = upstream
		c.standbyOf[upstream] = append(c.standbyOf[upstream], id)
	}
	delete(c.retired, id)
	delete(c.downNodes, id)
	// Splice id out of the promotion chains rather than cutting them at it:
	// whoever id replaced is now succeeded by id's own successor. Only a
	// retired node can have predecessors — a standby's were spliced away
	// when it last enrolled, and it has not been promoted since.
	if next, wasRetired := c.successor[id]; wasRetired {
		for k, s := range c.successor {
			if s == id {
				c.successor[k] = next
			}
		}
		delete(c.successor, id)
	}

	if onReady != nil {
		onReady(id)
	}
	return id, nil
}

// ReturnedPrimaries lists retired ex-primaries that are back online —
// marked up again and reachable — and therefore candidates for automatic
// re-enrollment as standbys of their successors (the autopilot's
// redundancy-restoring heal step).
func (c *Cluster) ReturnedPrimaries() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []int
	for id, r := range c.retired {
		if !r || c.downNodes[id] || c.fab.Unreachable(transport.DN(id)) {
			continue
		}
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// PromoteStandby makes standby the owner of every bucket primary holds and
// retires primary. The caller (internal/repl's failover) must have marked
// the primary down, drained its commit slots and applied the full log tail
// first; this method only performs the routing flip, under the route
// barrier so no statement ever sees a half-promoted map. The primary's
// surviving standbys re-attach beneath the promoted node (joining any
// chained standbys it already had), and the promotion is recorded in the
// successor map so rebalances targeting the retired node can re-target.
// published runs under the barrier once the promotion cannot fail: what it
// publishes is seen by every reader that sees the new owner. It returns the
// number of buckets flipped.
func (c *Cluster) PromoteStandby(primary, standby int, published func()) (int, error) {
	c.lockRoutes()
	defer c.routeMu.Unlock()
	if up, ok := c.standbys[standby]; !ok || up != primary {
		return 0, fmt.Errorf("cluster: dn%d is not a standby of dn%d", standby, primary)
	}
	published()
	flipped := 0
	for b := 0; b < NumBuckets; b++ {
		if c.bmap.dn[b] == primary {
			c.bmap.dn[b] = standby
			flipped++
		}
	}
	delete(c.standbys, standby)
	for _, sib := range c.standbyOf[primary] {
		if sib == standby {
			continue
		}
		c.standbys[sib] = standby
		c.standbyOf[standby] = append(c.standbyOf[standby], sib)
	}
	delete(c.standbyOf, primary)
	c.successor[primary] = standby
	c.mu.Lock()
	c.retired[primary] = true
	c.mu.Unlock()
	return flipped, nil
}

// Standbys returns the standbys attached directly to upstream, in attach
// order (chained standbys appear under their own upstream, not here).
func (c *Cluster) Standbys(upstream int) []int {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	return append([]int(nil), c.standbyOf[upstream]...)
}

// Successor follows the promotion chain from a retired primary to the node
// currently serving its buckets — the standby promoted in its place,
// transitively across repeated failovers; ok is false for a node that was
// never retired or has re-entered service. Rebalances whose target died
// mid-plan re-target through this.
func (c *Cluster) Successor(id int) (int, bool) {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	s, ok := c.successor[id]
	if !ok {
		return 0, false
	}
	// A node that re-enters service is spliced out of the map (enrolLocked),
	// so the chain is acyclic and ends at a primary; the hop bound keeps a
	// broken invariant from spinning under the route lock.
	for hops := 0; hops < len(c.successor); hops++ {
		next, ok := c.successor[s]
		if !ok {
			return s, true
		}
		s = next
	}
	return 0, false
}

// ShardFenced reports whether id is a primary that is down but has
// standbys attached — the fenced window of an expected failover. Callers
// that hit ErrShardFenced (bucket moves) poll this to wait out the
// promotion instead of hot-retrying; once the standby is promoted the
// node is retired and no longer fenced.
func (c *Cluster) ShardFenced(id int) bool {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	if len(c.standbyOf[id]) == 0 || c.isRetired(id) {
		return false
	}
	return c.nodeDown(id)
}

// PrimaryIDs returns the data nodes that serve hash-partitioned data:
// every node that is neither a standby nor retired.
func (c *Cluster) PrimaryIDs() []int {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	return c.scanTargetsLocked()
}

// scanTargetsLocked returns the nodes a scatter scan must cover (primaries
// only: standby mirrors and retired nodes are excluded). Caller holds
// routeMu.
func (c *Cluster) scanTargetsLocked() []int {
	n := c.DataNodeCount()
	if len(c.standbys) == 0 && !c.anyRetired() {
		return allDNs(n)
	}
	out := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if _, isStandby := c.standbys[id]; isStandby {
			continue
		}
		if c.isRetired(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// replicaTargetsLocked returns the nodes a replicated-table write must
// reach: every non-retired node, standbys included (that is how standby
// replicas of dimension tables stay fresh). Caller holds routeMu.
func (c *Cluster) replicaTargetsLocked() []int {
	n := c.DataNodeCount()
	if !c.anyRetired() {
		return allDNs(n)
	}
	out := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if !c.isRetired(id) {
			out = append(out, id)
		}
	}
	return out
}

func (c *Cluster) isRetired(id int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.retired[id]
}

func (c *Cluster) anyRetired() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.retired) > 0
}

// NodeIsDown reports whether a node is marked offline (or retired) — the
// failure detector's probe.
func (c *Cluster) NodeIsDown(id int) bool { return c.nodeDown(id) }

// WaitCommitsSettled blocks until no commit holds an in-flight slot on the
// node. Failover calls it after marking the primary down: from then on
// every commit that raced the kill has either appended to the log or
// aborted.
func (c *Cluster) WaitCommitsSettled(dnID int, timeout time.Duration) error {
	dn := c.node(dnID)
	deadline := time.Now().Add(timeout)
	for dn.committing.Load() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: dn%d still has %d in-flight commits", dnID, dn.committing.Load())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Record application (standby side)
// ---------------------------------------------------------------------------

// ApplyStandbyRecs applies one shipped leg to the standby, each run of
// records between reaps as one standby-local transaction (applyRecs). A
// record with no instance of its old row left means the mirror diverged, and
// the error poisons the pair. ErrNodeDown is the one error that says nothing
// about the mirror: the standby was down or cut off when its transaction
// came to commit, the transaction rolled back, and the same leg can be
// applied again (a reap, the only thing applied outside that transaction,
// always ships as a leg of its own).
func (c *Cluster) ApplyStandbyRecs(standbyID int, recs []WriteRec) error {
	dn := c.node(standbyID)
	for len(recs) > 0 {
		run := slices.IndexFunc(recs, func(r WriteRec) bool { return r.Op == OpReap })
		if run == 0 {
			// Physical cleanup mirrors the primary's reap: outside MVCC.
			ti, err := c.tableInfo(recs[0].Table)
			if err != nil {
				return err
			}
			ti.part(standbyID).reap(inBucket(ti, recs[0].Bucket))
			recs = recs[1:]
			continue
		}
		if run < 0 {
			run = len(recs)
		}
		xid, err := c.applyRecs(dn, nil, recs[:run])
		if err == nil {
			err = c.commitLocal(dn, xid, nil)
		}
		if err != nil {
			return err
		}
		recs = recs[run:]
	}
	return nil
}

// applyRecs is the one step that writes a copy outside a statement — a
// standby's log replay, a bucket move's copy and delta, a seed: it applies
// recs through partition.apply in one new dn-local transaction and returns
// it for the caller to commit, or aborts it and names the node, operation
// and table that failed. A non-nil ti is every record's table (a seed holds
// the catalog lock a lookup takes); nil looks each one up.
func (c *Cluster) applyRecs(dn *DataNode, ti *TableInfo, recs []WriteRec) (txnkit.XID, error) {
	xid := dn.Txm.Begin()
	snap := dn.Txm.LocalSnapshot()
	for _, rec := range recs {
		t, err := ti, error(nil)
		if t == nil {
			t, err = c.tableInfo(rec.Table)
		}
		if err == nil {
			err = t.part(dn.ID).apply(xid, &snap, rec)
		}
		if err != nil {
			_ = dn.Txm.Abort(xid)
			return 0, fmt.Errorf("cluster: dn%d diverged applying %s on %q: %w", dn.ID, rec.Op, rec.Table, err)
		}
	}
	return xid, nil
}

// PartitionDigest digests the rows of table name physically stored on node
// dnID that the routing map assigns to owner (hash collisions aside, two
// equal digests mean equal row multisets). Comparing the primary's own
// partition (dnID == owner) against its standby's mirror (dnID = standby,
// owner = primary) is the zero-loss check failover runs before promoting.
func (c *Cluster) PartitionDigest(name string, dnID, owner int) (TableDigest, error) {
	ti, err := c.tableInfo(name)
	if err != nil {
		return TableDigest{}, err
	}
	if dnID < 0 || dnID >= c.DataNodeCount() {
		return TableDigest{}, fmt.Errorf("cluster: dn%d does not exist", dnID)
	}
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	var pred func(types.Row) bool
	if !ti.replicated && ti.Meta.DistKey >= 0 {
		dk := ti.Meta.DistKey
		pred = func(r types.Row) bool { return c.bmap.dn[BucketOf(r[dk])] == owner }
	}
	return DigestRows(c.partitionRows(ti, dnID, pred)), nil
}

// DistributedTableNames lists the hash-distributed stored tables (the set
// a standby mirrors through the commit log).
func (c *Cluster) DistributedTableNames() []string {
	var out []string
	for _, ti := range c.distributedTables() {
		out = append(out, ti.Meta.Name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Read-replica routing
// ---------------------------------------------------------------------------

// SetStandbyReads configures read-replica routing: readable returns, per
// primary, a replica of that shard currently safe to read (internal/repl
// wires a round-robin over its lag-zero replicas here), and a shard's whole
// read fragment is then served there when the transaction has no leg on
// the primary yet. nil — the default — routes every read to the primary.
// readable must be lock-light — it is consulted under the route lock on
// every SELECT.
func (c *Cluster) SetStandbyReads(readable func(primary int) (int, bool)) {
	c.lockRoutes()
	defer c.routeMu.Unlock()
	c.standbyReadable = readable
}

// ErrReplicatedWriteDown wraps ErrNodeDown for writes to replicated tables
// while a replica is offline: every copy must apply the write, so the
// statement fails (errors.Is-able against both sentinels) until the node
// returns or a failover retires it.
var ErrReplicatedWriteDown = errors.New("cluster: replicated-table write requires every replica online")
