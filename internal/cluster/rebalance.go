package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// ErrRebalanceRetry wraps transient bucket-move failures (target or source
// node down, drain timeout, concurrent move of the same bucket). The move
// left the bucket on its source node and can simply be retried.
var ErrRebalanceRetry = errors.New("cluster: bucket move interrupted; retry")

// ErrShardFenced wraps bucket-move failures caused by a shard inside its
// failover window: the node is down but has standbys attached, so a
// promotion is expected to take over its buckets shortly. It wraps
// ErrRebalanceRetry (legacy retry loops still match), but a fence-aware
// orchestrator (internal/rebalance) waits on ShardFenced instead of
// hot-retrying, then re-targets a retired node via Successor.
var ErrShardFenced = fmt.Errorf("cluster: shard is fenced for failover: %w", ErrRebalanceRetry)

// ErrBucketMigrating is returned to writers that hit a bucket inside its
// cutover freeze window. The window is bounded by the drain plus one delta
// application; clients retry the statement (the TPC-C driver counts these
// as aborts, like write conflicts).
var ErrBucketMigrating = errors.New("cluster: bucket is frozen for migration cutover; retry")

const defaultDrainTimeout = 5 * time.Second

func (c *Cluster) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return defaultDrainTimeout
}

// AddDataNode registers a fresh shard — its own transaction manager (and
// therefore its own LCO) and empty partitions of every table — and returns
// its id. Replicated tables are copied onto the new node under the route
// barrier, so the new replica is complete before any statement can route to
// it. The new node owns no buckets until MoveBucket assigns it some.
func (c *Cluster) AddDataNode() (int, error) {
	// The write side of routeMu is a barrier: no statement is in flight
	// while we hold it, and none can start until we release it. Commit and
	// abort paths take no route lock, so in-flight transactions can still
	// settle — which is exactly what enrolLocked's drain waits for.
	c.lockRoutes()
	defer c.routeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enrolLocked(-1, -1, nil)
}

// firstLiveLocked returns the lowest live, non-retired node id < n other
// than except (a node being wiped cannot seed itself), or -1. Caller holds
// c.mu.
func (c *Cluster) firstLiveLocked(n, except int) int {
	for i := 0; i < n; i++ {
		if i != except && !c.downNodes[i] && !c.retired[i] {
			return i
		}
	}
	return -1
}

// appendPartition returns p grown by one empty partition of ti on dn
// (copy-on-write: concurrent readers of the old set are unaffected).
func appendPartition(ti *TableInfo, p *tableParts, dn *DataNode) *tableParts {
	np := append(slices.Clone(*p), newPartition(ti.Meta, dn))
	return &np
}

// replacePartition returns p with the partition at idx replaced by a fresh
// empty one on dn (copy-on-write; standby re-enrollment wipes the retired
// node's data this way before re-seeding).
func replacePartition(ti *TableInfo, p *tableParts, idx int, dn *DataNode) *tableParts {
	np := slices.Clone(*p)
	np[idx] = newPartition(ti.Meta, dn)
	return &np
}

// seedSource is a partition a copy is seeded from: ti's on data node dn.
type seedSource struct {
	ti *TableInfo
	dn int
}

// seedRecs is the one read behind every seed (enrolment, analytical
// replicas): it drains every source — commits take no route lock, so they
// settle under the caller's barrier — and only then snapshots each as insert
// records of its visible rows, a definite prefix of the commit stream that a
// tap attached under the barrier continues. recs[i] seeds from srcs[i].
func (c *Cluster) seedRecs(srcs []seedSource) ([][]WriteRec, error) {
	deadline := time.Now().Add(c.drainTimeout())
	for _, s := range srcs {
		if err := waitSettled(s.ti.parts.Load(), s.dn, nil, deadline); err != nil {
			return nil, fmt.Errorf("table %q: %w", s.ti.Meta.Name, err)
		}
	}
	recs := make([][]WriteRec, len(srcs))
	for i, s := range srcs {
		rows := c.partitionRows(s.ti, s.dn, nil)
		recs[i] = make([]WriteRec, len(rows))
		for j, r := range rows {
			recs[i][j] = WriteRec{Table: s.ti.Meta.Name, Op: OpInsert, Row: r}
		}
	}
	return recs, nil
}

// copyReplica ships one table's seed records to the new node dst's empty
// partition as one RebalCopy bulk stream, an empty seed too, and applies
// them there. The commit is a plain one: a retired node being re-enrolled
// reads as down until enrolLocked publishes it, so commitLocal would abort.
func (c *Cluster) copyReplica(src seedSource, recs []WriteRec, dst *DataNode) error {
	if err := c.fab.Send(transport.DN(src.dn), transport.DN(dst.ID), transport.RebalCopy, rowPayload(src.ti, len(recs))); err != nil {
		return err
	}
	xid, err := c.applyRecs(dst, src.ti, recs)
	if err != nil {
		return err
	}
	return dst.Txm.Commit(xid)
}

// waitSettled polls one partition until no version matching pred has an
// active or prepared transaction stamp, or deadline passes.
func waitSettled(parts *tableParts, dnID int, pred func(types.Row) bool, deadline time.Time) error {
	for {
		n := (*parts)[dnID].unsettled(pred)
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drain timed out with %d unsettled versions on dn%d: %w", n, dnID, ErrRebalanceRetry)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// moveHook fires the test hook if installed.
func (c *Cluster) moveHook(stage string, bucket, target int) {
	if c.MoveHook != nil {
		c.MoveHook(stage, bucket, target)
	}
}

// MoveBucket migrates one hash bucket to the target data node while
// statements keep flowing:
//
//  1. live copy — under a fresh GTM-lite (local) snapshot per table, sync
//     the target's bucket contents to the source's (multiset diff, so a
//     retried move never duplicates rows);
//  2. freeze — writes to the bucket now fail retryably instead of
//     blocking; reads keep hitting the source;
//  3. drain — wait until no version in the bucket has an unsettled
//     (active/prepared) transaction stamp, so the final snapshot is
//     complete;
//  4. delta — one more sync applies everything that landed during the
//     copy;
//  5. flip — reassign the bucket in the routing map and unfreeze, under
//     the route barrier so no statement ever sees a half-flipped view;
//  6. reap — physically drop the retired source rows (row storage;
//     columnar partitions are append-only, their retired rows simply stay
//     invisible behind the bucket-ownership filter).
//
// Failures (down nodes, drain timeout) abort the move with an error
// wrapping ErrRebalanceRetry: the bucket stays on its source, copied rows
// stay invisible on the target, and a retry is safe.
func (c *Cluster) MoveBucket(bucket, target int) (int, error) {
	if bucket < 0 || bucket >= NumBuckets {
		return 0, fmt.Errorf("cluster: bucket %d out of range [0,%d)", bucket, NumBuckets)
	}
	if target < 0 || target >= c.DataNodeCount() {
		return 0, fmt.Errorf("cluster: move target dn%d does not exist", target)
	}

	// Claim the bucket and (permanently) enable bucket-ownership filtering.
	// Taking the write lock here is also a barrier: once we proceed, no
	// statement started under filterByBucket=false is still running, so
	// every scan that could observe our copies filters them out.
	c.lockRoutes()
	// Standby mirrors and retired nodes never own buckets: rejecting them
	// here is a permanent configuration error, not a retryable failure.
	if p, isStandby := c.standbys[target]; isStandby {
		c.routeMu.Unlock()
		return 0, fmt.Errorf("cluster: move target dn%d is a standby (of dn%d)", target, p)
	}
	if c.isRetired(target) {
		// A target retired by a promotion has a live successor: surface the
		// fence so the orchestrator re-targets it. Without one, the plan
		// names a node that can never own buckets — a permanent error.
		if _, ok := c.successor[target]; ok {
			c.routeMu.Unlock()
			return 0, fmt.Errorf("cluster: move target dn%d was retired by a promotion: %w", target, ErrShardFenced)
		}
		c.routeMu.Unlock()
		return 0, fmt.Errorf("cluster: move target dn%d is retired", target)
	}
	source := c.bmap.dn[bucket]
	if source == target {
		c.routeMu.Unlock()
		return 0, nil
	}
	if c.migrating[bucket] {
		c.routeMu.Unlock()
		return 0, fmt.Errorf("cluster: bucket %d move already in flight: %w", bucket, ErrRebalanceRetry)
	}
	c.migrating[bucket] = true
	c.filterByBucket = true
	c.routeMu.Unlock()

	frozen := false
	defer func() {
		c.lockRoutes()
		c.migrating[bucket] = false
		if frozen {
			c.frozen[bucket] = false
			c.frozenCount--
		}
		c.routeMu.Unlock()
	}()

	tables := c.distributedTables()

	fail := func(stage string, err error) (int, error) {
		// Leave the map untouched; physically drop whatever the copy
		// already landed on the target (row storage — harmless even if a
		// concurrent retry re-copies, thanks to the multiset sync).
		c.reapBucket(tables, target, bucket)
		if errors.Is(err, ErrRebalanceRetry) {
			return 0, fmt.Errorf("cluster: move bucket %d dn%d->dn%d failed at %s: %w", bucket, source, target, stage, err)
		}
		return 0, fmt.Errorf("cluster: move bucket %d dn%d->dn%d failed at %s: %v: %w", bucket, source, target, stage, err, ErrRebalanceRetry)
	}

	// downErr distinguishes a shard inside its failover window (fenced: a
	// promotion will resolve it, the orchestrator should wait) from a
	// plainly dead node (retry and hope).
	downErr := func(id int) error {
		if c.ShardFenced(id) {
			return fmt.Errorf("dn%d: %w", id, ErrShardFenced)
		}
		return ErrNodeDown
	}
	liveErr := func() error {
		if c.nodeDown(source) {
			return downErr(source)
		}
		if c.nodeDown(target) {
			return downErr(target)
		}
		return nil
	}

	if err := liveErr(); err != nil {
		return fail("start", err)
	}

	// Phase 1: live copy under traffic.
	copied := 0
	for _, ti := range tables {
		n, err := c.syncBucketTable(ti, bucket, source, target, transport.RebalCopy)
		if err != nil {
			return fail("copy", err)
		}
		copied += n
	}
	c.moveHook("copied", bucket, target)
	if err := liveErr(); err != nil {
		return fail("copy", err)
	}

	// Phase 2: freeze the bucket.
	c.lockRoutes()
	c.frozen[bucket] = true
	c.frozenCount++
	c.routeMu.Unlock()
	frozen = true
	c.moveHook("frozen", bucket, target)

	// Phase 3: drain in-flight transactions touching the bucket.
	deadline := time.Now().Add(c.drainTimeout())
	for _, ti := range tables {
		if err := waitSettled(ti.parts.Load(), source, inBucket(ti, bucket), deadline); err != nil {
			return fail("drain", err)
		}
	}

	// Phase 4: final delta while frozen.
	if c.nodeDown(target) {
		return fail("delta", downErr(target))
	}
	for _, ti := range tables {
		n, err := c.syncBucketTable(ti, bucket, source, target, transport.RebalDelta)
		if err != nil {
			return fail("delta", err)
		}
		copied += n
	}

	// Phase 5: flip the map and unfreeze atomically. The write lock waits
	// out every in-flight statement, so none straddles the flip.
	c.lockRoutes()
	c.bmap.dn[bucket] = target
	c.frozen[bucket] = false
	c.frozenCount--
	frozen = false
	c.routeMu.Unlock()
	c.moveHook("flipped", bucket, target)

	// Phase 6: reap retired source rows. After the flip barrier no snapshot
	// can reach them (new statements filter by ownership), so physical
	// removal is safe.
	c.reapBucket(tables, source, bucket)
	return copied, nil
}

// distributedTables snapshots the hash-distributed stored tables.
func (c *Cluster) distributedTables() []*TableInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*TableInfo
	for _, ti := range c.tables {
		if !ti.replicated && ti.Meta.DistKey >= 0 {
			out = append(out, ti)
		}
	}
	return out
}

// inBucket matches ti's rows whose distribution key hashes to bucket.
func inBucket(ti *TableInfo, bucket int) func(types.Row) bool {
	col := ti.Meta.DistKey
	return func(r types.Row) bool { return BucketOf(r[col]) == bucket }
}

// reapBucket physically removes the bucket's rows from one node's
// partitions (see partition.reap: row storage only).
func (c *Cluster) reapBucket(tables []*TableInfo, dnID, bucket int) {
	logging := c.tapInstalled()
	for _, ti := range tables {
		if ti.columnar() {
			continue
		}
		ti.part(dnID).reap(inBucket(ti, bucket))
		if logging {
			// Ship the reap so the node's standby mirror drops the same
			// rows; by now no commit can write this bucket on this node, so
			// taking the commit lock only orders the record in the stream.
			dn := c.node(dnID)
			dn.commitMu.Lock()
			wait := c.tapCommitted(dnID, []WriteRec{{Table: ti.Meta.Name, Op: OpReap, Bucket: bucket}})
			dn.commitMu.Unlock()
			if wait != nil {
				wait()
			}
		}
	}
}

// syncBucketTable makes the target partition's bucket contents equal to the
// source's, as of fresh local snapshots, inside one target-local
// transaction. It is a multiset diff — a delete record per surplus target
// instance, then an insert record per missing source row (an updated row's
// stale copy must end before its successor passes the key check) — which
// makes both the initial copy and the post-freeze delta the same idempotent
// operation, and returns the number of rows inserted. A columnar target
// never holds rows the source lost (no SQL UPDATE / DELETE), and a diff that
// would delete from one fails. The diff ships source -> target over the
// fabric as one bulk message of type mt (RebalCopy for the phase-1 copy,
// RebalDelta for the post-freeze delta); a lost stream fails the sync before
// any local change, so the caller's retry re-runs the same idempotent diff.
func (c *Cluster) syncBucketTable(ti *TableInfo, bucket, source, target int, mt transport.MsgType) (int, error) {
	srcRows := c.partitionRows(ti, source, inBucket(ti, bucket))
	tgtRows := c.partitionRows(ti, target, inBucket(ti, bucket))

	have := make(map[string]int, len(tgtRows))
	var key []byte
	for _, r := range tgtRows {
		key = r.AppendKey(key[:0])
		have[string(key)]++
	}
	var inserts []WriteRec
	for _, r := range srcRows {
		key = r.AppendKey(key[:0])
		if have[string(key)] > 0 {
			have[string(key)]--
		} else {
			inserts = append(inserts, WriteRec{Table: ti.Meta.Name, Op: OpInsert, Row: r})
		}
	}
	var recs []WriteRec
	for _, r := range tgtRows {
		key = r.AppendKey(key[:0])
		if have[string(key)] > 0 {
			have[string(key)]--
			recs = append(recs, WriteRec{Table: ti.Meta.Name, Op: OpDelete, Old: r})
		}
	}
	recs = append(recs, inserts...)
	if len(recs) == 0 {
		return 0, nil
	}
	if err := c.fab.Send(transport.DN(source), transport.DN(target), mt, rowPayload(ti, len(recs))); err != nil {
		return 0, err
	}

	// Commit through commitLocal: the sync aborts if the target was marked
	// down mid-move, and its records ship to the target's standby (if any),
	// so bucket moves compose with replication.
	tgtDN := c.node(target)
	xid, err := c.applyRecs(tgtDN, ti, recs)
	if err != nil {
		return 0, err
	}
	var logged []WriteRec
	if c.tapInstalled() {
		logged = recs
	}
	return len(inserts), c.commitLocal(tgtDN, xid, logged)
}

// TableDigest is an order-independent summary of a table's visible
// contents: the row count and a commutative sum of per-row hashes. Two
// digests are equal iff the visible multisets of rows are equal (modulo
// hash collisions).
type TableDigest struct {
	Rows int64
	Sum  uint64
}

// add folds rows into the digest — the one row-hash loop behind
// TableChecksum, PartitionDigest and DigestRows.
func (d *TableDigest) add(rows []types.Row) {
	h := fnv.New64a()
	var key []byte
	for _, r := range rows {
		h.Reset()
		key = r.AppendKey(key[:0])
		_, _ = h.Write(key)
		d.Sum += h.Sum64()
		d.Rows++
	}
}

// TableChecksum digests the cluster-wide visible contents of a table under
// fresh local snapshots. Distributed tables sum their owned rows across all
// shards; replicated tables digest one live replica.
func (c *Cluster) TableChecksum(name string) (TableDigest, error) {
	ti, err := c.tableInfo(name)
	if err != nil {
		return TableDigest{}, err
	}
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	var ids []int
	if ti.replicated {
		live := c.liveNodes(allDNs(c.DataNodeCount()))
		if len(live) == 0 {
			return TableDigest{}, ErrNodeDown
		}
		ids = live[:1]
	} else {
		ids = allDNs(c.DataNodeCount())
	}
	var d TableDigest
	for _, dnID := range ids {
		d.add(c.partitionRows(ti, dnID, c.ownsRow(ti, dnID)))
	}
	return d, nil
}

// DNVisibleRows counts the owned, visible rows of a table on one shard
// (route-coverage checks in tests and experiments).
func (c *Cluster) DNVisibleRows(name string, dnID int) (int, error) {
	ti, err := c.tableInfo(name)
	if err != nil {
		return 0, err
	}
	if dnID < 0 || dnID >= c.DataNodeCount() {
		return 0, fmt.Errorf("cluster: dn%d does not exist", dnID)
	}
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	return len(c.partitionRows(ti, dnID, c.ownsRow(ti, dnID))), nil
}
