// Package cluster implements the FI-MPPDB deployment of the paper's Fig 1:
// coordinator-node logic (SQL routing, distributed planning, transaction
// coordination), shared-nothing data nodes (hash-partitioned MVCC storage,
// row and columnar), the two-phase commit protocol, and the two
// transaction-management modes the Fig 3 experiment compares:
//
//   - ModeBaseline: every transaction acquires a GXID and global snapshot
//     from the centralized GTM (Postgres-XC style).
//   - ModeGTMLite: single-shard transactions run entirely on local XIDs and
//     snapshots; only multi-shard transactions visit the GTM and use merged
//     snapshots (Algorithm 1).
//
// The "machines" are in-process: each data node owns an independent
// transaction manager and storage partitions, and an optional per-hop
// latency models the network.
//
// Routing goes through a fixed-size hash-bucket map (BucketMap) instead of
// a direct hash % N, which is what makes online expansion possible:
// AddDataNode registers new shards at runtime and MoveBucket migrates one
// bucket of data with a copy / freeze / drain / delta / flip protocol (see
// rebalance.go in this package, and internal/rebalance for orchestration).
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/gtm"
	"repro/internal/plan"
	"repro/internal/planstore"
	"repro/internal/sqlx"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// TxnMode selects the distributed transaction protocol.
type TxnMode uint8

// Transaction modes.
const (
	// ModeGTMLite is the paper's contribution (§II-A2).
	ModeGTMLite TxnMode = iota
	// ModeBaseline is the conventional all-transactions-through-GTM design.
	ModeBaseline
)

func (m TxnMode) String() string {
	if m == ModeBaseline {
		return "baseline"
	}
	return "gtm-lite"
}

// Config configures a cluster.
type Config struct {
	// DataNodes is the number of shards at creation (>= 1); AddDataNode can
	// grow the cluster afterwards, so DataNodeCount is the authoritative
	// live count.
	DataNodes int
	// Mode selects GTM-lite or baseline transaction management.
	Mode TxnMode
	// GTMServiceTime is CPU charged per GTM request while serialized
	// (0 disables the cost model; used by unit tests).
	GTMServiceTime time.Duration
	// HopLatency seeds the transport fabric's base one-way latency per
	// cross-node message (0 disables; implemented with sleep). It is the
	// creation-time value only: runtime changes go through
	// Fabric().SetBaseLatency and are not reflected here.
	HopLatency time.Duration
}

// partition is one table's storage on one data node: a row heap or a
// columnar table, exactly one of the two. Its methods hide which from the
// callers that do not care — apply a record, list what is visible, count
// what is unsettled, drop rows physically; the ones that do (fragSource, the
// UPDATE / DELETE body, column statistics, vacuum) read the field.
type partition struct {
	row *storage.Table
	col *colstore.Table
}

// newPartition creates table meta's empty partition on dn.
func newPartition(meta *plan.TableMeta, dn *DataNode) partition {
	if meta.Storage == sqlx.StorageColumn {
		return partition{col: colstore.NewTable(meta.Name, meta.Schema, dn.Txm)}
	}
	return partition{row: storage.NewTable(meta.Name, meta.Schema, meta.PKCols, dn.Txm)}
}

// apply writes one record — an INSERT's row; a copy's shipped, diffed or
// seeded record — under the leg (xid, snap): an insert appends rec.Row; an
// update or delete ends one visible instance of rec.Old through Rewrite,
// probing the key index for its primary key, and an update appends rec.Row
// as its successor. Columnar partitions take inserts only.
func (p partition) apply(xid txnkit.XID, snap *txnkit.Snapshot, rec WriteRec) error {
	switch {
	case p.col != nil && rec.Op == OpInsert:
		return p.col.Insert(xid, rec.Row)
	case p.col != nil:
		return errors.New("columnar partitions take inserts only")
	case rec.Op == OpInsert:
		return p.row.Insert(xid, snap, rec.Row)
	}
	old := rec.Old.AppendKey(nil)
	var buf []byte
	found := false
	n, err := p.row.Rewrite(xid, snap, p.row.KeyOf(rec.Old), func(r types.Row) (bool, error) {
		if !found {
			buf = r.AppendKey(buf[:0])
			found = bytes.Equal(buf, old)
			return found, nil
		}
		return false, nil
	}, func(types.Row) (types.Row, error) { return rec.Row, nil })
	if err == nil && n != 1 {
		err = errors.New("no visible instance of the old row")
	}
	return err
}

// visibleRows lists the rows visible to snap that keep accepts (nil: all).
// The rows are the caller's to retain.
func (p partition) visibleRows(snap *txnkit.Snapshot, keep func(types.Row) bool) []types.Row {
	var out []types.Row
	if p.col != nil {
		p.col.ScanRows(0, snap, func(r types.Row) bool {
			if keep == nil || keep(r) {
				out = append(out, r)
			}
			return true
		})
		return out
	}
	p.row.Scan(0, snap, func(r types.Row) bool {
		if keep == nil || keep(r) {
			out = append(out, r.Clone())
		}
		return true
	})
	return out
}

// unsettled counts the versions matching pred (nil: all) stamped by a
// transaction that is still active or prepared.
func (p partition) unsettled(pred func(types.Row) bool) int {
	if p.col != nil {
		return p.col.UnsettledCount(pred)
	}
	return p.row.UnsettledCount(pred)
}

// reap physically drops every version matching pred. Columnar partitions
// are append-only: their retired rows stay, invisible behind the
// bucket-ownership filter.
func (p partition) reap(pred func(types.Row) bool) {
	if p.row != nil {
		p.row.Reap(pred)
	}
}

// tableParts holds one table's partitions, indexed by data node. The set is
// copy-on-write: AddDataNode swaps in a grown set while in-flight statements
// keep reading the one they loaded.
type tableParts []partition

// TableInfo is the coordinator's catalog entry for one table.
type TableInfo struct {
	Meta *plan.TableMeta
	// parts is the copy-on-write partition set (see tableParts).
	parts atomic.Pointer[tableParts]
	// replicated tables keep a full copy on every DN.
	replicated bool
}

// part returns the table's partition on data node dnID.
func (ti *TableInfo) part(dnID int) partition { return (*ti.parts.Load())[dnID] }

// columnar reports whether the table uses columnar storage.
func (ti *TableInfo) columnar() bool { return ti.Meta.Storage == sqlx.StorageColumn }

// DataNode is one shared-nothing shard.
type DataNode struct {
	ID  int
	Txm *txnkit.TxnManager

	// commitMu serializes commit-with-record-shipping on this node, so the
	// commit tap (standby replication) observes records in commit order.
	commitMu sync.Mutex
	// committing counts in-flight commits holding a slot on this node; a
	// failover drains it after marking the node down (see WaitCommitsSettled).
	committing atomic.Int64
}

// Cluster is an embedded FI-MPPDB instance.
type Cluster struct {
	cfg Config
	gtm *gtm.GTM
	// dns is the live data-node set, copy-on-write so hot paths (routing,
	// commit confirmations) read it without locks. Grown only by
	// AddDataNode; existing entries are never replaced or removed.
	dns atomic.Pointer[[]*DataNode]

	mu     sync.RWMutex
	tables map[string]*TableInfo

	// routeMu orders statements against routing changes: every statement
	// holds the read side for its whole execution, so the bucket map it
	// routes and filters with is immutable until the statement finishes.
	// AddDataNode and bucket cutover (freeze / flip) take the write side
	// briefly. Commit/abort paths deliberately take no route lock, so
	// in-flight transactions can always settle while a cutover drains.
	// Lock order: routeMu before mu. Writers take it through lockRoutes.
	routeMu sync.RWMutex
	// epoch counts the changes a compiled statement may have assumed away:
	// every route-barrier holder (lockRoutes) and every catalog change (DDL,
	// ANALYZE) bumps it, and a prepared statement recompiles when it has
	// moved (see planStamp).
	epoch atomic.Uint64
	// bmap is the bucket -> data node routing map. Guarded by routeMu.
	bmap *BucketMap
	// frozen marks buckets in their cutover window: writes to them fail
	// with ErrBucketMigrating instead of blocking. Guarded by routeMu.
	frozen      [NumBuckets]bool
	frozenCount int
	// migrating claims buckets with an in-flight move. Guarded by routeMu.
	migrating [NumBuckets]bool
	// filterByBucket turns on per-row bucket-ownership filtering in every
	// scan path. It is set (permanently) before the first bucket copy
	// begins, so rows that exist on a shard whose bucket the map assigns
	// elsewhere — half-copied or retired by a migration — are never
	// visible. Until the first expansion scans skip the per-row hash
	// entirely. Guarded by routeMu.
	filterByBucket bool

	// Learning optimizer (paper §II-C). Store is always present; Learning
	// captures each statement's step counts and plans with them.
	Store    *planstore.Store
	Learning bool

	// Clock returns the statement timestamp; overridable for deterministic
	// tests. Defaults to time.Now.
	Clock func() time.Time

	// Hooks plugs in the ggraph and gspatial compilers (§II-B);
	// internal/multimodel installs them.
	Hooks plan.Hooks

	// MoveHook, when set, is called at named stages of a bucket move
	// ("copied", "frozen", "flipped"). Test hook for failure injection;
	// set it before starting any moves.
	MoveHook func(stage string, bucket, target int)

	// DrainTimeout bounds how long a bucket cutover (or node addition)
	// waits for in-flight transactions to settle before giving up with a
	// retryable error. 0 means the 5s default.
	DrainTimeout time.Duration

	// ParallelDegree caps how many data-node fragments of one statement
	// execute concurrently. 0 (the default) means GOMAXPROCS; 1 forces the
	// sequential scan path. Results are identical at every degree (the
	// exchange merges fragments in DN order).
	ParallelDegree int
	// DisableSegmentPrune turns off zone-map segment pruning on columnar
	// scans. E13's with/without rows and the prune-identity tests
	// (TestSegmentPruningReducesRowsScanned, TestShapePreparedPrunesLikeLiteral:
	// the same answers with pruning off) are what keep it.
	DisableSegmentPrune bool
	// Pushdown caps how much scan work the planner pushes to the data
	// nodes (ablation ladder for E18); the zero value is full pushdown.
	// Results are identical at every level — pushdown only changes where
	// rows are dropped, never which rows survive.
	Pushdown plan.PushdownLevel
	// JoinPolicy steers distributed join strategy selection (E20): the
	// zero value chooses automatically, Disable forces the CN-fallback
	// path, Force pins one strategy. Results are identical under every
	// policy — the strategy only changes where the join runs.
	JoinPolicy plan.DistJoinPolicy
	// fab carries every cross-node message: latency model, per-type
	// counters, fault injection (see internal/transport).
	fab *transport.Fabric

	// Coordinator-failure failpoints (test hooks; see the Failpoint*
	// methods).
	failCrashAfterGTM  atomic.Bool
	failCrashBeforeGTM atomic.Bool

	// downNodes marks data nodes that are offline (guarded by mu).
	downNodes map[int]bool
	// retired marks former primaries replaced by a promoted standby; they
	// never serve again (guarded by mu; see standby.go).
	retired map[int]bool

	// Standby pairing (guarded by routeMu): standbys maps standby -> its
	// upstream (a primary, or another standby in a chained topology),
	// standbyOf maps upstream -> its standbys in attach order. See
	// standby.go.
	standbys  map[int]int
	standbyOf map[int][]int
	// successor maps a retired primary to the standby promoted in its
	// place, so a rebalance targeting the dead node can re-target the live
	// successor (guarded by routeMu).
	successor map[int]int
	// taps publishes the AddCommitTap subscriptions (standby replication,
	// HTAP ingest); nil while there are none. Writers hold tapMu.
	taps  atomic.Pointer[[]*tapEntry]
	tapMu sync.Mutex
	// analytical publishes the HTAP read provider (columnar replicas plus
	// freshness gate); nil until htap.Enable installs one.
	analytical atomic.Pointer[AnalyticalProvider]
	// stash parks prepared 2PC legs' records across the in-doubt window
	// (guarded by stashMu).
	stashMu sync.Mutex
	stash   map[stashKey][]WriteRec
	// Read-replica routing (guarded by routeMu; nil = off; see
	// SetStandbyReads).
	standbyReadable func(primary int) (int, bool)

	// heat counts per-bucket key routings (reads and writes), always on —
	// one atomic add per routed key. The autopilot diffs snapshots of it
	// (BucketHeat) to find hot buckets worth spreading. See heat.go.
	heat [NumBuckets]atomic.Int64
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.DataNodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one data node, got %d", cfg.DataNodes)
	}
	bmap, err := NewBucketMap(cfg.DataNodes)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		gtm:       gtm.New(cfg.GTMServiceTime),
		tables:    make(map[string]*TableInfo),
		downNodes: map[int]bool{},
		retired:   map[int]bool{},
		standbys:  map[int]int{},
		standbyOf: map[int][]int{},
		successor: map[int]int{},
		Store:     planstore.New(),
		Clock:     time.Now,
		bmap:      bmap,
		fab:       transport.New(transport.Config{BaseLatency: cfg.HopLatency}),
	}
	nodes := make([]*DataNode, cfg.DataNodes)
	for i := 0; i < cfg.DataNodes; i++ {
		nodes[i] = &DataNode{ID: i, Txm: txnkit.NewTxnManager()}
	}
	c.dns.Store(&nodes)
	return c, nil
}

// Config returns the cluster configuration (DataNodes is the creation-time
// count; see DataNodeCount for the live one).
func (c *Cluster) Config() Config { return c.cfg }

// GTMStats returns the GTM request counters (the Fig 3 bottleneck metric).
func (c *Cluster) GTMStats() gtm.Stats { return c.gtm.Stats() }

// nodes returns the live data-node set (immutable snapshot).
func (c *Cluster) nodes() []*DataNode { return *c.dns.Load() }

// node returns one data node by id.
func (c *Cluster) node(id int) *DataNode { return (*c.dns.Load())[id] }

// DataNodeCount returns the number of shards.
func (c *Cluster) DataNodeCount() int { return len(c.nodes()) }

// DataNodes exposes the shards for monitoring (autonomous housekeeping,
// tests). The returned slice is an immutable snapshot.
func (c *Cluster) DataNodes() []*DataNode { return c.nodes() }

// Fabric returns the cluster's transport fabric: per-message-type traffic
// counters, the latency/bandwidth model, and fault injection (drops,
// delays, partitions). Partitioned data nodes read as down to every
// liveness check (see nodeDown).
func (c *Cluster) Fabric() *transport.Fabric { return c.fab }

// sendDN models one coordinator -> data-node message of type t.
func (c *Cluster) sendDN(dnID int, t transport.MsgType, payloadBytes int) error {
	return c.fab.Send(transport.CN(), transport.DN(dnID), t, payloadBytes)
}

// sendFromDN models one data-node -> coordinator message (result streams).
func (c *Cluster) sendFromDN(dnID int, t transport.MsgType, payloadBytes int) error {
	return c.fab.Send(transport.DN(dnID), transport.CN(), t, payloadBytes)
}

// sendDNs sends one payload-free message of type t to each listed data node
// and fails if any was lost: a single message is awaited as such, several go
// out as one wave (one hop, not one per node).
func (c *Cluster) sendDNs(ids []int, t transport.MsgType) error {
	if len(ids) == 1 {
		return c.sendDN(ids[0], t, 0)
	}
	for _, err := range c.waveDN(ids, t) {
		if err != nil {
			return err
		}
	}
	return nil
}

// waveDN is sendDNs reporting each node's loss (see transport.Fabric.Wave).
func (c *Cluster) waveDN(ids []int, t transport.MsgType) []error {
	tos := make([]transport.Endpoint, len(ids))
	for i, id := range ids {
		tos[i] = transport.DN(id)
	}
	return c.fab.Wave(transport.CN(), tos, t, 0)
}

// postDN puts one coordinator -> data-node message on the fabric without
// waiting for it: the sender needs no answer (a read-only transaction
// releasing a leg, an abort), so the message is accounted and can be lost,
// but is on no statement's critical path.
func (c *Cluster) postDN(dnID int, t transport.MsgType) error {
	_, err := c.fab.Post(transport.CN(), transport.DN(dnID), t, 0)
	return err
}

// sendGTM models one CN <-> GTM round trip. The GTM endpoint participates
// in latency, delay faults and accounting, but lost messages are only
// counted, never surfaced: the transaction paths treat the GTM as always
// decidable (partition-tolerant GTM consensus is out of scope).
func (c *Cluster) sendGTM(t transport.MsgType) {
	_ = c.fab.Send(transport.CN(), transport.GTM(), t, 0)
}

// postGTM is sendGTM for an outcome the coordinator only reports (the end
// of a read-only or aborted global transaction): accounted, not waited for.
func (c *Cluster) postGTM(t transport.MsgType) {
	_, _ = c.fab.Post(transport.CN(), transport.GTM(), t, 0)
}

// rowPayload estimates the wire size of n rows of ti for the fabric's
// bandwidth model (8 bytes per datum; bulk streams only — a statement's
// write wave is counted without payload).
func rowPayload(ti *TableInfo, n int) int {
	return n * ti.Meta.Schema.Len() * 8
}

// parallelDegree resolves the effective fragment concurrency.
func (c *Cluster) parallelDegree() int {
	if c.ParallelDegree > 0 {
		return c.ParallelDegree
	}
	return runtime.GOMAXPROCS(0)
}

// TableScanStats aggregates zone-map scan counters across a columnar
// table's partitions (zero stats for row tables).
func (c *Cluster) TableScanStats(name string) (colstore.ScanStats, error) {
	c.mu.RLock()
	ti, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return colstore.ScanStats{}, fmt.Errorf("cluster: unknown table %q", name)
	}
	var st colstore.ScanStats
	for _, p := range *ti.parts.Load() {
		if p.col != nil {
			st.Add(p.col.ScanStats())
		}
	}
	return st, nil
}

// ColstoreStats aggregates columnar storage and scan counters across every
// columnar partition in the cluster — segment shape, tombstones,
// compression, and zone-map pruning, for the autopilot's information
// store.
func (c *Cluster) ColstoreStats() (colstore.TableStats, colstore.ScanStats) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var ts colstore.TableStats
	var ss colstore.ScanStats
	for _, ti := range c.tables {
		for _, p := range *ti.parts.Load() {
			if p.col != nil {
				ts.Add(p.col.Stats())
				ss.Add(p.col.ScanStats())
			}
		}
	}
	return ts, ss
}

// shardFor routes a distribution-key datum to a data node through the
// bucket map. Callers must hold routeMu (statements hold the read side for
// their whole execution).
func (c *Cluster) shardFor(key types.Datum) int {
	b := BucketOf(key)
	c.touchHeat(b)
	return c.bmap.dn[b]
}

// frozenErr fails writes into a bucket frozen for cutover with
// ErrBucketMigrating (retryable) rather than block them, so the cutover
// drain can never deadlock against a stalled writer. Caller must hold
// routeMu.
func (c *Cluster) frozenErr(b int) error {
	if c.frozenCount > 0 && c.frozen[b] {
		return fmt.Errorf("%w (bucket %d)", ErrBucketMigrating, b)
	}
	return nil
}

// writeTarget routes one row's distribution key for a write (see
// frozenErr). Caller must hold routeMu.
func (c *Cluster) writeTarget(key types.Datum) (int, error) {
	b := BucketOf(key)
	c.touchHeat(b)
	return c.bmap.dn[b], c.frozenErr(b)
}

// needsBucketFilter reports whether scans of ti must apply per-row bucket
// ownership filtering. Caller must hold routeMu.
func (c *Cluster) needsBucketFilter(ti *TableInfo) bool {
	return c.filterByBucket && !ti.replicated && ti.Meta.DistKey >= 0
}

// BucketOwners returns a copy of the routing map (bucket -> data node id).
func (c *Cluster) BucketOwners() []int {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	return c.bmap.Owners()
}

// RouteKey reports the data node a distribution-key datum currently routes
// to (monitoring and tests).
func (c *Cluster) RouteKey(key types.Datum) int {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	return c.bmap.DNFor(key)
}

// ExpansionPlan returns the buckets that should migrate to newDN to
// rebalance the current map (see BucketMap.PlanExpansion).
func (c *Cluster) ExpansionPlan(newDN int) []int {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	return c.bmap.PlanExpansion(newDN, c.DataNodeCount())
}

// Resolve implements plan.Catalog.
func (c *Cluster) Resolve(name string) (*plan.TableMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ti, ok := c.tables[strings.ToLower(name)]; ok {
		return ti.Meta, nil
	}
	return nil, &plan.ErrTableNotFound{Name: name}
}

func (c *Cluster) tableInfo(name string) (*TableInfo, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ti, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, &plan.ErrTableNotFound{Name: name}
	}
	return ti, nil
}

// createTable applies a CREATE TABLE statement: partitions are created on
// every data node.
func (c *Cluster) createTable(ct *sqlx.CreateTable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(ct.Name)
	if _, exists := c.tables[key]; exists {
		if ct.IfNotExists {
			return nil
		}
		return fmt.Errorf("cluster: table %q already exists", ct.Name)
	}
	cols := make([]types.Column, len(ct.Columns))
	for i, cd := range ct.Columns {
		cols[i] = types.Column{Name: strings.ToLower(cd.Name), Kind: cd.Kind}
	}
	schema := &types.Schema{Columns: cols}

	distKey := -1
	if ct.DistKey != "" {
		distKey = schema.ColumnIndex(ct.DistKey)
		if distKey < 0 {
			return fmt.Errorf("cluster: distribution column %q does not exist", ct.DistKey)
		}
	}
	var pkCols []int
	for _, pk := range ct.PrimaryKey {
		i := schema.ColumnIndex(pk)
		if i < 0 {
			return fmt.Errorf("cluster: primary key column %q does not exist", pk)
		}
		pkCols = append(pkCols, i)
	}
	replicated := ct.Replicated || distKey < 0

	ti := &TableInfo{
		Meta: &plan.TableMeta{
			Name:    key,
			Schema:  schema,
			DistKey: distKey,
			Storage: ct.Storage,
			PKCols:  pkCols,
		},
		replicated: replicated,
	}
	var parts tableParts
	for _, dn := range c.nodes() {
		parts = append(parts, newPartition(ti.Meta, dn))
	}
	ti.parts.Store(&parts)
	c.tables[key] = ti
	c.epoch.Add(1)
	return nil
}

// dropTable applies DROP TABLE.
func (c *Cluster) dropTable(dt *sqlx.DropTable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(dt.Name)
	if _, ok := c.tables[key]; !ok {
		if dt.IfExists {
			return nil
		}
		return &plan.ErrTableNotFound{Name: dt.Name}
	}
	delete(c.tables, key)
	c.epoch.Add(1)
	return nil
}

// Analyze recomputes optimizer statistics for a table (the ANALYZE
// utility) from every value a scan would see under a fresh read snapshot on
// each data node: a replicated table's one copy, or each node's owned rows
// (the fragment's ownership filter hides migration phantoms). The values
// are read where they lie — a columnar partition's column batches, a row
// partition's stored rows — and kept by column, in the typed form
// plan.StatsBuilder sorts without a comparator.
func (c *Cluster) Analyze(table string) error {
	ti, err := c.tableInfo(table)
	if err != nil {
		return err
	}
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	b := plan.NewStatsBuilder(ti.Meta.Schema)
	nodes := c.DataNodeCount()
	if ti.replicated {
		nodes = 1
	}
	dk := ti.Meta.DistKey
	for dnID := 0; dnID < nodes; dnID++ {
		snap := c.node(dnID).Txm.LocalSnapshot()
		owns := c.fragKeepDatum(ti, dnID)
		part := ti.part(dnID)
		if part.row != nil {
			part.row.Scan(0, &snap, func(r types.Row) bool {
				if owns == nil || owns(r[dk]) {
					b.AddRow(r)
				}
				return true
			})
			continue
		}
		var sel []bool
		part.col.ScanBatches(0, &snap, nil, func(bt *colstore.Batch) bool {
			sel = sel[:0]
			n := bt.N
			if owns != nil {
				n = 0
				for i := 0; i < bt.N; i++ {
					keep := owns(bt.Cols[dk].DatumAt(i))
					sel = append(sel, keep)
					if keep {
						n++
					}
				}
			}
			b.AddRows(n)
			for col, v := range bt.Cols {
				addVector(b.Col(col), v, bt.N, sel)
			}
			return true
		})
	}
	ti.Meta.Stats = b.Stats()
	c.epoch.Add(1)
	return nil
}

// addVector adds the first n values of v to cv: those sel marks, or all of
// them for an empty sel.
func addVector(cv *plan.ColumnValues, v *colstore.Vector, n int, sel []bool) {
	for i := 0; i < n; i++ {
		switch {
		case len(sel) > 0 && !sel[i]:
		case v.IsNull(i):
			cv.AddNull()
		case v.Kind == types.KindInt || v.Kind == types.KindTime:
			cv.AddInt(v.Ints[i])
		case v.Kind == types.KindFloat:
			cv.AddFloat(v.Floats[i])
		case v.Kind == types.KindString:
			cv.AddString(v.Strs[i])
		case v.Kind == types.KindBool:
			cv.AddBool(v.Bools[i])
		}
	}
}

// partitionRows returns the rows physically stored on dnID's partition of
// ti that are visible to a fresh local snapshot and that keep accepts (nil:
// all). Pass ownsRow for what a scan would see; the migration and
// replication machinery passes its own filter, because it needs the
// copied-but-not-cut-over rows ordinary scans hide.
func (c *Cluster) partitionRows(ti *TableInfo, dnID int, keep func(types.Row) bool) []types.Row {
	snap := c.node(dnID).Txm.LocalSnapshot()
	return ti.part(dnID).visibleRows(&snap, keep)
}

// ownsRow is fragKeepDatum over a whole row of ti. Caller must hold routeMu.
func (c *Cluster) ownsRow(ti *TableInfo, owner int) func(types.Row) bool {
	owns := c.fragKeepDatum(ti, owner)
	if owns == nil {
		return nil
	}
	dk := ti.Meta.DistKey
	return func(r types.Row) bool { return owns(r[dk]) }
}

// RecoverInDoubt resolves prepared-but-undecided transaction legs left
// behind by a failed coordinator. Each data node's in-doubt set is matched
// against the GTM's outcome log: a recorded commit finishes phase 2
// locally; a recorded abort (or a transaction the GTM never decided, whose
// coordinator is gone) rolls the leg back — the presumed-abort rule.
// It returns (committed, aborted) leg counts.
func (c *Cluster) RecoverInDoubt() (committed, aborted int) {
	for _, dn := range c.nodes() {
		cm, ab := c.ResolveInDoubt(dn.ID)
		committed += cm
		aborted += ab
	}
	return committed, aborted
}

// ResolveInDoubt resolves one node's prepared legs (see RecoverInDoubt).
// Decided commits ship their stashed records to the commit tap — a
// failover runs this on the dead primary before promoting, so a
// coordinator crash between the GTM decision and phase 2 cannot lose the
// decided writes. Recovery commits bypass the down check: the decision is
// already durable at the GTM.
func (c *Cluster) ResolveInDoubt(id int) (committed, aborted int) {
	dn := c.node(id)
	for gxid, xid := range dn.Txm.PreparedGlobals() {
		decidedCommit, known := c.gtm.Outcome(gxid)
		switch {
		case known && decidedCommit:
			// Recovery never blocks on standby ack; drop the wait.
			if _, err := c.commitTapped(dn, xid, c.takeStash(dn.ID, xid)); err == nil {
				committed++
			}
		case known && !decidedCommit:
			c.takeStash(dn.ID, xid)
			if err := dn.Txm.Abort(xid); err == nil {
				aborted++
			}
		default:
			// Undecided at the GTM: the coordinator died before
			// EndGlobal, so no participant can have committed.
			// Presumed abort.
			c.gtm.EndGlobal(gxid, false)
			c.takeStash(dn.ID, xid)
			if err := dn.Txm.Abort(xid); err == nil {
				aborted++
			}
		}
	}
	return committed, aborted
}

// FailpointCrashAfterGTMCommit, when set, makes the next multi-shard
// commit "crash" after the GTM records the commit decision but before any
// data node receives its phase-2 confirmation — the window Anomaly 1 and
// in-doubt recovery exist for. Test hook.
func (c *Cluster) FailpointCrashAfterGTMCommit(enable bool) {
	c.failCrashAfterGTM.Store(enable)
}

// FailpointCrashBeforeGTMCommit simulates a coordinator death after all
// legs prepared but before the GTM decision. Test hook.
func (c *Cluster) FailpointCrashBeforeGTMCommit(enable bool) {
	c.failCrashBeforeGTM.Store(enable)
}

// TruncateLCOs propagates the GTM's oldest-active horizon to every data
// node (the background housekeeping GTM-lite needs so LCOs stay small).
func (c *Cluster) TruncateLCOs() {
	horizon := c.gtm.OldestActive()
	for _, dn := range c.nodes() {
		dn.Txm.TruncateLCO(horizon)
	}
}

// ErrNodeDown is returned when a statement needs a data node that is
// marked offline and no replica can serve it.
var ErrNodeDown = errors.New("cluster: required data node is down")

// SetDataNodeDown marks a shard offline (or back online). While a node is
// down: reads of replicated tables fail over to live replicas; statements
// that need the node's hash partitions fail with ErrNodeDown — unless the
// node has a synced standby, in which case reads may be served there (see
// SetStandbyReads) and a failover (internal/repl) can promote the standby
// to take over the node's buckets entirely. Writes to replicated tables
// fail with ErrReplicatedWriteDown while any replica is down (all copies
// must stay consistent). Bucket moves touching a down node abort with a
// retryable error and leave the bucket on its source. Marking a node back
// up restores its routing, except for retired primaries (replaced by a
// promoted standby), which never serve again.
func (c *Cluster) SetDataNodeDown(id int, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.downNodes[id] = down
}

// nodeDown reports whether a shard is unavailable: marked offline,
// permanently retired by a failover, or cut off by an injected network
// partition. Folding the fabric's partition state in here is what makes
// partitions compose with everything built on liveness — requireLive,
// commit-path re-checks, and the replication failure detector's
// NodeIsDown probe all see a partitioned node exactly as a dead one.
func (c *Cluster) nodeDown(id int) bool {
	if c.fab.Unreachable(transport.DN(id)) {
		return true
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.downNodes[id] || c.retired[id]
}

// liveNodes filters ids to online shards.
func (c *Cluster) liveNodes(ids []int) []int {
	out := ids[:0:0]
	for _, id := range ids {
		if !c.nodeDown(id) {
			out = append(out, id)
		}
	}
	return out
}

// requireLive errors if any of ids is down.
func (c *Cluster) requireLive(ids ...int) error {
	for _, id := range ids {
		if c.nodeDown(id) {
			return fmt.Errorf("%w: dn%d", ErrNodeDown, id)
		}
	}
	return nil
}

// BloatInfo reports heap-version occupancy of one table (the autonomous
// database's self-healing signal: versions far above visible rows mean
// vacuum is overdue).
type BloatInfo struct {
	Versions int
	Visible  int
}

// Ratio returns versions per visible row (1.0 = no bloat). Empty tables
// report 1.
func (b BloatInfo) Ratio() float64 {
	if b.Visible == 0 {
		if b.Versions == 0 {
			return 1
		}
		return float64(b.Versions)
	}
	return float64(b.Versions) / float64(b.Visible)
}

// BloatReport summarizes version bloat for every row-storage table.
func (c *Cluster) BloatReport() map[string]BloatInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[string]BloatInfo{}
	for name, ti := range c.tables {
		if ti.columnar() {
			continue
		}
		var info BloatInfo
		for dnID, part := range *ti.parts.Load() {
			info.Versions += part.row.VersionCount()
			snap := c.node(dnID).Txm.LocalSnapshot()
			info.Visible += part.row.VisibleCount(0, &snap)
		}
		out[name] = info
	}
	return out
}

// InDoubtCount reports prepared global transaction legs awaiting
// resolution across all data nodes.
func (c *Cluster) InDoubtCount() int {
	n := 0
	for _, dn := range c.nodes() {
		n += len(dn.Txm.PreparedGlobals())
	}
	return n
}

// Vacuum reclaims dead row-store versions on every data node. It runs under
// the route barrier: the horizon is each node's oldest active xid, which
// only bounds the snapshots statements will take — one already in flight
// may list a since-committed writer as active and still need the version
// that writer replaced — so no statement may be in flight.
func (c *Cluster) Vacuum() int {
	c.lockRoutes()
	defer c.routeMu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, ti := range c.tables {
		for dnID, part := range *ti.parts.Load() {
			if part.row != nil {
				horizon := c.node(dnID).Txm.LocalSnapshot().Xmin
				total += part.row.Vacuum(horizon)
			}
		}
	}
	return total
}
