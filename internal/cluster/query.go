package cluster

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// stmtAccess implements plan.Access for one statement: scans gather rows
// from the routed data nodes under the statement's per-DN snapshots. Its
// state is shared by the statement's concurrent DN fragments, so the
// snapshot cache is mutex-guarded and the counters are atomic. The operators
// a compiled statement keeps are bound to one access object, so a prepared
// statement's executions share it: reset starts each one.
type stmtAccess struct {
	s *Session
	t *txn
	// routed lists, per pinned table, the data nodes to scan; tables absent
	// from it scan the default set. Written only during routing, before any
	// fragment starts.
	routed []tableShards
	// owners is routing's scratch list of the shards the statement reads.
	owners []int
	// scatter marks the statement as unrouted (scans every primary) —
	// the shape eligible for HTAP replica service. Written during
	// routing, before any fragment starts.
	scatter bool

	// What routing admitted for this statement (see admitReplicas); which
	// copy a fragment actually reads is fragSource's decision. htap, when
	// non-nil, is the analytical provider whose freshness gate passed:
	// fragments it has a columnar replica for never touch their primary,
	// so the statement takes no transaction leg there. standbys maps a
	// shard's owner to the synced standby that may serve its fragments
	// (nil when there is none). Written only during routing.
	htap     AnalyticalProvider
	standbys map[int]int

	mu sync.Mutex // guards snaps, htapSnaps
	// snaps caches the statement's snapshot per data node (nil: not taken
	// yet); the node set cannot grow under a statement's route pin.
	snaps []*txnkit.Snapshot
	// htapSnaps caches one replica-local snapshot per DN so concurrent
	// fragments (and multiple tables on one DN) read consistently;
	// allocated on first replica read.
	htapSnaps map[int]*txnkit.Snapshot

	// rowsShipped counts rows that crossed a partition -> coordinator
	// boundary; two-phase aggregation exists to shrink this number.
	rowsShipped atomic.Int64
}

// tableShards is one pinned table's routed shard set, ascending.
type tableShards struct {
	table  string
	shards []int
}

func (s *Session) newStmtAccess() *stmtAccess { return &stmtAccess{s: s} }

// reset starts an execution under transaction t: nothing routed, admitted,
// snapshotted or counted yet.
func (a *stmtAccess) reset(t *txn) {
	a.t = t
	a.routed, a.owners = a.routed[:0], a.owners[:0]
	a.scatter, a.htap, a.standbys, a.htapSnaps = false, nil, nil, nil
	if n := a.s.c.DataNodeCount(); len(a.snaps) != n {
		a.snaps = make([]*txnkit.Snapshot, n)
	} else {
		clear(a.snaps)
	}
	a.rowsShipped.Store(0)
}

// route adds shard to table's routed set (kept ascending, without
// duplicates: a table referenced twice must not be scanned twice).
func (a *stmtAccess) route(table string, shard int) {
	for i := range a.routed {
		if r := &a.routed[i]; r.table == table {
			if at, found := slices.BinarySearch(r.shards, shard); !found {
				r.shards = slices.Insert(r.shards, at, shard)
			}
			return
		}
	}
	// Grow into the slot a previous execution left behind, shard list and all.
	if n := len(a.routed); n < cap(a.routed) {
		a.routed = a.routed[:n+1]
		a.routed[n].table, a.routed[n].shards = table, append(a.routed[n].shards[:0], shard)
		return
	}
	a.routed = append(a.routed, tableShards{table: table, shards: []int{shard}})
}

// snapshotFor lazily acquires and caches the statement snapshot on a DN.
// The lock is held across acquisition so concurrent fragments of one
// statement can never read through two different snapshots on one DN.
func (a *stmtAccess) snapshotFor(dnID int) (*txnkit.Snapshot, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if snap := a.snaps[dnID]; snap != nil {
		return snap, nil
	}
	snap, err := a.t.snapshotFor(dnID)
	if err != nil {
		return nil, err
	}
	a.snaps[dnID] = snap
	return snap, nil
}

// dispatch sends the statement's request of type mt — a write, a fragment,
// a broadcast join's build side — to every node of ids, awaited as one
// message or one wave, and marks the transaction's legs there carried (see
// leg.carried): the request that does a oneShot leg's work also ends it.
// payload is charged on a single message only; a wave is payload-free.
func (a *stmtAccess) dispatch(mt transport.MsgType, payload int, ids ...int) error {
	c := a.s.c
	var err error
	if len(ids) == 1 {
		err = c.sendDN(ids[0], mt, payload)
	} else {
		err = c.sendDNs(ids, mt)
	}
	if err != nil {
		return err
	}
	a.t.carry(ids)
	return nil
}

// errStopped ends a fragment whose consumer declined a row. It is not the
// statement's error: a consumer declines only once its Exchange has been
// canceled by a sibling fragment's error, which is the one Open surfaces.
var errStopped = errors.New("cluster: fragment stopped by its consumer")

// fragment is the one envelope of a data-node fragment — a scan, a partial
// aggregate, a co-located join, one target of a broadcast or shuffle join —
// and the one place its wire is accounted. In order: the scan_frag request
// goes to node (payload bytes, ending a one-shot leg there: dispatch); body
// runs "on the node", handing out.ship each row it sends the coordinator;
// the shipped rows are counted; the reply comes back charged at shipped ×
// width datums. A fragment whose consumer stopped it (ship returned false)
// sends no reply and returns errStopped: its statement is failing, nobody
// reads the reply, and a join target must release the producers feeding it.
func (a *stmtAccess) fragment(node, payload, width int, emit func(types.Row) bool, body func(out *shipment) error) error {
	if err := a.dispatch(transport.ScanFrag, payload, node); err != nil {
		return err
	}
	out := &shipment{emit: emit}
	err := body(out)
	a.rowsShipped.Add(int64(out.rows))
	switch {
	case out.stopped:
		return errStopped
	case err != nil:
		return err
	}
	return a.s.c.sendFromDN(node, transport.ScanFrag, out.rows*width*8)
}

// shipment is what a fragment body sends its consumer, counted.
type shipment struct {
	emit    func(types.Row) bool
	rows    int
	stopped bool // emit declined a row
}

// ship hands r to the consumer; false: stop producing.
func (s *shipment) ship(r types.Row) bool {
	s.rows++
	s.stopped = !s.emit(r)
	return !s.stopped
}

// targetsFor picks the data nodes a scan of ti must visit.
func (a *stmtAccess) targetsFor(ti *TableInfo) []int {
	for i := range a.routed {
		if a.routed[i].table == ti.Meta.Name {
			return a.routed[i].shards
		}
	}
	if ti.replicated {
		return a.s.c.replicaReadNode(a.t)
	}
	return a.s.c.scanTargetsLocked()
}

// replicaReadNode picks the one node a replicated-table read uses: a live
// shard the transaction already holds a leg on, else the first live shard
// (read failover; a retired or down node must never take a new leg).
func (c *Cluster) replicaReadNode(t *txn) []int {
	if ids := c.liveNodes(t.legDNs()); len(ids) > 0 {
		return ids[:1]
	}
	if live := c.liveNodes(allDNs(c.DataNodeCount())); len(live) > 0 {
		return live[:1]
	}
	return []int{0} // nothing live: the scan will surface the error
}

// htapReplica resolves the columnar replica mirroring owner's partition of
// ti under the statement-cached per-DN replica snapshot. ok=false (the
// statement was not admitted to the replicas, or there is no replica for
// that primary — e.g. a standby promoted after HTAP was enabled) leaves
// the fragment to the row copies.
func (a *stmtAccess) htapReplica(ti *TableInfo, owner int) (*colstore.Table, *txnkit.Snapshot, bool) {
	if a.htap == nil {
		return nil, nil, false
	}
	tbl, txm, ok := a.htap.Replica(ti.Meta.Name, owner)
	if !ok {
		return nil, nil, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	snap, cached := a.htapSnaps[owner]
	if !cached {
		s := txm.LocalSnapshot()
		snap = &s
		if a.htapSnaps == nil {
			a.htapSnaps = map[int]*txnkit.Snapshot{}
		}
		a.htapSnaps[owner] = snap
	}
	return tbl, snap, true
}

// fragSource is the resolved physical source of one scan fragment: the
// copy that serves it (exactly one of col / row), the snapshot it reads
// under (xid 0 and a replica-local snapshot on an HTAP replica, the
// transaction's leg and snapshot otherwise), the ownership check the
// fragment must apply to the distribution-key datum (nil: keep everything;
// see fragKeepDatum), and the node the fragment's messages are charged to.
type fragSource struct {
	node int
	col  *colstore.Table
	row  *storage.Table
	xid  txnkit.XID
	snap *txnkit.Snapshot
	owns func(types.Datum) bool
}

// fragSource resolves the fragment of ti whose rows owner holds — the one
// place a copy is chosen. In order: the columnar HTAP replica of owner's
// partition, when the statement passed the freshness gate and a replica
// exists (no leg on the primary; messages still go to owner, where the
// replica lives); the synced standby routing admitted for owner, filtered
// down to owner's rows; owner's own partition. Replicated tables have no
// replicas of either kind: owner is simply the node whose copy is read.
// The chosen node must be live. Caller must hold routeMu.
func (a *stmtAccess) fragSource(ti *TableInfo, owner int) (fragSource, error) {
	c := a.s.c
	src := fragSource{node: owner, owns: c.fragKeepDatum(ti, owner)}
	if !ti.replicated {
		if tbl, snap, ok := a.htapReplica(ti, owner); ok {
			src.col, src.snap = tbl, snap
			return src, c.requireLive(owner)
		}
		if sid, ok := a.standbys[owner]; ok {
			src.node = sid
		}
	}
	if err := c.requireLive(src.node); err != nil {
		return fragSource{}, err
	}
	src.xid = a.t.touch(src.node)
	snap, err := a.snapshotFor(src.node)
	if err != nil {
		return fragSource{}, err
	}
	src.snap = snap
	part := ti.part(src.node)
	src.col, src.row = part.col, part.row
	return src, nil
}

// planner builds the statement's planner over its access object: for the one
// execution whose parameter values are given, or (nil) for all of them.
func (s *Session) planner(a *stmtAccess, values []types.Datum) *plan.Planner {
	p := &plan.Planner{Catalog: s.c, Access: a, Hooks: s.c.Hooks, DistJoin: s.c.JoinPolicy, Pushdown: s.c.Pushdown, Values: values}
	if s.c.Learning && s.c.Store != nil {
		p.Estimator = s.c.Store
	}
	return p
}

// admitReplicas is routing's last step: the once-per-statement checks that
// say which replicas fragSource may read for the routed owners, and the
// nodes the statement will therefore hold legs on. A scatter read of
// analytical shape, in a transaction with no legs and no prior DML
// (read-own-writes stays on the primary), goes through the HTAP freshness
// gate — under a blocking policy that call is where a stale replica
// catches up — and, admitted, takes no legs at all. Otherwise each owner
// with a synced standby, and no leg of this transaction on it yet (its own
// uncommitted writes are invisible on the standby), is served there: the
// leg moves to the standby, so the transaction stays standby-only for that
// shard and reads survive the primary going down before a failover.
func (s *Session) admitReplicas(t *txn, a *stmtAccess, analytical bool, owners []int) []int {
	c := s.c
	if prov := c.analyticalReads(); prov != nil && a.scatter && !t.dmlSeen() && !t.hasAnyLeg() {
		if analytical && prov.Gate(owners) {
			a.htap = prov
			return nil
		}
	}
	if c.standbyReadable == nil {
		return owners
	}
	legs := append([]int(nil), owners...)
	for i, p := range owners {
		if len(c.standbyOf[p]) == 0 || t.hasLeg(p) {
			continue
		}
		if sid, ok := c.standbyReadable(p); ok && !c.nodeDown(sid) {
			if a.standbys == nil {
				a.standbys = map[int]int{}
			}
			a.standbys[p] = sid
			legs[i] = sid
		}
	}
	return legs
}
