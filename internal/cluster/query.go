package cluster

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// stmtAccess implements plan.Access for one statement: scans gather rows
// from the routed data nodes under the statement's per-DN snapshots. Its
// state is shared by the statement's concurrent DN fragments, so the
// snapshot cache is mutex-guarded and the counters are atomic.
type stmtAccess struct {
	s *Session
	t *txn
	// routed maps table name -> data nodes to scan; tables absent from the
	// map scan the default set. Written only during routing, before any
	// fragment starts.
	routed map[string][]int
	// readMap redirects an offloaded shard's whole read fragment to its
	// synced standby; splitSet instead splits the shard into an even-bucket
	// fragment on the primary and an odd-bucket one on the standby. Both
	// are keyed by primary id and written only during routing.
	readMap  map[int]int
	splitSet map[int]int

	// scatter marks the statement as unrouted (scans every primary) —
	// the shape eligible for HTAP replica service. Written during
	// routing, before any fragment starts.
	scatter bool
	// htap, when non-nil, redirects this statement's distributed-table
	// fragments to the columnar analytical replicas; the primaries are
	// never touched, so the statement takes no transaction legs there.
	htap AnalyticalProvider

	mu    sync.Mutex // guards snaps, htapSnaps
	snaps map[int]*txnkit.Snapshot
	// htapSnaps caches one replica-local snapshot per DN so concurrent
	// fragments (and multiple tables on one DN) read consistently.
	htapSnaps map[int]*txnkit.Snapshot

	// rowsShipped counts rows that crossed a partition -> coordinator
	// boundary; two-phase aggregation exists to shrink this number.
	rowsShipped atomic.Int64
}

func (s *Session) newStmtAccess(t *txn) *stmtAccess {
	return &stmtAccess{
		s: s, t: t,
		routed:    map[string][]int{},
		readMap:   map[int]int{},
		splitSet:  map[int]int{},
		snaps:     map[int]*txnkit.Snapshot{},
		htapSnaps: map[int]*txnkit.Snapshot{},
	}
}

// snapshotFor lazily acquires and caches the statement snapshot on a DN.
// The lock is held across acquisition so concurrent fragments of one
// statement can never read through two different snapshots on one DN.
func (a *stmtAccess) snapshotFor(dnID int) (*txnkit.Snapshot, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if snap, ok := a.snaps[dnID]; ok {
		return snap, nil
	}
	snap, err := a.t.snapshotFor(dnID)
	if err != nil {
		return nil, err
	}
	a.snaps[dnID] = snap
	return snap, nil
}

// targetsFor picks the data nodes a scan of ti must visit.
func (a *stmtAccess) targetsFor(ti *TableInfo) []int {
	if set, ok := a.routed[ti.Meta.Name]; ok {
		return set
	}
	if ti.replicated {
		// Read one replica: prefer a live shard the transaction already
		// uses, else the first live shard (read failover).
		if ids := a.s.c.liveNodes(a.t.sortedDNs()); len(ids) > 0 {
			return ids[:1]
		}
		if live := a.s.c.liveNodes(allDNs(a.s.c.DataNodeCount())); len(live) > 0 {
			return live[:1]
		}
		return []int{0} // nothing live: the scan will surface the error
	}
	return a.s.c.scanTargetsLocked()
}

// readFrag is one physical scan fragment of a routed shard: phys is the
// node actually scanned, logical the bucket owner whose rows it must
// yield, and parity (when >= 0) restricts it to buckets with that low bit
// — StandbyReadSplit's half-and-half scan.
type readFrag struct {
	logical, phys, parity int
}

// readFrags expands the logical target set through the statement's
// read-replica routing decisions (one fragment per shard, two when split).
func (a *stmtAccess) readFrags(targets []int) []readFrag {
	out := make([]readFrag, 0, len(targets)+len(a.splitSet))
	for _, p := range targets {
		if sid, ok := a.readMap[p]; ok {
			out = append(out, readFrag{logical: p, phys: sid, parity: -1})
		} else if sid, ok := a.splitSet[p]; ok {
			out = append(out,
				readFrag{logical: p, phys: p, parity: 0},
				readFrag{logical: p, phys: sid, parity: 1})
		} else {
			out = append(out, readFrag{logical: p, phys: p, parity: -1})
		}
	}
	return out
}

func fragPhys(frags []readFrag) []int {
	out := make([]int, len(frags))
	for i, f := range frags {
		out[i] = f.phys
	}
	return out
}

// htapReplica resolves the columnar replica serving fragment f of ti under
// the statement-cached per-DN replica snapshot. ok=false (replicated
// table, standby-redirected fragment, or no replica for that primary —
// e.g. a standby promoted after HTAP was enabled) falls the fragment back
// to the primary partition.
func (a *stmtAccess) htapReplica(ti *TableInfo, f readFrag) (*colstore.Table, *txnkit.Snapshot, bool) {
	if a.htap == nil || ti.replicated || f.phys != f.logical {
		return nil, nil, false
	}
	tbl, txm, ok := a.htap.Replica(ti.Meta.Name, f.phys)
	if !ok {
		return nil, nil, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	snap, cached := a.htapSnaps[f.phys]
	if !cached {
		s := txm.LocalSnapshot()
		snap = &s
		a.htapSnaps[f.phys] = snap
	}
	return tbl, snap, true
}

// fragSource is the resolved physical source of one scan fragment: either
// an HTAP columnar replica (xid 0 under a replica-local snapshot) or the
// primary partition under the transaction's snapshot, plus the ownership
// check the fragment must apply to the distribution-key datum (nil: keep
// everything; see fragKeepDatum).
type fragSource struct {
	col  *colstore.Table
	row  *storage.Table
	xid  txnkit.XID
	snap *txnkit.Snapshot
	owns func(types.Datum) bool
}

// fragSource resolves fragment f's source. Touching the primary (which
// takes a transaction leg there) happens only when the fragment is
// primary-served; replica fragments leave the transaction untouched.
// Caller must hold routeMu.
func (a *stmtAccess) fragSource(ti *TableInfo, f readFrag) (fragSource, error) {
	src := fragSource{owns: a.s.c.fragKeepDatum(ti, f)}
	if tbl, snap, ok := a.htapReplica(ti, f); ok {
		src.col, src.snap = tbl, snap
		return src, nil
	}
	src.xid = a.t.touch(f.phys)
	snap, err := a.snapshotFor(f.phys)
	if err != nil {
		return fragSource{}, err
	}
	src.snap = snap
	if ti.columnar() {
		src.col = ti.colParts()[f.phys]
	} else {
		src.row = ti.rowParts()[f.phys]
	}
	return src, nil
}

// ScanPartialAgg implements plan.PartialAggAccess: the partial aggregate
// is the scan fragment program (same compiled predicate, pruning and
// ownership check as any scan) with an aggregating sink, evaluated against
// each partition locally (modelling DN-side reduction); only the partial
// result rows ship to the coordinator. Each DN's scan+aggregate is one
// Exchange fragment, so the reductions run in parallel across data nodes.
func (a *stmtAccess) ScanPartialAgg(meta *plan.TableMeta, pred exec.Expr, groupBy []exec.Expr, aggs []exec.AggSpec, out *types.Schema) (exec.Operator, bool) {
	if _, isVirtual := a.s.c.virtualTable(meta.Name); isVirtual {
		return nil, false // virtual tables are engine-local; nothing to push
	}
	// Ship nothing but what the group keys and aggregate arguments read.
	inputs := append([]exec.Expr(nil), groupBy...)
	for _, sp := range aggs {
		if sp.Arg != nil {
			inputs = append(inputs, sp.Arg)
		}
	}
	spec := &plan.ScanPushdown{Pred: pred, Cols: []int{}}
	return a.scanFragments(meta.Name+":partial-agg", meta, out, spec, inputs,
		func(ctx *exec.Ctx, p *ndpProgram, f readFrag, src fragSource, emit func(types.Row) bool) error {
			// Fragment dispatch: the scan+partial-agg request goes out, the
			// reduced result rows come back.
			if err := a.s.c.sendDN(f.phys, transport.ScanFrag, 0); err != nil {
				return err
			}
			var rows []types.Row
			if vp, ok := buildVecPlan(p, groupBy, aggs); ok && src.col != nil {
				// Every group/agg expression a bare column reference over a
				// columnar source: aggregate straight off the vectors.
				acc := &vecAgg{plan: vp, groups: map[string]*vecAccum{}}
				if err := p.run(ctx, src, nil, fragSink{agg: acc}); err != nil {
					return err
				}
				rows = acc.rows()
			} else {
				// Generic aggregate: the row sink feeds exec.Agg. All of it
				// evaluates "on the data node"; only the aggregate's output
				// crosses to the coordinator.
				var scanErr error
				scan := exec.NewSource(meta.Name, meta.Schema, func(emitRow func(types.Row) bool) {
					scanErr = p.run(ctx, src, nil, fragSink{rows: emitRow})
				})
				var err error
				rows, err = exec.Collect(ctx, &exec.Agg{Child: scan, GroupBy: groupBy, Aggs: aggs, Out: out})
				if err == nil {
					err = scanErr
				}
				if err != nil {
					return err
				}
			}
			if err := a.s.c.sendFromDN(f.phys, transport.ScanFrag, len(rows)*out.Len()*8); err != nil {
				return err
			}
			for _, r := range rows {
				a.rowsShipped.Add(1)
				if !emit(r) {
					break
				}
			}
			return nil
		}), true
}

// planner builds a statement planner bound to the transaction.
func (s *Session) planner(t *txn) *plan.Planner {
	return s.plannerWithAccess(s.newStmtAccess(t))
}

func (s *Session) plannerWithAccess(a *stmtAccess) *plan.Planner {
	p := &plan.Planner{Catalog: s.c, Access: a, Hooks: s.c.Hooks, DistJoin: s.c.JoinPolicy, Pushdown: s.c.Pushdown}
	if s.c.UseLearnedCard && s.c.Store != nil {
		p.Estimator = s.c.Store
	}
	return p
}

// planSelect routes, touches and plans a SELECT.
func (s *Session) planSelect(t *txn, sel *sqlx.Select) (*plan.Plan, *stmtAccess, error) {
	access := s.newStmtAccess(t)
	dnSet := s.routeSelect(t, sel, access)
	if prov := s.htapProvider(t, access, sel, dnSet); prov != nil {
		// HTAP offload: fragments scan the columnar replicas under
		// replica-local snapshots. The primaries are never touched, so
		// the statement takes no transaction legs and no GTM round.
		access.htap = prov
	} else {
		// Read-replica rewrite must run before the touch: an offloaded
		// shard's primary is never touched, so the transaction stays
		// standby-only there.
		dnSet = s.c.applyStandbyReads(t, access, dnSet)
		t.touchSet(dnSet)
	}
	t.refreshGlobalSnapshot()
	p, err := s.plannerWithAccess(access).PlanSelect(sel)
	if err != nil {
		return nil, nil, err
	}
	return p, access, nil
}

func (s *Session) execSelect(t *txn, sel *sqlx.Select) (*Result, error) {
	planStart := time.Now()
	p, access, err := s.planSelect(t, sel)
	if err != nil {
		return nil, err
	}
	planTime := time.Since(planStart)
	ctx := exec.NewCtx(s.c.Clock())
	rows, err := exec.Collect(ctx, p.Root)
	if err != nil {
		return nil, err
	}
	// Learning optimizer producer (paper §II-C).
	if s.c.CaptureSteps && s.c.Store != nil {
		s.c.Store.Capture(p.Counted)
	}
	return &Result{Columns: p.OutputNames, Rows: rows, Plan: p, RowsShipped: access.rowsShipped.Load(), PlanTime: planTime}, nil
}

// htapProvider decides whether the statement is served by the columnar
// analytical replicas: HTAP must be installed and enabled, the statement
// must be a scatter read inside a transaction with no legs and no prior
// DML (read-own-writes stays on the primary), its AST must classify as an
// analytical shape, and the freshness gate must admit it — under a
// blocking policy that last call is where a stale replica catches up.
func (s *Session) htapProvider(t *txn, access *stmtAccess, sel *sqlx.Select, dnSet []int) AnalyticalProvider {
	if s.c.DisableHTAPReads || !access.scatter {
		return nil
	}
	prov := s.c.analyticalReads()
	if prov == nil {
		return nil
	}
	if t.dmlSeen() || t.hasAnyLeg() {
		return nil
	}
	if _, analytical := plan.AnalyticalShape(sel); !analytical {
		return nil
	}
	if !prov.Gate(dnSet) {
		return nil
	}
	return prov
}

// ---------------------------------------------------------------------------
// Statement routing
// ---------------------------------------------------------------------------

// routeSelect decides which data nodes a SELECT must touch. A statement is
// single-shard iff every distributed table it references (in any query
// block) carries an equality predicate on its distribution key and all
// such predicates route to the same shard — the paper's "majority of
// transactions are single-sharded" fast path. Otherwise all shards are
// touched.
func (s *Session) routeSelect(t *txn, sel *sqlx.Select, access *stmtAccess) []int {
	shards := map[int]struct{}{}
	sawDistributed := false
	unrouted := false

	var walkSelect func(q *sqlx.Select, ctes map[string]bool)
	var walkExprSubqueries func(e sqlx.Expr, ctes map[string]bool)
	var walkRef func(ref sqlx.TableRef, q *sqlx.Select, ctes map[string]bool)

	walkExprSubqueries = func(e sqlx.Expr, ctes map[string]bool) {
		sqlx.WalkExpr(e, func(x sqlx.Expr) bool {
			switch v := x.(type) {
			case *sqlx.Subquery:
				walkSelect(v.Query, ctes)
				return false
			case *sqlx.InList:
				for _, item := range v.List {
					if sq, ok := item.(*sqlx.Subquery); ok {
						walkSelect(sq.Query, ctes)
					}
				}
			}
			return true
		})
	}

	walkRef = func(ref sqlx.TableRef, q *sqlx.Select, ctes map[string]bool) {
		switch r := ref.(type) {
		case *sqlx.BaseTable:
			if ctes[strings.ToLower(r.Name)] {
				return
			}
			ti, err := s.c.tableInfo(r.Name)
			if err != nil || ti.replicated {
				return
			}
			sawDistributed = true
			alias := r.Alias
			if alias == "" {
				alias = shortAlias(r.Name)
			}
			scope := plan.TableScope(ti.Meta, strings.ToLower(alias))
			if shard, ok := routeByDistKey(s.c, ti, scope, q.Where); ok {
				shards[shard] = struct{}{}
				access.routed[ti.Meta.Name] = append(access.routed[ti.Meta.Name], shard)
			} else {
				unrouted = true
			}
		case *sqlx.SubqueryRef:
			walkSelect(r.Query, ctes)
		case *sqlx.TableFunc:
			if r.Query != nil {
				walkSelect(r.Query, ctes)
			}
		case *sqlx.JoinRef:
			walkRef(r.Left, q, ctes)
			walkRef(r.Right, q, ctes)
			walkExprSubqueries(r.On, ctes)
		}
	}

	walkSelect = func(q *sqlx.Select, outer map[string]bool) {
		ctes := make(map[string]bool, len(outer))
		for k := range outer {
			ctes[k] = true
		}
		for _, cte := range q.CTEs {
			walkSelect(cte.Query, ctes)
			ctes[strings.ToLower(cte.Name)] = true
		}
		for _, ref := range q.From {
			walkRef(ref, q, ctes)
		}
		for _, so := range q.SetOps {
			walkSelect(so.Query, ctes)
		}
		walkExprSubqueries(q.Where, ctes)
		walkExprSubqueries(q.Having, ctes)
		for _, it := range q.Items {
			if !it.Star {
				walkExprSubqueries(it.Expr, ctes)
			}
		}
	}

	walkSelect(sel, map[string]bool{})

	switch {
	case !sawDistributed:
		// Replicated-only: stay on an already-touched live shard, else the
		// first live one (a retired or down node must never take a new leg).
		if ids := s.c.liveNodes(t.sortedDNs()); len(ids) > 0 {
			return ids[:1]
		}
		if live := s.c.liveNodes(allDNs(s.c.DataNodeCount())); len(live) > 0 {
			return live[:1]
		}
		return []int{0}
	case unrouted || len(shards) == 0:
		// Clear per-table routing: a scatter statement scans every primary.
		access.routed = map[string][]int{}
		access.scatter = true
		return s.c.scanTargetsLocked()
	default:
		out := make([]int, 0, len(shards))
		for sh := range shards {
			out = append(out, sh)
		}
		sort.Ints(out)
		// Deduplicate routed lists in every branch: a table referenced
		// twice (self-join, repeated CTE use) must not be scanned twice.
		// When len(out) > 1 the statement touches multiple shards but each
		// table still scans only its own routed (deduplicated) shard set.
		for name, list := range access.routed {
			access.routed[name] = dedupInts(list)
		}
		return out
	}
}

func dedupInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}
