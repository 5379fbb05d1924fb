package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/autonomous"
	"repro/internal/rebalance"
	"repro/internal/repl"
	"repro/internal/transport"
)

// Autopilot wires the paper's autonomous-database architecture (§IV-A,
// Fig 12) to a live cluster as a closed loop: it collects engine metrics
// into the information store, runs the anomaly detectors, and acts —
// self-healing (failover, orphan re-attach, standby re-enrollment),
// self-configuring (live quorum K, vacuum, LCO truncation), and
// self-balancing (hot-bucket spreading through the rebalancer). Every
// intervention flows through the shared ActionLog, which provides per-kind
// cooldowns and a dry-run mode that plans without acting.
type Autopilot struct {
	db *DB

	// Info is the information store (Fig 12).
	Info *autonomous.InfoStore
	// Anomaly is the anomaly manager; Tick consumes its detections.
	Anomaly *autonomous.AnomalyManager
	// Changes is the change manager recording every automatic action.
	Changes *autonomous.ChangeManager
	// Workload is the SLA admission controller.
	Workload *autonomous.WorkloadManager
	// Actions is the shared action journal: cooldowns pace the loop,
	// dry-run makes it observe-only.
	Actions *autonomous.ActionLog

	// TargetRatio disarms the hot-bucket controller (default 1.5; see
	// hotRatio): between the two thresholds the hysteresis latch holds its
	// state, so heat oscillating around either cannot flap the controller.
	TargetRatio float64
	// MinHeat is the minimum per-window key-touch count before skew is
	// acted on — idle clusters have meaningless ratios (default 64).
	MinHeat int64

	// Controller state: the hysteresis latch, the previous heat snapshot
	// (tick deltas, not lifetime totals, drive decisions), previous
	// cumulative fault counters for delta detection, and the single
	// in-flight move guard.
	latch        heatLatch
	prevHeat     []int64
	prevDrops    int64
	prevTimeouts int64
	quorumSeeded bool
	moveBusy     atomic.Bool
	rebal        *rebalance.Rebalancer

	// Test seams: heatFn overrides the heat-snapshot source and moveFn the
	// bucket-move actuator, so decision tests script windows and observe
	// planned moves without a cluster migration behind them.
	heatFn func() []int64
	moveFn func(bucket, target int) error
}

// The autopilot's fixed thresholds.
const (
	// bloatRatio is the versions-per-visible-row threshold that triggers an
	// automatic vacuum.
	bloatRatio = 2.0
	// lcoLimit triggers LCO truncation housekeeping.
	lcoLimit = 1024
	// hotRatio arms the hot-bucket controller: a tick window whose hottest
	// primary carries >= hotRatio times the mean per-primary heat is skewed.
	hotRatio = 2.0
	// heartbeatTimeout, diskSlowMs and memLowFrac parameterize the anomaly
	// detectors' absolute rules.
	heartbeatTimeout = time.Second
	diskSlowMs       = 50
	memLowFrac       = 0.05
)

// NewAutopilot builds an autopilot for the database with the given SLA.
func (db *DB) NewAutopilot(sla autonomous.SLA) *Autopilot {
	info := autonomous.NewInfoStore(db.cluster.Clock)
	changes := autonomous.NewChangeManager(db.cluster.Clock)
	actions := autonomous.NewActionLog(db.cluster.Clock)
	// Default cooldowns: placement and quorum changes are heavyweight and
	// self-invalidating (each changes the signal that triggered it), so
	// they get long cooldowns; healing actions are cheap and idempotent.
	actions.SetCooldown("move-bucket", 2*time.Second)
	actions.SetCooldown("set-quorum", 2*time.Second)
	actions.SetCooldown("reattach-orphan", 500*time.Millisecond)
	actions.SetCooldown("reenroll-standby", 500*time.Millisecond)
	return &Autopilot{
		db:      db,
		Info:    info,
		Anomaly: autonomous.NewAnomalyManager(info, db.cluster.Clock),
		Changes: changes,
		Workload: autonomous.NewWorkloadManager(sla, autonomous.WorkloadConfig{
			InitialConcurrency: 8,
			MaxConcurrency:     64,
		}, changes),
		Actions:     actions,
		TargetRatio: 1.5,
		MinHeat:     64,
		rebal: rebalance.New(db.cluster, rebalance.Options{
			MaxConcurrentMoves: 1,
			Metrics:            info,
		}),
	}
}

// Action is one automatic intervention taken by Tick.
type Action struct {
	Kind   string
	Detail string
}

// tickObs is what one collect pass hands the planners.
type tickObs struct {
	inDoubt       int
	worstBloat    float64
	worstTable    string
	downPrimaries map[int]bool
	shipDrops     int64 // cumulative ReplShip messages lost to faults
	ackTimeouts   int64 // cumulative sync commits that degraded to async
	maxGroup      int   // largest replica group (replica count)
}

// Tick runs one control-loop pass: collect metrics, consume anomalies,
// heal (failover / re-attach / re-enroll), tune the sync quorum, spread
// hot buckets, and run housekeeping. Call it periodically (the paper's
// continuous monitoring). Tick itself must not be called concurrently;
// the actions it launches (bucket moves) run in the background.
func (a *Autopilot) Tick() []Action {
	var actions []Action
	record := func(kind, detail string, err error) {
		a.Actions.Record(kind, detail, err)
		if err == nil {
			actions = append(actions, Action{Kind: kind, Detail: detail})
		}
	}
	dry := a.Actions.DryRun()

	obs := a.collect()
	anomalyDown := a.consumeAnomalies(record)
	a.heal(record, dry, obs, anomalyDown)
	a.tuneQuorum(record, dry, obs)
	a.spreadHeat(record, dry)
	a.housekeep(record, dry, obs)
	return actions
}

// collect feeds the information store and snapshots the observations the
// planners act on.
func (a *Autopilot) collect() tickObs {
	c := a.db.cluster
	obs := tickObs{worstBloat: 1.0, downPrimaries: map[int]bool{}}

	gtmTotal := float64(c.GTMStats().Total())
	a.Info.Record("gtm_requests_total", gtmTotal)
	a.Info.Record("planstore_entries", float64(c.Store.Len()))
	obs.inDoubt = c.InDoubtCount()
	a.Info.Record("in_doubt_legs", float64(obs.inDoubt))

	for name, info := range c.BloatReport() {
		if r := info.Ratio(); r > obs.worstBloat {
			obs.worstBloat, obs.worstTable = r, name
		}
	}
	a.Info.Record("max_bloat_ratio", obs.worstBloat)

	// Transport fabric: cross-node message volume by type, totals, and the
	// per-DN counters the heat controller cross-checks placement against.
	fabStats := c.Fabric().Stats()
	a.Info.Record("transport.msgs_total", float64(fabStats.Total()))
	a.Info.Record("transport.bytes_total", float64(fabStats.TotalBytes()))
	a.Info.Record("transport.dropped_total", float64(fabStats.TotalDropped()))
	for _, ts := range fabStats {
		a.Info.Record("transport.msgs."+ts.Type.String(), float64(ts.Count))
	}
	obs.shipDrops = fabStats.Get(transport.ReplShip).Dropped
	for _, ds := range c.Fabric().DNStats() {
		a.Info.Record(fmt.Sprintf("transport.dn_msgs.dn%d", ds.ID), float64(ds.Msgs))
		a.Info.Record(fmt.Sprintf("transport.dn_bytes.dn%d", ds.ID), float64(ds.Bytes))
	}

	// Front-door server: session population, statement-cache efficiency,
	// and the admission controller's per-class outcomes (when attached).
	if s := a.db.srv; s != nil {
		st := s.Stats()
		a.Info.Record("server.sessions_open", float64(st.SessionsOpen))
		a.Info.Record("server.sessions_opened", float64(st.SessionsOpened))
		a.Info.Record("server.sessions_evicted", float64(st.SessionsEvicted))
		a.Info.Record("server.statements", float64(st.Statements))
		a.Info.Record("server.stmt_cache_hits", float64(st.CacheHits))
		a.Info.Record("server.stmt_cache_misses", float64(st.CacheMisses))
		a.Info.Record("server.admission_queue_len", float64(st.Workload.QueueLen))
		a.Info.Record("server.admission_limit", float64(st.Workload.Limit))
		for p := autonomous.PriorityLow; p <= autonomous.PriorityHigh; p++ {
			cs := st.Workload.Class(p)
			a.Info.Record("server.admitted."+p.String(), float64(cs.Admitted))
			a.Info.Record("server.shed."+p.String(), float64(cs.Shed))
		}
	}

	// Replication health (when HA is enabled).
	if r := a.db.repl; r != nil {
		st := r.Status()
		var lag, maxLag int64
		for _, rs := range st.Replicas {
			lag += rs.Lag
			if rs.Lag > maxLag {
				maxLag = rs.Lag
			}
			// A group with at least one unbroken replica and a dead primary
			// is a failover candidate.
			if !rs.Broken && c.NodeIsDown(rs.Primary) {
				obs.downPrimaries[rs.Primary] = true
			}
		}
		a.Info.Record("repl.records_shipped", float64(st.RecordsShipped))
		a.Info.Record("repl.lag_records", float64(lag))
		a.Info.Record("repl.max_replica_lag", float64(maxLag))
		a.Info.Record("repl.replicas", float64(len(st.Replicas)))
		a.Info.Record("repl.failovers", float64(st.Failovers))
		a.Info.Record("repl.quorum_k", float64(st.QuorumAcks))
		a.Info.Record("repl.ack_timeouts", float64(st.AckTimeouts))
		a.Info.Record("repl.ack_wait_ms", float64(st.AckWaitAvg)/float64(time.Millisecond))
		obs.ackTimeouts = st.AckTimeouts
		for _, p := range r.GroupPrimaries() {
			if n := len(r.Replicas(p)); n > obs.maxGroup {
				obs.maxGroup = n
			}
		}
	}

	// HTAP analytical replicas (when enabled): apply watermarks, routing
	// outcomes, and the replicas' columnar storage shape.
	if h := a.db.htap; h != nil {
		st := h.Status()
		a.Info.Record("htap.replicas", float64(len(st.Replicas)))
		a.Info.Record("htap.records_applied", float64(st.RecordsApplied))
		a.Info.Record("htap.legs_applied", float64(st.LegsApplied))
		a.Info.Record("htap.max_replica_lag", float64(st.MaxLagRecords))
		a.Info.Record("htap.queries_offloaded", float64(st.QueriesOffloaded))
		a.Info.Record("htap.queries_degraded", float64(st.QueriesDegraded))
		a.Info.Record("htap.gate_blocks", float64(st.GateBlocks))
		a.Info.Record("htap.gate_timeouts", float64(st.GateTimeouts))
		var lag int64
		for _, rs := range st.Replicas {
			lag += rs.LagRecords
		}
		a.Info.Record("htap.lag_records", float64(lag))
	}

	// Columnar storage health across the cluster's own columnar tables:
	// segment shape, tombstone accumulation, compression, zone-map pruning.
	colTS, colSS := c.ColstoreStats()
	a.Info.Record("colstore.segments", float64(colTS.Segments))
	a.Info.Record("colstore.segment_rows", float64(colTS.SegmentRows))
	a.Info.Record("colstore.delta_rows", float64(colTS.DeltaRows))
	a.Info.Record("colstore.tombstones", float64(colTS.Tombstones))
	a.Info.Record("colstore.compression_ratio", colTS.CompressionRatio())
	a.Info.Record("colstore.segs_scanned", float64(colSS.SegmentsScanned))
	a.Info.Record("colstore.segs_pruned", float64(colSS.SegmentsPruned))
	a.Info.Record("colstore.rows_scanned", float64(colSS.RowsScanned))
	return obs
}

// heartbeatNode parses the node id out of a heartbeat anomaly metric
// ("heartbeat/dn3" -> 3).
func heartbeatNode(metric string) (int, bool) {
	s, ok := strings.CutPrefix(metric, "heartbeat/dn")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(s)
	return id, err == nil
}

// consumeAnomalies heartbeats the live primaries, runs the detectors, and
// drains the anomaly log into the planner: datanode_down detections become
// failover candidates (returned), everything else is journaled as an
// observation action. Forgetting a down node's heartbeat stops the same
// death re-raising the anomaly every tick; detection re-arms when the node
// returns and heartbeats resume.
func (a *Autopilot) consumeAnomalies(record func(kind, detail string, err error)) map[int]bool {
	c := a.db.cluster
	for _, id := range c.PrimaryIDs() {
		if !c.NodeIsDown(id) {
			a.Anomaly.Heartbeat(fmt.Sprintf("dn%d", id))
		}
	}
	a.Anomaly.Check(heartbeatTimeout, diskSlowMs, memLowFrac)

	down := map[int]bool{}
	for _, an := range a.Anomaly.Consume() {
		if an.Kind == autonomous.AnomalyNodeDown {
			if id, ok := heartbeatNode(an.Metric); ok {
				down[id] = true
				a.Anomaly.Forget(strings.TrimPrefix(an.Metric, "heartbeat/"))
				continue
			}
		}
		record("anomaly-"+string(an.Kind), an.Detail, nil)
		a.Changes.Set("anomaly."+string(an.Kind), an.Value, an.Detail)
	}
	return down
}

// heal is the self-healing planner: promote standbys of dead primaries,
// re-attach chain-orphaned replicas under their group's current primary,
// and re-enroll returned (revived) retired primaries as fresh standbys —
// restoring the configured N-replica redundancy without an operator.
func (a *Autopilot) heal(record func(kind, detail string, err error), dry bool, obs tickObs, anomalyDown map[int]bool) {
	r := a.db.repl
	if r == nil {
		return
	}
	c := a.db.cluster

	// Failover candidates: the union of repl-status observations and the
	// heartbeat detector's hits, restricted to primaries that actually
	// have a replica group to promote from.
	targets := map[int]bool{}
	for p := range obs.downPrimaries {
		targets[p] = true
	}
	for p := range anomalyDown {
		if r.Replicas(p) != nil {
			targets[p] = true
		}
	}
	var sorted []int
	for p := range targets {
		sorted = append(sorted, p)
	}
	sort.Ints(sorted)
	for _, primary := range sorted {
		if dry {
			record("auto-failover", fmt.Sprintf("promote a standby of dn%d (dry-run)", primary), nil)
			continue
		}
		rep, err := r.Failover(primary)
		if err != nil {
			continue // already in progress, or latched for the operator
		}
		a.Changes.Set("repl.failover", float64(rep.Buckets),
			fmt.Sprintf("promoted dn%d -> dn%d", rep.Primary, rep.Standby))
		record("auto-failover", fmt.Sprintf("dn%d->dn%d buckets=%d replayed=%d survivors=%d",
			rep.Primary, rep.Standby, rep.Buckets, rep.Replayed, len(rep.Survivors)), nil)
	}

	// Chain-orphaned or poisoned replicas on live nodes: wipe and re-seed
	// them directly under the group's current primary.
	for _, p := range r.GroupPrimaries() {
		orphans := r.Orphans(p)
		if len(orphans) == 0 || !a.Actions.Allow("reattach-orphan") {
			continue
		}
		if dry {
			record("reattach-orphan", fmt.Sprintf("re-seed %v under dn%d (dry-run)", orphans, p), nil)
			continue
		}
		healed, err := r.ReattachOrphans(p)
		if len(healed) > 0 || err != nil {
			record("reattach-orphan", fmt.Sprintf("re-seeded %v under dn%d", healed, p), err)
		}
		if len(healed) > 0 {
			a.Changes.Set("repl.reattached", float64(len(healed)),
				fmt.Sprintf("re-seeded %v under dn%d", healed, p))
		}
	}

	// Returned retired primaries: re-enroll them as standbys of their
	// successor, closing the failover lifecycle and restoring redundancy.
	for _, node := range c.ReturnedPrimaries() {
		succ, ok := c.Successor(node)
		if !ok || c.NodeIsDown(succ) {
			continue
		}
		if len(r.Replicas(succ)) >= r.TargetReplicas() {
			continue
		}
		if !a.Actions.Allow("reenroll-standby") {
			continue
		}
		detail := fmt.Sprintf("re-enroll retired dn%d as standby of dn%d", node, succ)
		if dry {
			record("reenroll-standby", detail+" (dry-run)", nil)
			continue
		}
		err := r.ReenrollStandby(node, succ)
		record("reenroll-standby", detail, err)
		if err == nil {
			a.Changes.Set("repl.reenrolled", 1, detail)
		}
	}
}

// tuneQuorum adapts sync-mode K to the ship fabric's health: new ReplShip
// drops this tick mean the one fast replica satisfying a small K may be
// the only one still receiving records, so K is raised toward all-replicas
// while the storm lasts; once drops and ack timeouts both stop, K returns
// to its configured baseline.
func (a *Autopilot) tuneQuorum(record func(kind, detail string, err error), dry bool, obs tickObs) {
	r := a.db.repl
	if r == nil || r.Config().Mode != repl.ModeSync {
		return
	}
	dropDelta := obs.shipDrops - a.prevDrops
	tmoDelta := obs.ackTimeouts - a.prevTimeouts
	a.prevDrops, a.prevTimeouts = obs.shipDrops, obs.ackTimeouts
	if !a.quorumSeeded {
		a.quorumSeeded = true
		return // first tick establishes the baseline; deltas start next tick
	}

	cur, base := r.Quorum(), r.BaseQuorum()
	switch {
	case dropDelta > 0 && cur < obs.maxGroup:
		if !a.Actions.Allow("set-quorum") {
			return
		}
		detail := fmt.Sprintf("raise K %d -> %d: %d repl_ship drops this tick", cur, cur+1, dropDelta)
		if dry {
			record("set-quorum", detail+" (dry-run)", nil)
			return
		}
		_, err := r.SetQuorum(cur + 1)
		record("set-quorum", detail, err)
		if err == nil {
			a.Changes.Set("repl.quorum_acks", float64(cur+1), detail)
		}
	case dropDelta == 0 && tmoDelta == 0 && cur > base:
		if !a.Actions.Allow("set-quorum") {
			return
		}
		detail := fmt.Sprintf("lower K %d -> %d: drops stopped, no new ack timeouts", cur, base)
		if dry {
			record("set-quorum", detail+" (dry-run)", nil)
			return
		}
		_, err := r.SetQuorum(base)
		record("set-quorum", detail, err)
		if err == nil {
			a.Changes.Set("repl.quorum_acks", float64(base), detail)
		}
	}
}

// spreadHeat is the self-balancing planner: it diffs the cluster's
// per-bucket heat counters against the previous tick, folds the window
// onto the live primaries, and — when the hysteresis latch arms — plans
// one throttled bucket move from the hottest primary to the coldest. At
// most one move is ever in flight, and the move-bucket cooldown paces
// successive moves so the controller observes each move's effect before
// planning the next.
func (a *Autopilot) spreadHeat(record func(kind, detail string, err error), dry bool) {
	c := a.db.cluster
	cur := c.BucketHeat()
	if a.heatFn != nil {
		cur = a.heatFn()
	}
	prev := a.prevHeat
	a.prevHeat = cur
	if prev == nil {
		return // first tick establishes the baseline
	}
	delta := make([]int64, len(cur))
	for i := range cur {
		if i < len(prev) {
			delta[i] = cur[i] - prev[i]
		} else {
			delta[i] = cur[i]
		}
	}

	owners := c.BucketOwners()
	var primaries []int
	for _, id := range c.PrimaryIDs() {
		if !c.NodeIsDown(id) {
			primaries = append(primaries, id)
		}
	}
	s := summarizeHeat(delta, owners, primaries)
	a.Info.Record("cluster.bucket_heat.total", float64(s.total))
	a.Info.Record("cluster.bucket_heat.max_dn", float64(s.max))
	a.Info.Record("cluster.bucket_heat.ratio", s.ratio)

	if !a.latch.update(s.ratio, s.total, a.MinHeat, hotRatio, a.TargetRatio) {
		return
	}
	if a.moveBusy.Load() {
		return // at most one in-flight move; re-plan when it lands
	}
	if !a.Actions.Allow("move-bucket") {
		return
	}
	b, target, ok := planBucketMove(delta, owners, s)
	if !ok {
		return
	}
	detail := fmt.Sprintf("bucket %d: dn%d -> dn%d (skew %.2f, window heat %d)",
		b, s.hotDN, target, s.ratio, s.total)
	if dry {
		record("move-bucket", detail+" (dry-run)", nil)
		return
	}
	record("move-bucket", detail, nil)
	a.Changes.Set("rebalance.move_bucket", float64(b), detail)
	move := a.moveFn
	if move == nil {
		move = a.moveBucket
	}
	a.moveBusy.Store(true)
	go func() {
		defer a.moveBusy.Store(false)
		if err := move(b, target); err != nil {
			a.Actions.Record("move-bucket-failed",
				fmt.Sprintf("bucket %d -> dn%d: %v", b, target, err), err)
		}
	}()
}

// MoveInFlight reports whether a planned bucket move is still executing.
// Tests and experiments use it to quiesce before digesting table contents.
func (a *Autopilot) MoveInFlight() bool { return a.moveBusy.Load() }

// moveBucket is the default bucket-move actuator: one migration through
// the shared rebalancer (fencing-aware, retried, metered into Info).
func (a *Autopilot) moveBucket(bucket, target int) error {
	return a.rebal.MoveBuckets([]rebalance.Move{{Bucket: bucket, Target: target}})
}

// housekeep runs the cheap monotone maintenance actions: in-doubt 2PC
// resolution, bloat-triggered vacuum, and LCO truncation.
func (a *Autopilot) housekeep(record func(kind, detail string, err error), dry bool, obs tickObs) {
	c := a.db.cluster
	if obs.inDoubt > 0 {
		if dry {
			record("recover-in-doubt", fmt.Sprintf("%d in-doubt legs (dry-run)", obs.inDoubt), nil)
		} else {
			committed, aborted := c.RecoverInDoubt()
			a.Changes.Set("recovery.in_doubt", float64(committed+aborted),
				fmt.Sprintf("resolved %d committed / %d aborted legs", committed, aborted))
			record("recover-in-doubt", fmt.Sprintf("committed=%d aborted=%d", committed, aborted), nil)
		}
	}
	if obs.worstBloat >= bloatRatio {
		if dry {
			record("auto-vacuum", fmt.Sprintf("table=%s ratio=%.2f (dry-run)", obs.worstTable, obs.worstBloat), nil)
		} else {
			reclaimed := a.db.Vacuum()
			a.Changes.Set("vacuum.reclaimed", float64(reclaimed),
				fmt.Sprintf("table %s bloat %.2f >= %.2f", obs.worstTable, obs.worstBloat, bloatRatio))
			record("auto-vacuum", fmt.Sprintf("table=%s ratio=%.2f reclaimed=%d", obs.worstTable, obs.worstBloat, reclaimed), nil)
		}
	}
	// LCO housekeeping: truncation is cheap and monotone, run it whenever
	// any node's LCO grows past the limit.
	for _, dn := range c.DataNodes() {
		if dn.Txm.LCOLen() > lcoLimit {
			if dry {
				record("truncate-lco", "lco over limit (dry-run)", nil)
			} else {
				c.TruncateLCOs()
				record("truncate-lco", "lco over limit", nil)
			}
			break
		}
	}
}

// ExecGoverned runs a statement under the workload manager's admission
// control, reporting its latency to the SLA control loop and its outcome
// to the anomaly baseline.
func (a *Autopilot) ExecGoverned(s *Session, sql string) (*Result, error) {
	if err := a.Workload.Admit(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.Exec(sql)
	lat := time.Since(start)
	a.Workload.Release(lat)
	a.Anomaly.Observe("stmt_latency_ms", float64(lat)/1e6)
	return res, err
}
