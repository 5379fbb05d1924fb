package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/transport"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// ErrTxnAborted is returned for statements issued in an explicit
// transaction that has already failed; the client must ROLLBACK.
var ErrTxnAborted = errors.New("cluster: current transaction is aborted, commands ignored until ROLLBACK")

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns of a SELECT.
	Columns []string
	// Rows holds SELECT output.
	Rows []types.Row
	// RowsAffected counts INSERT/UPDATE/DELETE rows.
	RowsAffected int
	// Plan carries the instrumented plan of a SELECT (nil otherwise).
	Plan *plan.Plan
	// RowsShipped counts rows that crossed a partition -> coordinator
	// boundary while executing a SELECT (the MPP exchange volume;
	// two-phase aggregation exists to shrink it).
	RowsShipped int64
	// PlanTime is how long planning the SELECT took (routing + join
	// ordering + compilation) — the statistics-free planner's microsecond
	// budget is observable here.
	PlanTime time.Duration
}

// Session is a client connection to the coordinator.
type Session struct {
	c  *Cluster
	tx *txn // non-nil inside an explicit BEGIN..COMMIT block

	// LastTxnWasGlobal reports whether the most recently completed
	// transaction used the GTM (observable by tests and benchmarks).
	LastTxnWasGlobal bool
}

// NewSession opens a session.
func (c *Cluster) NewSession() *Session { return &Session{c: c} }

// InTxn reports whether the session is inside an explicit BEGIN..COMMIT
// block.
func (s *Session) InTxn() bool { return s.tx != nil }

// txn is the coordinator-side transaction state.
type txn struct {
	c    *Cluster
	mode TxnMode
	// mu guards xids, global, gxid and gsnap against concurrent fragment
	// start: parallel Exchange fragments of one statement may begin legs
	// on different data nodes simultaneously. Commit, abort and the
	// post-statement reads (sortedDNs, LastTxnWasGlobal) run after every
	// fragment has joined — Exchange.Open waits for its workers — so they
	// read without the lock.
	mu     sync.Mutex
	xids   map[int]txnkit.XID
	global bool
	gxid   txnkit.GXID
	gsnap  *txnkit.GlobalSnapshot
	failed bool
	done   bool

	// pending holds the write records captured per leg (standby
	// replication); they ship to the commit tap iff the leg commits.
	// Written only by the statement-executor goroutine (DML never runs in
	// parallel fragments), read at commit — no lock needed.
	pending map[int][]WriteRec

	// dml marks that the transaction has executed (or is executing) a
	// write statement; HTAP routing then keeps every read on the primary
	// so the session observes its own uncommitted writes. Guarded by mu:
	// it is set before INSERT ... SELECT plans its source query.
	dml bool
}

// markDML flags the transaction as writing (see txn.dml).
func (t *txn) markDML() {
	t.mu.Lock()
	t.dml = true
	t.mu.Unlock()
}

// dmlSeen reports whether the transaction has run DML.
func (t *txn) dmlSeen() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dml
}

// hasAnyLeg reports whether the transaction holds a leg on any data node.
func (t *txn) hasAnyLeg() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.xids) > 0
}

func (s *Session) newTxn() *txn {
	return &txn{c: s.c, mode: s.c.cfg.Mode, xids: make(map[int]txnkit.XID)}
}

// ensureGlobalLocked escalates the transaction to a global (GTM-managed)
// one. Caller holds t.mu.
func (t *txn) ensureGlobalLocked() {
	if t.global {
		return
	}
	t.c.sendGTM(transport.GTMRound)
	t.gxid, t.gsnap = t.c.gtm.BeginGlobal()
	t.global = true
	// Retroactively bind any already-started local legs.
	for dnID, xid := range t.xids {
		// Registration failures can only happen on settled transactions,
		// which cannot be in t.xids.
		if err := t.c.node(dnID).Txm.RegisterGlobal(xid, t.gxid); err != nil {
			panic(fmt.Sprintf("cluster: escalation failed: %v", err))
		}
	}
}

// touch starts (or returns) the transaction's leg on a data node.
// In GTM-lite mode the first shard is free; touching a second shard
// escalates to a global transaction. In baseline mode every transaction is
// global from the first touch.
func (t *txn) touch(dnID int) txnkit.XID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.touchLocked(dnID)
}

func (t *txn) touchLocked(dnID int) txnkit.XID {
	if xid, ok := t.xids[dnID]; ok {
		return xid
	}
	if t.mode == ModeBaseline {
		t.ensureGlobalLocked()
	} else if len(t.xids) >= 1 {
		t.ensureGlobalLocked() // GTM-lite: second shard -> escalate
	}
	dn := t.c.node(dnID)
	var xid txnkit.XID
	if t.global {
		xid = dn.Txm.BeginGlobal(t.gxid)
	} else {
		xid = dn.Txm.Begin()
	}
	t.xids[dnID] = xid
	return xid
}

// touchSet pre-touches a set of data nodes, escalating once if the set is
// larger than one.
func (t *txn) touchSet(dnIDs []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(dnIDs) > 1 || (len(dnIDs) == 1 && len(t.xids) > 0 && t.xids[dnIDs[0]] == 0) {
		needsEscalate := len(dnIDs) > 1
		for _, id := range dnIDs {
			if _, ok := t.xids[id]; !ok && len(t.xids) > 0 {
				needsEscalate = true
			}
		}
		if needsEscalate && t.mode == ModeGTMLite {
			t.ensureGlobalLocked()
		}
	}
	for _, id := range dnIDs {
		t.touchLocked(id)
	}
}

// refreshGlobalSnapshot implements baseline mode's per-statement snapshot
// round trip (the "many-round communication" the paper removes): one extra
// GTM snapshot request per statement.
func (t *txn) refreshGlobalSnapshot() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.global && t.mode == ModeBaseline {
		t.c.sendGTM(transport.SnapshotReq)
		t.gsnap = t.c.gtm.Snapshot()
	}
}

// hasLeg reports whether the transaction already holds a leg on dnID.
func (t *txn) hasLeg(dnID int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.xids[dnID]
	return ok
}

// logWrite records one write for the leg on dnID (see txn.pending).
func (t *txn) logWrite(dnID int, rec WriteRec) {
	if t.pending == nil {
		t.pending = make(map[int][]WriteRec)
	}
	t.pending[dnID] = append(t.pending[dnID], rec)
}

// snapshotFor produces the statement snapshot on a data node: a purely
// local snapshot on the GTM-lite fast path, a merged snapshot (Algorithm 1)
// when the transaction is global.
func (t *txn) snapshotFor(dnID int) (*txnkit.Snapshot, error) {
	dn := t.c.node(dnID)
	t.mu.Lock()
	global, gsnap := t.global, t.gsnap
	t.mu.Unlock()
	if !global {
		s := dn.Txm.LocalSnapshot()
		return &s, nil
	}
	s, err := dn.Txm.MergeSnapshot(gsnap)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// commit finishes the transaction: a release of its legs when it wrote
// nothing, local commit on the single-shard fast path, 2PC with
// commit-on-GTM-first ordering otherwise.
func (t *txn) commit() error {
	if t.done {
		return errors.New("cluster: transaction already finished")
	}
	t.done = true
	if t.failed {
		t.abortLocked()
		return ErrTxnAborted
	}
	ids := t.sortedDNs()
	if !t.dml {
		t.release(ids)
		return nil
	}

	// Hold a commit slot on every leg for the duration of the protocol,
	// then re-check liveness: a failover marks the primary down and drains
	// these slots, so a commit racing the kill either aborts here (saw the
	// down mark) or lands its records in the shipped log before promotion —
	// never in between. Sync-mode standby waits run after the slots drop.
	for _, dnID := range ids {
		t.c.node(dnID).committing.Add(1)
	}
	var waits []func()
	defer func() {
		for _, dnID := range ids {
			t.c.node(dnID).committing.Add(-1)
		}
		for _, w := range waits {
			w()
		}
	}()
	for _, dnID := range ids {
		if t.c.nodeDown(dnID) {
			t.abortLocked()
			return fmt.Errorf("cluster: commit aborted, %w: dn%d", ErrNodeDown, dnID)
		}
	}

	if !t.global {
		// GTM-lite single-shard fast path: no GTM, no 2PC, and exactly one
		// leg — a second one would have escalated the transaction.
		if len(ids) == 0 {
			return nil
		}
		dnID := ids[0]
		if err := t.c.sendDN(dnID, transport.Commit, 0); err != nil {
			// The commit message never reached the node: nothing
			// committed, so aborting is safe and the client sees the
			// failure.
			t.abortLocked()
			return fmt.Errorf("cluster: commit aborted, dn%d unreachable: %w", dnID, err)
		}
		return t.c.commitLeg(dnID, t.xids[dnID], t.pending[dnID], &waits)
	}
	// Phase 1: prepare every leg, as one wave. A leg whose prepare was lost
	// cannot vote, so the transaction aborts everywhere.
	if err := t.c.sendDNs(ids, transport.Prepare); err != nil {
		t.abortLocked()
		return fmt.Errorf("cluster: prepare failed: %w", err)
	}
	for _, dnID := range ids {
		if err := t.c.node(dnID).Txm.Prepare(t.xids[dnID]); err != nil {
			t.abortLocked()
			return fmt.Errorf("cluster: prepare failed on dn%d: %w", dnID, err)
		}
	}
	// Every leg is prepared: park the write records so in-doubt recovery
	// can still ship them if the coordinator dies mid-commit.
	for _, dnID := range ids {
		t.c.stashPrepared(dnID, t.xids[dnID], t.pending[dnID])
	}
	if t.c.failCrashBeforeGTM.Load() {
		// Simulated coordinator death: legs stay prepared, no GTM decision.
		return errors.New("cluster: coordinator crashed before GTM commit (failpoint)")
	}
	// Mark committed at the GTM FIRST (paper: "transactions are marked
	// committed in GTM first and then on all nodes") — this ordering is
	// what makes Anomaly 1 possible and UPGRADE necessary.
	t.c.sendGTM(transport.GTMRound)
	t.c.gtm.EndGlobal(t.gxid, true)
	if t.c.failCrashAfterGTM.Load() {
		// Simulated coordinator death after the decision became durable:
		// legs stay prepared until RecoverInDoubt finishes phase 2.
		return errors.New("cluster: coordinator crashed after GTM commit (failpoint)")
	}
	// Phase 2: commit confirmations to the data nodes, as one wave. The
	// decision is already durable at the GTM, so every leg whose
	// confirmation arrived commits; a leg whose confirmation was lost stays
	// prepared with its records stashed, and in-doubt recovery
	// (ResolveInDoubt) finishes it when the node is reachable.
	var firstErr error
	lost := t.c.waveDN(ids, transport.Commit)
	for i, dnID := range ids {
		if lost != nil && lost[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: commit confirmation to dn%d lost (leg stays in doubt): %w", dnID, lost[i])
			}
			continue
		}
		recs := t.c.takeStash(dnID, t.xids[dnID])
		if recs == nil {
			recs = t.pending[dnID]
		}
		if err := t.c.commitLeg(dnID, t.xids[dnID], recs, &waits); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// release ends a transaction that ran no DML — the read-only optimisation
// of two-phase commit. Its legs hold nothing to vote on, log or ship, so
// there is no prepare, no commit slot and nothing for the client to wait
// for: the outcome goes to the GTM and one commit message to every leg, all
// posted and none awaited — the statement's critical path ended at its last
// fragment response. A release the fabric loses is counted as dropped and
// its leg ends by presumed abort, which for a leg without writes is the same
// thing; the rows stay delivered.
func (t *txn) release(ids []int) {
	if t.global {
		t.c.postGTM(transport.GTMRound)
		t.c.gtm.EndGlobal(t.gxid, true)
	}
	for _, dnID := range ids {
		txm := t.c.node(dnID).Txm
		// Settling errors (leg already ended) are unreachable through the
		// session API; ignore defensively.
		if t.c.postDN(dnID, transport.Commit) != nil {
			_ = txm.Abort(t.xids[dnID])
		} else {
			_ = txm.Commit(t.xids[dnID])
		}
	}
}

// abort rolls back every leg.
func (t *txn) abort() {
	if t.done {
		return
	}
	t.done = true
	t.abortLocked()
}

// abortLocked rolls every leg back with one wave nobody waits for: a lost
// abort leaves its leg to presumed-abort recovery, and the client's error
// does not depend on any of them arriving.
func (t *txn) abortLocked() {
	for _, dnID := range t.sortedDNs() {
		_ = t.c.postDN(dnID, transport.Abort)
		// Abort errors (already settled) are unreachable through the
		// session API; ignore defensively.
		_ = t.c.node(dnID).Txm.Abort(t.xids[dnID])
	}
	if t.global {
		t.c.postGTM(transport.GTMRound)
		t.c.gtm.EndGlobal(t.gxid, false)
	}
}

func (t *txn) sortedDNs() []int {
	ids := make([]int, 0, len(t.xids))
	for id := range t.xids {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

// Exec parses and executes one SQL statement.
func (s *Session) Exec(sql string) (*Result, error) {
	stmt, err := sqlx.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement: prepare, then execute once.
func (s *Session) ExecStmt(stmt sqlx.Statement) (*Result, error) {
	return s.Prepare(stmt).Exec(nil)
}

func (s *Session) execTxControl(tc *sqlx.TxControl) (*Result, error) {
	switch tc.Verb {
	case "BEGIN":
		if s.tx != nil {
			return nil, errors.New("cluster: already inside a transaction")
		}
		s.tx = s.newTxn()
		return &Result{}, nil
	case "COMMIT":
		if s.tx == nil {
			return nil, errors.New("cluster: COMMIT outside a transaction")
		}
		t := s.tx
		s.tx = nil
		s.LastTxnWasGlobal = t.global
		return &Result{}, t.commit()
	case "ROLLBACK":
		if s.tx == nil {
			return nil, errors.New("cluster: ROLLBACK outside a transaction")
		}
		t := s.tx
		s.tx = nil
		s.LastTxnWasGlobal = t.global
		t.abort()
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown transaction verb %q", tc.Verb)
	}
}

// execInTxn runs a prepared DML/SELECT inside the current explicit
// transaction or an implicit autocommit one.
func (s *Session) execInTxn(p *Prepared, params []types.Datum) (*Result, error) {
	if s.tx != nil {
		if s.tx.failed {
			return nil, ErrTxnAborted
		}
		res, err := s.execStatement(s.tx, p, params)
		if err != nil {
			s.tx.failed = true
		}
		return res, err
	}
	t := s.newTxn()
	res, err := s.execStatement(t, p, params)
	if err != nil {
		t.abort()
		s.LastTxnWasGlobal = t.global
		return nil, err
	}
	s.LastTxnWasGlobal = t.global
	return res, t.commit()
}

func (s *Session) execStatement(t *txn, p *Prepared, params []types.Datum) (*Result, error) {
	// Pin the routing view: the bucket map (and freeze set) cannot change
	// while this statement runs, so every row it touches routes and filters
	// consistently — and the epoch the prepared statement's compiled unit is
	// checked against cannot move under it. Commit/abort run outside the pin.
	s.c.routeMu.RLock()
	defer s.c.routeMu.RUnlock()
	u, a, err := p.unitFor(params)
	if err != nil {
		return nil, err
	}
	a.reset(t)
	ctx := exec.NewCtx(s.c.Clock())
	ctx.Params = params
	return u.run(a, ctx)
}

func (s *Session) execExplain(ex *sqlx.Explain, params []types.Datum) (*Result, error) {
	sel, ok := ex.Stmt.(*sqlx.Select)
	if !ok {
		return nil, errors.New("cluster: EXPLAIN supports only SELECT")
	}
	t := s.tx
	if t == nil {
		t = s.newTxn()
		defer t.abort()
	}
	s.c.routeMu.RLock()
	defer s.c.routeMu.RUnlock()
	access := s.newStmtAccess()
	u, err := s.compileSelect(access, sel, params, true)
	if err != nil {
		return nil, err
	}
	access.reset(t)
	ctx := exec.NewCtx(s.c.Clock())
	ctx.Params = params
	p, err := u.open(access, ctx)
	if err != nil {
		return nil, err
	}
	if !ex.Analyze {
		var rows []types.Row
		for _, c := range p.Counted {
			rows = append(rows, types.Row{
				types.NewString(c.StepText),
				types.NewFloat(c.EstimatedRows),
			})
		}
		return &Result{Columns: []string{"step", "estimated_rows"}, Rows: rows, Plan: p}, nil
	}
	// EXPLAIN ANALYZE: execute the plan, discard output rows, report the
	// estimated vs actual cardinality of every instrumented step plus the
	// MPP exchange volume.
	start := time.Now()
	resultRows, err := exec.Collect(ctx, p.Root)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	var rows []types.Row
	for _, c := range p.Counted {
		rows = append(rows, types.Row{
			types.NewString(c.StepText),
			types.NewFloat(c.EstimatedRows),
			types.NewInt(c.ActualRows),
		})
	}
	rows = append(rows, types.Row{
		types.NewString(fmt.Sprintf("TOTAL (%d result rows, %v, %d rows shipped)",
			len(resultRows), elapsed.Round(time.Microsecond), access.rowsShipped.Load())),
		types.Null,
		types.NewInt(int64(len(resultRows))),
	})
	return &Result{Columns: []string{"step", "estimated_rows", "actual_rows"}, Rows: rows, Plan: p, RowsShipped: access.rowsShipped.Load()}, nil
}
