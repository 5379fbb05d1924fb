package cluster

import (
	"errors"
	"fmt"
	"slices"
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
	// oneShot marks the implicit transaction of one autocommit statement:
	// its legs end with the statement's own requests (see leg.carried).
	// Set at creation, read-only after.
	oneShot bool
	// mu guards legs, global, gxid and gsnap against concurrent fragment
	// start: parallel Exchange fragments of one statement may begin legs
	// on different data nodes simultaneously. Commit, abort and the
	// post-statement reads (legDNs, LastTxnWasGlobal) run after every
	// fragment has joined — Exchange.Open waits for its workers — so they
	// read without the lock.
	mu sync.Mutex
	// legs lists the transaction's legs in node order. first backs it until
	// a second leg arrives, so a single-shard transaction's legs cost no
	// allocation of their own.
	legs   []leg
	first  [1]leg
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

// leg is the transaction's branch on data node dn.
type leg struct {
	dn  int
	xid txnkit.XID
	// carried says the leg's node received a request of the transaction's
	// one statement — its write or its fragment — while the transaction
	// was oneShot. The node then knows the leg has nothing more coming and
	// ends it with that request, so the leg's outcome needs no message of
	// its own: no commit on the single-shard fast path, no release.
	carried bool
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
	return len(t.legs) > 0
}

func (s *Session) newTxn() *txn {
	t := &txn{c: s.c, mode: s.c.cfg.Mode}
	t.legs = t.first[:0]
	return t
}

// legAt finds the leg on dnID: its index in t.legs, or where it would be
// inserted. Caller holds t.mu (or every fragment has joined).
func (t *txn) legAt(dnID int) (int, bool) {
	for i := range t.legs {
		if t.legs[i].dn >= dnID {
			return i, t.legs[i].dn == dnID
		}
	}
	return len(t.legs), false
}

// legDNs lists the nodes the transaction holds legs on, ascending.
func (t *txn) legDNs() []int {
	ids := make([]int, len(t.legs))
	for i, l := range t.legs {
		ids[i] = l.dn
	}
	return ids
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
	for _, l := range t.legs {
		// Registration failures can only happen on settled transactions,
		// which cannot be in t.legs.
		if err := t.c.node(l.dn).Txm.RegisterGlobal(l.xid, t.gxid); err != nil {
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
	at, ok := t.legAt(dnID)
	if ok {
		return t.legs[at].xid
	}
	if t.mode == ModeBaseline {
		t.ensureGlobalLocked()
	} else if len(t.legs) >= 1 {
		t.ensureGlobalLocked() // GTM-lite: second shard -> escalate
	}
	dn := t.c.node(dnID)
	var xid txnkit.XID
	if t.global {
		xid = dn.Txm.BeginGlobal(t.gxid)
	} else {
		xid = dn.Txm.Begin()
	}
	t.legs = slices.Insert(t.legs, at, leg{dn: dnID, xid: xid})
	return xid
}

// touchSet pre-touches a set of data nodes, escalating once if the set is
// larger than one or adds a node to a transaction that already has a leg.
func (t *txn) touchSet(dnIDs []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mode == ModeGTMLite {
		escalate := len(dnIDs) > 1
		for _, id := range dnIDs {
			if _, ok := t.legAt(id); !ok && len(t.legs) > 0 {
				escalate = true
			}
		}
		if escalate {
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
	_, ok := t.legAt(dnID)
	return ok
}

// carry marks the legs on dnIDs carried by the request just delivered
// there, if the transaction is oneShot (see leg.carried). A node the
// transaction holds no leg on — an HTAP replica's host — has nothing to mark.
func (t *txn) carry(dnIDs []int) {
	if !t.oneShot {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range dnIDs {
		if at, ok := t.legAt(id); ok {
			t.legs[at].carried = true
		}
	}
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
	if !t.dml {
		t.release()
		return nil
	}

	// Hold a commit slot on every leg for the duration of the protocol,
	// then re-check liveness: a failover marks the primary down and drains
	// these slots, so a commit racing the kill either aborts here (saw the
	// down mark) or lands its records in the shipped log before promotion —
	// never in between. Sync-mode standby waits run after the slots drop.
	for _, l := range t.legs {
		t.c.node(l.dn).committing.Add(1)
	}
	var waits []func()
	defer func() {
		for _, l := range t.legs {
			t.c.node(l.dn).committing.Add(-1)
		}
		for _, w := range waits {
			w()
		}
	}()
	for _, l := range t.legs {
		if t.c.nodeDown(l.dn) {
			t.abortLocked()
			return fmt.Errorf("cluster: commit aborted, %w: dn%d", ErrNodeDown, l.dn)
		}
	}

	if !t.global {
		// GTM-lite single-shard fast path: no GTM, no 2PC, and exactly one
		// leg — a second one would have escalated the transaction. A
		// carried leg commits with the write that reached it; any other
		// is told to.
		if len(t.legs) == 0 {
			return nil
		}
		l := t.legs[0]
		if !l.carried {
			if err := t.c.sendDN(l.dn, transport.Commit, 0); err != nil {
				// The commit message never reached the node: nothing
				// committed, so aborting is safe and the client sees the
				// failure.
				t.abortLocked()
				return fmt.Errorf("cluster: commit aborted, dn%d unreachable: %w", l.dn, err)
			}
		}
		return t.c.commitLeg(l.dn, l.xid, t.pending[l.dn], &waits)
	}
	// Phase 1: prepare every leg, as one wave. A leg whose prepare was lost
	// cannot vote, so the transaction aborts everywhere.
	ids := t.legDNs()
	if err := t.c.sendDNs(ids, transport.Prepare); err != nil {
		t.abortLocked()
		return fmt.Errorf("cluster: prepare failed: %w", err)
	}
	for _, l := range t.legs {
		if err := t.c.node(l.dn).Txm.Prepare(l.xid); err != nil {
			t.abortLocked()
			return fmt.Errorf("cluster: prepare failed on dn%d: %w", l.dn, err)
		}
	}
	// Every leg is prepared: park the write records so in-doubt recovery
	// can still ship them if the coordinator dies mid-commit.
	for _, l := range t.legs {
		t.c.stashPrepared(l.dn, l.xid, t.pending[l.dn])
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
	for i, l := range t.legs {
		if lost != nil && lost[i] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: commit confirmation to dn%d lost (leg stays in doubt): %w", l.dn, lost[i])
			}
			continue
		}
		recs := t.c.takeStash(l.dn, l.xid)
		if recs == nil {
			recs = t.pending[l.dn]
		}
		if err := t.c.commitLeg(l.dn, l.xid, recs, &waits); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// release ends a transaction that ran no DML — the read-only optimisation
// of two-phase commit. Its legs hold nothing to vote on, log or ship, so
// there is no prepare, no commit slot and nothing for the client to wait
// for: the outcome goes to the GTM and one commit message to every leg not
// carried (a carried one ended with its fragment), all posted and none
// awaited — the statement's critical path ended at its last fragment
// response. A release the fabric loses is counted as dropped and its leg
// ends by presumed abort, which for a leg without writes is the same thing;
// the rows stay delivered.
func (t *txn) release() {
	if t.global {
		t.c.postGTM(transport.GTMRound)
		t.c.gtm.EndGlobal(t.gxid, true)
	}
	for _, l := range t.legs {
		txm := t.c.node(l.dn).Txm
		// Settling errors (leg already ended) are unreachable through the
		// session API; ignore defensively.
		if !l.carried && t.c.postDN(l.dn, transport.Commit) != nil {
			_ = txm.Abort(l.xid)
		} else {
			_ = txm.Commit(l.xid)
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
	for _, l := range t.legs {
		_ = t.c.postDN(l.dn, transport.Abort)
		// Abort errors (already settled) are unreachable through the
		// session API; ignore defensively.
		_ = t.c.node(l.dn).Txm.Abort(l.xid)
	}
	if t.global {
		t.c.postGTM(transport.GTMRound)
		t.c.gtm.EndGlobal(t.gxid, false)
	}
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

// Begin opens an explicit transaction, as the statement BEGIN does.
func (s *Session) Begin() error {
	if s.tx != nil {
		return errors.New("cluster: already inside a transaction")
	}
	s.tx = s.newTxn()
	return nil
}

func (s *Session) execTxControl(tc *sqlx.TxControl) (*Result, error) {
	switch tc.Verb {
	case "BEGIN":
		return &Result{}, s.Begin()
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
	t.oneShot = true
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
