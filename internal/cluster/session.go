package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
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

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(stmt sqlx.Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *sqlx.TxControl:
		return s.execTxControl(st)
	case *sqlx.CreateTable:
		return &Result{}, s.c.createTable(st)
	case *sqlx.DropTable:
		return &Result{}, s.c.dropTable(st)
	case *sqlx.Explain:
		return s.execExplain(st)
	case *sqlx.Insert, *sqlx.Update, *sqlx.Delete, *sqlx.Select:
		return s.execInTxn(stmt)
	default:
		return nil, fmt.Errorf("cluster: unsupported statement %T", stmt)
	}
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

// execInTxn runs a DML/SELECT inside the current explicit transaction or an
// implicit autocommit one.
func (s *Session) execInTxn(stmt sqlx.Statement) (*Result, error) {
	if s.tx != nil {
		if s.tx.failed {
			return nil, ErrTxnAborted
		}
		res, err := s.execStatement(s.tx, stmt)
		if err != nil {
			s.tx.failed = true
		}
		return res, err
	}
	t := s.newTxn()
	res, err := s.execStatement(t, stmt)
	if err != nil {
		t.abort()
		s.LastTxnWasGlobal = t.global
		return nil, err
	}
	s.LastTxnWasGlobal = t.global
	return res, t.commit()
}

func (s *Session) execStatement(t *txn, stmt sqlx.Statement) (*Result, error) {
	// Pin the routing view: the bucket map (and freeze set) cannot change
	// while this statement runs, so every row it touches routes and filters
	// consistently. Commit/abort run outside the pin.
	s.c.routeMu.RLock()
	defer s.c.routeMu.RUnlock()
	switch st := stmt.(type) {
	case *sqlx.Insert:
		return s.execInsert(t, st)
	case *sqlx.Update:
		return s.execRewrite(t, OpUpdate, st.Table, st.Where, st.Set)
	case *sqlx.Delete:
		return s.execRewrite(t, OpDelete, st.Table, st.Where, nil)
	case *sqlx.Select:
		return s.execSelect(s.newStmtAccess(t), st)
	default:
		return nil, fmt.Errorf("cluster: unsupported statement %T in transaction", stmt)
	}
}

func (s *Session) execExplain(ex *sqlx.Explain) (*Result, error) {
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
	access := s.newStmtAccess(t)
	p, err := s.planSelect(access, sel)
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
	ctx := exec.NewCtx(s.c.Clock())
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

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// evalConstRow evaluates an INSERT VALUES row (no column references).
func (s *Session) evalConstRow(pl *plan.Planner, exprs []sqlx.Expr) (types.Row, error) {
	ctx := exec.NewCtx(s.c.Clock())
	out := make(types.Row, len(exprs))
	for i, e := range exprs {
		ce, err := pl.CompileScalar(e, &plan.Scope{})
		if err != nil {
			return nil, err
		}
		v, err := ce.Eval(ctx, nil)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// writeLeg is one target of a DML statement: the partition written and the
// transaction leg the write runs under. tap is the transaction when the
// leg's changes must be recorded for the commit taps, nil when nobody
// listens.
type writeLeg struct {
	dn   int
	part partition
	xid  txnkit.XID
	snap *txnkit.Snapshot
	tap  *txn
}

// log records one change of the leg; call only when l.tap != nil.
func (l writeLeg) log(rec WriteRec) { l.tap.logWrite(l.dn, rec) }

// beginWrite opens a DML statement on table. The transaction is marked as
// writing before anything is planned — INSERT ... SELECT's source query and
// every subquery must read the primaries, not a bounded-staleness HTAP
// replica — and the statement gets its one access object: subqueries, an
// INSERT's source query and the write legs all read under its per-DN
// snapshots.
func (s *Session) beginWrite(t *txn, table string) (*TableInfo, *stmtAccess, error) {
	t.markDML()
	ti, err := s.c.tableInfo(table)
	if err != nil {
		return nil, nil, err
	}
	return ti, s.newStmtAccess(t), nil
}

// execWrite is the one write fragment body: INSERT, UPDATE and DELETE differ
// only in frag, what they do to one target partition. Every target must be
// live (a replicated table is written on every copy or not at all), the
// legs start together so a multi-shard statement escalates once, the
// statement costs one write wave whatever its row count, and each leg
// writes under its xid and the statement's snapshot on that node. frag
// returns the rows it affected; a replicated table's are counted once.
func (s *Session) execWrite(a *stmtAccess, ti *TableInfo, targets []int, frag func(writeLeg) (int, error)) (*Result, error) {
	c, t := s.c, a.t
	if err := c.requireLive(targets...); err != nil {
		if ti.replicated {
			return nil, fmt.Errorf("%w: %w", ErrReplicatedWriteDown, err)
		}
		return nil, err
	}
	t.touchSet(targets)
	if err := c.sendDNs(targets, transport.Write); err != nil {
		return nil, err
	}
	// Replicated tables are never recorded: standbys receive those writes
	// through this same all-replica path.
	var tap *txn
	if !ti.replicated && c.tapInstalled() {
		tap = t
	}
	total := 0
	for i, dnID := range targets {
		snap, err := a.snapshotFor(dnID)
		if err != nil {
			return nil, err
		}
		n, err := frag(writeLeg{dn: dnID, part: ti.part(dnID), xid: t.touch(dnID), snap: snap, tap: tap})
		if err != nil {
			return nil, err
		}
		if !ti.replicated || i == 0 {
			total += n
		}
	}
	return &Result{RowsAffected: total}, nil
}

func (s *Session) execInsert(t *txn, ins *sqlx.Insert) (*Result, error) {
	ti, a, err := s.beginWrite(t, ins.Table)
	if err != nil {
		return nil, err
	}
	schema := ti.Meta.Schema

	// Column mapping: explicit column list may reorder or omit columns.
	colIdx := make([]int, 0, schema.Len())
	if len(ins.Columns) == 0 {
		for i := 0; i < schema.Len(); i++ {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range ins.Columns {
			i := schema.ColumnIndex(name)
			if i < 0 {
				return nil, &plan.ErrColumnNotFound{Table: ins.Table, Column: name}
			}
			colIdx = append(colIdx, i)
		}
	}

	// Materialize the rows to insert.
	var rows []types.Row
	if ins.Query != nil {
		res, err := s.execSelect(a, ins.Query)
		if err != nil {
			return nil, err
		}
		rows = res.Rows
	} else {
		pl := s.planner(a)
		for _, exprRow := range ins.Rows {
			row, err := s.evalConstRow(pl, exprRow)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return &Result{}, nil
	}

	// Widen every row to the schema and route it before any is written, so
	// the statement is one leg, one snapshot and one write message per
	// target. dst[i] is the node rows[i] goes to; a replicated table (dst
	// nil) puts every row on every replica.
	var dst, targets []int
	if ti.replicated {
		targets = s.c.replicaTargetsLocked()
	} else {
		dst = make([]int, len(rows))
	}
	for i, src := range rows {
		if len(src) != len(colIdx) {
			return nil, fmt.Errorf("cluster: INSERT has %d values but %d target columns", len(src), len(colIdx))
		}
		full := make(types.Row, schema.Len())
		for j, c := range colIdx {
			full[c] = src[j]
		}
		rows[i] = full
		if dst != nil {
			if dst[i], err = s.c.writeTarget(full[ti.Meta.DistKey]); err != nil {
				return nil, err
			}
			if !slices.Contains(targets, dst[i]) {
				targets = append(targets, dst[i])
			}
		}
	}
	sort.Ints(targets)
	return s.execWrite(a, ti, targets, func(l writeLeg) (int, error) {
		n := 0
		for i, row := range rows {
			if dst != nil && dst[i] != l.dn {
				continue
			}
			if err := l.part.insert(l.xid, l.snap, row); err != nil {
				return n, err
			}
			if l.tap != nil {
				l.log(WriteRec{Table: ti.Meta.Name, Op: OpInsert, Row: row})
			}
			n++
		}
		return n, nil
	})
}

func allDNs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// routeWrite picks target data nodes for an UPDATE/DELETE on table ti with
// the given WHERE clause. Replicated tables write every non-retired
// replica (standbys included); scatter writes on distributed tables cover
// the primaries only — standbys receive them through the commit log.
func (s *Session) routeWrite(ti *TableInfo, where sqlx.Expr) []int {
	if ti.replicated {
		return s.c.replicaTargetsLocked()
	}
	scope := plan.TableScope(ti.Meta, shortAlias(ti.Meta.Name))
	if shard, ok := routeByDistKey(s.c, ti, scope, where); ok {
		return []int{shard}
	}
	return s.c.scanTargetsLocked()
}

// routeByDistKey looks for a top-level `distkey = <literal>` conjunct.
func routeByDistKey(c *Cluster, ti *TableInfo, scope *plan.Scope, where sqlx.Expr) (int, bool) {
	for _, conj := range sqlx.SplitConjuncts(where) {
		b, ok := conj.(*sqlx.BinaryOp)
		if !ok || b.Op != sqlx.OpEq {
			continue
		}
		col, lit := colLit(b)
		if col == nil || lit == nil {
			continue
		}
		i, err := scope.Resolve(col.Table, col.Column)
		if err != nil || i != ti.Meta.DistKey {
			continue
		}
		return c.shardFor(lit.Value), true
	}
	return 0, false
}

func colLit(b *sqlx.BinaryOp) (*sqlx.ColumnRef, *sqlx.Literal) {
	if cr, ok := b.Left.(*sqlx.ColumnRef); ok {
		if lit, ok := b.Right.(*sqlx.Literal); ok {
			return cr, lit
		}
	}
	if cr, ok := b.Right.(*sqlx.ColumnRef); ok {
		if lit, ok := b.Left.(*sqlx.Literal); ok {
			return cr, lit
		}
	}
	return nil, nil
}

func shortAlias(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// setClause is one compiled SET assignment of an UPDATE.
type setClause struct {
	col int
	e   exec.Expr
}

// compileSets compiles an UPDATE's SET list over ti's row scope.
func compileSets(pl *plan.Planner, scope *plan.Scope, ti *TableInfo, set []sqlx.Assignment) ([]setClause, error) {
	sets := make([]setClause, 0, len(set))
	for _, as := range set {
		i := ti.Meta.Schema.ColumnIndex(as.Column)
		if i < 0 {
			return nil, &plan.ErrColumnNotFound{Table: ti.Meta.Name, Column: as.Column}
		}
		ce, err := pl.CompileScalar(as.Value, scope)
		if err != nil {
			return nil, err
		}
		if i == ti.Meta.DistKey && !ti.replicated {
			return nil, fmt.Errorf("cluster: updating the distribution column %q is not supported", as.Column)
		}
		sets = append(sets, setClause{col: i, e: ce})
	}
	return sets, nil
}

// execRewrite is UPDATE (op OpUpdate, applying set) and DELETE (OpDelete,
// no set) as a write fragment: on every routed partition, the visible rows
// that the partition owns and where accepts are the victims of the one
// storage loop that ends versions and creates their successors.
func (s *Session) execRewrite(t *txn, op WriteOp, table string, where sqlx.Expr, set []sqlx.Assignment) (*Result, error) {
	ti, a, err := s.beginWrite(t, table)
	if err != nil {
		return nil, err
	}
	if ti.columnar() {
		return nil, fmt.Errorf("cluster: %s is not supported on columnar table %q (use row storage)", strings.ToUpper(op.String()), table)
	}
	pl := s.planner(a)
	scope := plan.TableScope(ti.Meta, shortAlias(ti.Meta.Name))
	var pred exec.Expr
	if where != nil {
		if pred, err = pl.CompileScalar(where, scope); err != nil {
			return nil, err
		}
	}
	sets, err := compileSets(pl, scope, ti, set)
	if err != nil {
		return nil, err
	}
	c, ctx := s.c, exec.NewCtx(s.c.Clock())
	dk := ti.Meta.DistKey
	return s.execWrite(a, ti, s.routeWrite(ti, where), func(l writeLeg) (int, error) {
		// Rows whose bucket this partition does not own are migration
		// phantoms and silently skipped; an owned row in a bucket frozen for
		// cutover fails the statement (see frozenErr).
		owns := c.fragKeepDatum(ti, l.dn)
		freezing := owns != nil && c.frozenCount > 0
		match := func(r types.Row) (bool, error) {
			if owns != nil && !owns(r[dk]) {
				return false, nil
			}
			if freezing {
				if err := c.frozenErr(BucketOf(r[dk])); err != nil {
					return false, err
				}
			}
			if pred == nil {
				return true, nil
			}
			return exec.EvalBool(pred, ctx, r)
		}
		// A storage error after a change was recorded fails the statement
		// and aborts the transaction, discarding the record.
		var change func(types.Row) (types.Row, error)
		switch {
		case op == OpUpdate:
			change = func(old types.Row) (types.Row, error) {
				row := old.Clone()
				for _, sc := range sets {
					v, err := sc.e.Eval(ctx, row)
					if err != nil {
						return nil, err
					}
					row[sc.col] = v
				}
				if l.tap != nil {
					l.log(WriteRec{Table: ti.Meta.Name, Op: OpUpdate, Row: row.Clone(), Old: old.Clone()})
				}
				return row, nil
			}
		case l.tap != nil: // a DELETE somebody listens to
			change = func(old types.Row) (types.Row, error) {
				l.log(WriteRec{Table: ti.Meta.Name, Op: OpDelete, Old: old.Clone()})
				return nil, nil
			}
		}
		return l.part.row.Rewrite(l.xid, l.snap, match, change)
	})
}
