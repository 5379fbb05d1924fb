package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/transport"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// Prepared is a statement ready to execute any number of times on its
// session, with a value bound to each sqlx.Param of its AST per execution
// (none, for a statement parsed with its literals in place). What depends
// only on the statement's shape and the catalog — routing conjuncts, the
// compiled predicate, SET list and VALUES row, the primary-key access path
// and, for a SELECT that routes by key, the operator tree — is compiled on
// first execution and kept while the cluster's plan stamp stands; shards,
// legs, snapshots and fragment sources are resolved by every execution. A
// session's statements run one at a time, and so do a Prepared's executions.
type Prepared struct {
	s    *Session
	stmt sqlx.Statement

	// unit is stmt compiled under stamp, its operators bound to access.
	unit   unit
	access *stmtAccess
	stamp  planStamp
}

// Prepare readies stmt for execution on s.
func (s *Session) Prepare(stmt sqlx.Statement) *Prepared { return &Prepared{s: s, stmt: stmt} }

// Exec executes the statement with params bound to its parameters.
func (p *Prepared) Exec(params []types.Datum) (*Result, error) {
	s := p.s
	switch st := p.stmt.(type) {
	case *sqlx.TxControl:
		return s.execTxControl(st)
	case *sqlx.CreateTable:
		return &Result{}, s.c.createTable(st)
	case *sqlx.DropTable:
		return &Result{}, s.c.dropTable(st)
	case *sqlx.Explain:
		return s.execExplain(st, params)
	case *sqlx.Insert, *sqlx.Update, *sqlx.Delete, *sqlx.Select:
		return s.execInTxn(p, params)
	default:
		return nil, fmt.Errorf("cluster: unsupported statement %T", p.stmt)
	}
}

// planStamp is everything a compiled unit assumed about the cluster: the
// catalog and routing epoch, and the planner settings read while compiling.
// A unit is reused only under the stamp it was compiled under.
type planStamp struct {
	epoch    uint64
	pushdown plan.PushdownLevel
	join     plan.DistJoinPolicy
	degree   int
	learned  bool
	noPrune  bool
}

func (c *Cluster) planStamp() planStamp {
	return planStamp{
		epoch:    c.epoch.Load(),
		pushdown: c.Pushdown,
		join:     c.JoinPolicy,
		degree:   c.parallelDegree(),
		learned:  c.Learning && c.Store != nil,
		noPrune:  c.DisableSegmentPrune,
	}
}

// lockRoutes takes the route barrier for a change to the routing view —
// bucket map, node set, standby pairing, read policy, ownership filtering —
// and retires every compiled unit: whatever the holder changes, no statement
// compiled before it runs after it.
func (c *Cluster) lockRoutes() {
	c.routeMu.Lock()
	c.epoch.Add(1)
}

// unit is a DML or SELECT statement compiled for execution. run executes it
// once over a (reset for this execution) under ctx, which carries the
// parameter values.
type unit interface {
	run(a *stmtAccess, ctx *exec.Ctx) (*Result, error)
}

// unitFor returns the statement's compiled unit and the access object it is
// bound to, compiling it if there is none under the current stamp. A DML
// statement with a subquery in an expression is compiled by every execution,
// for that execution's values, as a scatter SELECT is planned (see
// selectUnit.plan; a subquery is a SELECT without a unit of its own). So, for
// this execution only, is a shape the planner cannot compile with parameters
// standing in for literals — a select item that must match a GROUP BY
// expression textually, say. Caller holds routeMu.
func (p *Prepared) unitFor(params []types.Datum) (unit, *stmtAccess, error) {
	s := p.s
	stamp := s.c.planStamp()
	if p.unit != nil && p.stamp == stamp {
		return p.unit, p.access, nil
	}
	p.unit = nil
	if len(params) == 0 || !hasExprSubquery(p.stmt) {
		a := s.newStmtAccess()
		u, err := s.compile(a, p.stmt, nil, len(params) == 0)
		if err == nil {
			p.unit, p.access, p.stamp = u, a, stamp
			return u, a, nil
		}
		if len(params) == 0 {
			return nil, nil, err
		}
	}
	a := s.newStmtAccess()
	u, err := s.compile(a, p.stmt, params, true)
	return u, a, err
}

// hasExprSubquery reports whether a DML statement holds a subquery in its
// VALUES rows, SET list or WHERE clause.
func hasExprSubquery(stmt sqlx.Statement) bool {
	found := false
	visit := func(e sqlx.Expr) { found = found || sqlx.HasSubquery(e) }
	switch st := stmt.(type) {
	case *sqlx.Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				visit(e)
			}
		}
	case *sqlx.Update:
		visit(st.Where)
		for _, as := range st.Set {
			visit(as.Value)
		}
	case *sqlx.Delete:
		visit(st.Where)
	}
	return found
}

// compile compiles stmt over a: for every execution (values nil: parameters
// stay parameters), or for the one execution whose values these are. literal
// says the planner meets no parameter it has no value for: every execution
// compiled so would be planned alike.
func (s *Session) compile(a *stmtAccess, stmt sqlx.Statement, values []types.Datum, literal bool) (unit, error) {
	switch st := stmt.(type) {
	case *sqlx.Select:
		return s.compileSelect(a, st, values, literal)
	case *sqlx.Insert:
		return s.compileInsert(a, st, values, literal)
	case *sqlx.Update:
		return s.compileRewrite(a, OpUpdate, st.Table, st.Where, st.Set, values)
	case *sqlx.Delete:
		return s.compileRewrite(a, OpDelete, st.Table, st.Where, nil, values)
	default:
		return nil, fmt.Errorf("cluster: unsupported statement %T in transaction", stmt)
	}
}

// ---------------------------------------------------------------------------
// Routing by distribution key
// ---------------------------------------------------------------------------

// distKeyValue looks for a top-level `distkey = <value>` conjunct of where
// and returns the value's expression: a literal, or the parameter standing
// in for one. nil means where does not pin ti's distribution key.
func distKeyValue(ti *TableInfo, scope *plan.Scope, where sqlx.Expr) sqlx.Expr {
	for _, conj := range sqlx.SplitConjuncts(where) {
		col, op, val, ok := sqlx.MatchColumnValue(conj)
		if !ok || op != sqlx.OpEq {
			continue
		}
		if i, err := scope.Resolve(col.Table, col.Column); err == nil && i == ti.Meta.DistKey {
			return val
		}
	}
	return nil
}

// keyAs is v as a key column of kind stores it (Schema.CheckRow's coercion:
// a string as its TIMESTAMP), or v if it does not convert. Rows route by it.
func keyAs(v types.Datum, kind types.Kind) types.Datum {
	if k, err := types.Coerce(v, kind); err == nil {
		return k
	}
	return v
}

func shortAlias(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func allDNs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ---------------------------------------------------------------------------
// The primary key as an access path
// ---------------------------------------------------------------------------

// keyProbe is the access path a pushed predicate offers a row partition: the
// `col = value` term that pins each primary-key column, in key order. It
// only says where to look — every candidate still goes through the whole
// predicate.
type keyProbe struct {
	terms []exec.Term
	kinds []types.Kind // the key columns' declared kinds
}

// keyProbeOf extracts the probe from a predicate's terms (compiled over
// meta's row scope); nil when some key column is left unpinned (or there is
// no key).
func keyProbeOf(terms []exec.Term, meta *plan.TableMeta) *keyProbe {
	if len(meta.PKCols) == 0 {
		return nil
	}
	k := &keyProbe{terms: make([]exec.Term, len(meta.PKCols)), kinds: make([]types.Kind, len(meta.PKCols))}
	for i, col := range meta.PKCols {
		t := pinOf(terms, col)
		if t == nil {
			return nil
		}
		k.terms[i], k.kinds[i] = *t, meta.Schema.Columns[col].Kind
	}
	return k
}

// pinOf returns the first `col = value` term among terms, nil for none.
func pinOf(terms []exec.Term, col int) *exec.Term {
	for i := range terms {
		if t := &terms[i]; t.Op == "=" && t.Col == col {
			return t
		}
	}
	return nil
}

// key evaluates the probe for one execution. nil — walk the partition —
// when a value does not resolve (exec.Term.Resolve): the predicate then
// matches nothing or fails on every row, and either way it must get to say
// so.
func (k *keyProbe) key(ctx *exec.Ctx) types.Row {
	if k == nil {
		return nil
	}
	key := make(types.Row, 0, len(k.terms))
	for i := range k.terms {
		var ok bool
		if key, ok = k.terms[i].Resolve(ctx, k.kinds[i], key); !ok {
			return nil
		}
	}
	return key
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// selectUnit is a compiled SELECT: where it routes, and — when it routes by
// key — how it runs.
type selectUnit struct {
	s   *Session
	sel *sqlx.Select

	// Routing, read off the statement's shape: distributed says it reads a
	// distributed table at all; scatter that some such table's distribution
	// key is left unpinned, so every primary is scanned; pinned lists, per
	// reference to a pinned table, the value its key is pinned to.
	// analytical is plan.AnalyticalShape, the HTAP gate's admission test.
	distributed, scatter, analytical bool
	pinned                           []pinnedTable

	// plan is the operator tree, kept when the statement routes by key
	// (every table pinned, or only replicated ones read) or holds no
	// parameters. A scatter statement's plan depends on how selective its
	// literals are, so one whose literals change is planned by every
	// execution, for that execution's values.
	plan *plan.Plan
}

type pinnedTable struct {
	table string
	val   sqlx.Expr  // *sqlx.Literal or *sqlx.Param
	kind  types.Kind // the distribution key's
}

// compileSelect analyses sel's routing and plans it over a if the plan is
// one to keep (see selectUnit.plan and compile).
func (s *Session) compileSelect(a *stmtAccess, sel *sqlx.Select, values []types.Datum, literal bool) (*selectUnit, error) {
	u := &selectUnit{s: s, sel: sel, analytical: plan.AnalyticalShape(sel)}
	u.analyzeRoutes(sel, nil)
	if !u.scatter || literal {
		a.scatter = u.scatter // the planner asks (JoinScan), as it will of every execution's route
		p, err := s.planner(a, values).PlanSelect(sel)
		if err != nil {
			return nil, err
		}
		u.plan = p
	}
	return u, nil
}

// analyzeRoutes walks every query block of q. A statement is single-shard
// iff every distributed table it references (in any query block) carries an
// equality predicate on its distribution key and all such predicates route
// to the same shard — the paper's "majority of transactions are
// single-sharded" fast path; which shard is each execution's business. ctes
// names the WITH entries visible to q.
func (u *selectUnit) analyzeRoutes(q *sqlx.Select, outer []string) {
	ctes := slices.Clone(outer)
	for _, cte := range q.CTEs {
		u.analyzeRoutes(cte.Query, ctes)
		ctes = append(ctes, strings.ToLower(cte.Name))
	}
	for _, ref := range q.From {
		u.analyzeRef(ref, q, ctes)
	}
	for _, so := range q.SetOps {
		u.analyzeRoutes(so.Query, ctes)
	}
	u.analyzeSubqueries(q.Where, ctes)
	u.analyzeSubqueries(q.Having, ctes)
	for _, it := range q.Items {
		if !it.Star {
			u.analyzeSubqueries(it.Expr, ctes)
		}
	}
}

func (u *selectUnit) analyzeRef(ref sqlx.TableRef, q *sqlx.Select, ctes []string) {
	switch r := ref.(type) {
	case *sqlx.BaseTable:
		if slices.Contains(ctes, strings.ToLower(r.Name)) {
			return
		}
		ti, err := u.s.c.tableInfo(r.Name)
		if err != nil || ti.replicated {
			return
		}
		u.distributed = true
		alias := r.Alias
		if alias == "" {
			alias = shortAlias(r.Name)
		}
		scope := plan.TableScope(ti.Meta, strings.ToLower(alias))
		if val := distKeyValue(ti, scope, q.Where); val != nil {
			u.pinned = append(u.pinned, pinnedTable{table: ti.Meta.Name, val: val, kind: ti.Meta.Schema.Columns[ti.Meta.DistKey].Kind})
		} else {
			u.scatter = true
		}
	case *sqlx.SubqueryRef:
		u.analyzeRoutes(r.Query, ctes)
	case *sqlx.TableFunc:
		if r.Query != nil {
			u.analyzeRoutes(r.Query, ctes)
		} else {
			// ggraph and gspatial compile to scans of tables known only
			// once the planner has compiled them: read every primary.
			u.distributed, u.scatter = true, true
		}
	case *sqlx.JoinRef:
		u.analyzeRef(r.Left, q, ctes)
		u.analyzeRef(r.Right, q, ctes)
		u.analyzeSubqueries(r.On, ctes)
	}
}

func (u *selectUnit) analyzeSubqueries(e sqlx.Expr, ctes []string) {
	sqlx.WalkExpr(e, func(x sqlx.Expr) bool {
		switch v := x.(type) {
		case *sqlx.Subquery:
			u.analyzeRoutes(v.Query, ctes)
			return false
		case *sqlx.InList:
			for _, item := range v.List {
				if sq, ok := item.(*sqlx.Subquery); ok {
					u.analyzeRoutes(sq.Query, ctes)
				}
			}
		}
		return true
	})
}

// route decides which data nodes this execution must touch: the shards the
// pinned values hash to (each pinned table then scans only its own), every
// primary for a scatter statement, one live node for replicated tables
// alone. The shards' owners then pass through admitReplicas, which may move
// a leg to a synced standby or drop the legs altogether.
func (u *selectUnit) route(a *stmtAccess, params []types.Datum) []int {
	c, t := u.s.c, a.t
	var owners []int
	switch {
	case !u.distributed:
		owners = c.replicaReadNode(t)
	case u.scatter:
		a.scatter = true
		owners = c.scanTargetsLocked()
	default:
		for _, p := range u.pinned {
			v, _ := sqlx.ValueOf(p.val, params)
			shard := c.shardFor(keyAs(v, p.kind))
			a.route(p.table, shard)
			if at, found := slices.BinarySearch(a.owners, shard); !found {
				a.owners = slices.Insert(a.owners, at, shard)
			}
		}
		owners = a.owners
	}
	return u.s.admitReplicas(t, a, u.analytical, owners)
}

// open routes the execution, takes its legs — up front, so a multi-shard
// statement escalates to a global transaction once, before any fragment
// acquires a snapshot — and returns the plan to run: the kept one, or one
// planned now.
func (u *selectUnit) open(a *stmtAccess, ctx *exec.Ctx) (*plan.Plan, error) {
	t := a.t
	t.touchSet(u.route(a, ctx.Params))
	t.refreshGlobalSnapshot()
	if u.plan != nil {
		return u.plan, nil
	}
	return u.s.planner(a, ctx.Params).PlanSelect(u.sel)
}

func (u *selectUnit) run(a *stmtAccess, ctx *exec.Ctx) (*Result, error) {
	s := u.s
	planStart := time.Now()
	p, err := u.open(a, ctx)
	if err != nil {
		return nil, err
	}
	planTime := time.Since(planStart)
	rows, err := exec.Collect(ctx, p.Root)
	if err != nil {
		return nil, err
	}
	// Learning optimizer producer (paper §II-C).
	if s.c.Learning && s.c.Store != nil {
		s.c.Store.Capture(p.Counted)
	}
	return &Result{Columns: p.OutputNames, Rows: rows, Plan: p, RowsShipped: a.rowsShipped.Load(), PlanTime: planTime}, nil
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

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
	if err := a.dispatch(transport.Write, 0, targets...); err != nil {
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

// insertUnit is a compiled INSERT: the target, the column mapping and either
// the VALUES rows or the source query's unit.
type insertUnit struct {
	s      *Session
	ti     *TableInfo
	colIdx []int
	// vals holds the VALUES rows back to back, len(colIdx) items each: a
	// literal item is its datum; an item listed in items is filled in by
	// each execution.
	vals  []types.Datum
	items []insertItem
	query *selectUnit
}

// insertItem is a VALUES item that is not a literal, at position at of
// vals: a parameter, read from the execution's values, or any other
// expression, compiled by the planner.
type insertItem struct {
	at    int
	param *sqlx.Param
	expr  exec.Expr
}

// eval returns the item's value in the execution ctx.
func (it *insertItem) eval(ctx *exec.Ctx) (types.Datum, error) {
	if it.expr != nil {
		return it.expr.Eval(ctx, nil)
	}
	if it.param.Index >= len(ctx.Params) {
		return types.Null, fmt.Errorf("exec: parameter %s not bound (%d given)", it.param, len(ctx.Params))
	}
	return it.param.Value(ctx.Params), nil
}

func (s *Session) compileInsert(a *stmtAccess, ins *sqlx.Insert, values []types.Datum, literal bool) (*insertUnit, error) {
	ti, err := s.c.tableInfo(ins.Table)
	if err != nil {
		return nil, err
	}
	u := &insertUnit{s: s, ti: ti}
	schema := ti.Meta.Schema

	// Column mapping: explicit column list may reorder or omit columns.
	u.colIdx = make([]int, 0, schema.Len())
	if len(ins.Columns) == 0 {
		for i := 0; i < schema.Len(); i++ {
			u.colIdx = append(u.colIdx, i)
		}
	} else {
		for _, name := range ins.Columns {
			i := schema.ColumnIndex(name)
			if i < 0 {
				return nil, &plan.ErrColumnNotFound{Table: ins.Table, Column: name}
			}
			u.colIdx = append(u.colIdx, i)
		}
	}

	if ins.Query != nil {
		u.query, err = s.compileSelect(a, ins.Query, values, literal)
		return u, err
	}
	// A literal row is data: its datums go into vals as they are, and only
	// an item that is neither literal nor parameter goes to the planner (a
	// VALUES row holds no column references: an empty scope).
	var pl *plan.Planner
	u.vals = make([]types.Datum, 0, len(ins.Rows)*len(u.colIdx))
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(u.colIdx) {
			return nil, fmt.Errorf("cluster: INSERT has %d values but %d target columns", len(exprRow), len(u.colIdx))
		}
		for _, e := range exprRow {
			it := insertItem{at: len(u.vals)}
			switch x := e.(type) {
			case *sqlx.Literal:
				u.vals = append(u.vals, x.Value)
				continue
			case *sqlx.Param:
				if v, ok := sqlx.ValueOf(x, values); ok {
					u.vals = append(u.vals, v)
					continue
				}
				it.param = x
			default:
				if pl == nil {
					pl = s.planner(a, values)
				}
				if it.expr, err = pl.CompileScalar(e, &plan.Scope{}); err != nil {
					return nil, err
				}
			}
			u.items = append(u.items, it)
			u.vals = append(u.vals, types.Null)
		}
	}
	return u, nil
}

func (u *insertUnit) run(a *stmtAccess, ctx *exec.Ctx) (*Result, error) {
	s, ti, t := u.s, u.ti, a.t
	// Mark the transaction as writing before anything is routed: INSERT ...
	// SELECT's source query and every subquery must read the primaries, not
	// a bounded-staleness HTAP replica.
	t.markDML()
	schema := ti.Meta.Schema

	// Materialize the rows to insert, at schema width.
	var rows []types.Row
	if u.query != nil {
		res, err := u.query.run(a, ctx)
		if err != nil {
			return nil, err
		}
		rows = res.Rows
		for i, src := range rows {
			if len(src) != len(u.colIdx) {
				return nil, fmt.Errorf("cluster: INSERT has %d values but %d target columns", len(src), len(u.colIdx))
			}
			full := make(types.Row, schema.Len())
			for j, c := range u.colIdx {
				full[c] = src[j]
			}
			rows[i] = full
		}
	} else if n := len(u.colIdx); n > 0 {
		// Every row at schema width, in one allocation.
		w := schema.Len()
		rows = make([]types.Row, len(u.vals)/n)
		cells := make([]types.Datum, len(rows)*w)
		for i := range rows {
			rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
			for j, c := range u.colIdx {
				rows[i][c] = u.vals[i*n+j]
			}
		}
		for k := range u.items {
			it := &u.items[k]
			v, err := it.eval(ctx)
			if err != nil {
				return nil, err
			}
			rows[it.at/n][u.colIdx[it.at%n]] = v
		}
	}
	if len(rows) == 0 {
		return &Result{}, nil
	}

	// Route every row before any is written, so the statement is one leg,
	// one snapshot and one write message per target. dst[i] is the node
	// rows[i] goes to; a replicated table (dst nil) puts every row on every
	// replica.
	var dst, targets []int
	if ti.replicated {
		targets = s.c.replicaTargetsLocked()
	} else {
		dst = make([]int, len(rows))
		dk := ti.Meta.DistKey
		for i, row := range rows {
			var err error
			if dst[i], err = s.c.writeTarget(keyAs(row[dk], schema.Columns[dk].Kind)); err != nil {
				return nil, err
			}
			if !slices.Contains(targets, dst[i]) {
				targets = append(targets, dst[i])
			}
		}
		sort.Ints(targets)
	}
	return s.execWrite(a, ti, targets, func(l writeLeg) (int, error) {
		n := 0
		for i, row := range rows {
			if dst != nil && dst[i] != l.dn {
				continue
			}
			rec := WriteRec{Table: ti.Meta.Name, Op: OpInsert, Row: row}
			if err := l.part.apply(l.xid, l.snap, rec); err != nil {
				return n, err
			}
			if l.tap != nil {
				l.log(rec)
			}
			n++
		}
		return n, nil
	})
}

// setClause is one compiled SET assignment of an UPDATE.
type setClause struct {
	col int
	e   exec.Expr
}

// rewriteUnit is a compiled UPDATE (op OpUpdate, applying sets) or DELETE
// (OpDelete): the victim predicate and what its terms offer — the value that
// pins the distribution key (nil: every primary) and the primary-key access
// path.
type rewriteUnit struct {
	s     *Session
	op    WriteOp
	ti    *TableInfo
	pred  exec.Expr
	sets  []setClause
	shard exec.Expr
	key   *keyProbe
}

func (s *Session) compileRewrite(a *stmtAccess, op WriteOp, table string, where sqlx.Expr, set []sqlx.Assignment, values []types.Datum) (*rewriteUnit, error) {
	ti, err := s.c.tableInfo(table)
	if err != nil {
		return nil, err
	}
	if ti.columnar() {
		return nil, fmt.Errorf("cluster: %s is not supported on columnar table %q (use row storage)", strings.ToUpper(op.String()), table)
	}
	u := &rewriteUnit{s: s, op: op, ti: ti}
	pl := s.planner(a, values)
	scope := plan.TableScope(ti.Meta, shortAlias(ti.Meta.Name))
	if where != nil {
		if u.pred, err = pl.CompileScalar(where, scope); err != nil {
			return nil, err
		}
	}
	u.sets = make([]setClause, 0, len(set))
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
		u.sets = append(u.sets, setClause{col: i, e: ce})
	}
	terms, _ := exec.SplitTerms(u.pred)
	if pin := pinOf(terms, ti.Meta.DistKey); pin != nil {
		u.shard = pin.Vals[0]
	}
	u.key = keyProbeOf(terms, ti.Meta)
	return u, nil
}

// targets picks the data nodes the statement writes. Replicated tables write
// every non-retired replica (standbys included); scatter writes on
// distributed tables cover the primaries only — standbys receive them
// through the commit log.
func (u *rewriteUnit) targets(ctx *exec.Ctx) ([]int, error) {
	c := u.s.c
	switch {
	case u.ti.replicated:
		return c.replicaTargetsLocked(), nil
	case u.shard != nil:
		// Whatever the value — NULL, or of a kind the key never holds, the
		// predicate then answers for on that shard as on any.
		v, err := u.shard.Eval(ctx, nil)
		return []int{c.shardFor(v)}, err
	}
	return c.scanTargetsLocked(), nil
}

// run executes the UPDATE / DELETE as a write fragment: on every routed
// partition, the visible rows that the partition owns and where accepts are
// the victims of the one storage loop that ends versions and creates their
// successors.
func (u *rewriteUnit) run(a *stmtAccess, ctx *exec.Ctx) (*Result, error) {
	s, ti, op, pred, sets := u.s, u.ti, u.op, u.pred, u.sets
	a.t.markDML()
	c, dk := s.c, ti.Meta.DistKey
	key := u.key.key(ctx)
	targets, err := u.targets(ctx)
	if err != nil {
		return nil, err
	}
	return s.execWrite(a, ti, targets, func(l writeLeg) (int, error) {
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
		return l.part.row.Rewrite(l.xid, l.snap, key, match, change)
	})
}
