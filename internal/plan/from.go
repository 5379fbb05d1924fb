package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/exec"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// planFromList plans a FROM list, consuming equi-join conjuncts from the
// WHERE list (implicit joins, as in the paper's Table I query) and returning
// the remaining conjuncts. An inner or cross JOIN tree is the same list
// written another way: its tables are items, and its ON conjuncts come
// first in the WHERE list. A LEFT JOIN is one item (planTableRef).
func (pc *pctx) planFromList(items []sqlx.TableRef, conjuncts []sqlx.Expr) (exec.Operator, *Scope, []sqlx.Expr, error) {
	var on []sqlx.Expr
	var refs []sqlx.TableRef
	for _, item := range items {
		on, refs = joinOn(item, on), joinItems(item, refs)
	}
	return pc.foldItems(refs, append(on, conjuncts...))
}

// joinOn appends the ON conjuncts of ref's inner joins, in written order.
// Those on a LEFT JOIN's preserved side are included: filtering it after
// the outer join keeps the same rows.
func joinOn(ref sqlx.TableRef, on []sqlx.Expr) []sqlx.Expr {
	j, ok := ref.(*sqlx.JoinRef)
	if !ok {
		return on
	}
	if on = joinOn(j.Left, on); j.Kind == sqlx.JoinLeft {
		return on
	}
	return append(on, sqlx.SplitConjuncts(j.On)...)
}

// joinItems appends the FROM items an inner or cross JOIN tree lists.
func joinItems(ref sqlx.TableRef, items []sqlx.TableRef) []sqlx.TableRef {
	if j, ok := ref.(*sqlx.JoinRef); ok && j.Kind != sqlx.JoinLeft {
		return joinItems(j.Right, joinItems(j.Left, items))
	}
	return append(items, ref)
}

// foldItems plans each item and joins them. Three or more go through the
// greedy, statistics-free join-order heuristic (greedy.go); two are only
// oriented.
func (pc *pctx) foldItems(items []sqlx.TableRef, conjuncts []sqlx.Expr) (exec.Operator, *Scope, []sqlx.Expr, error) {
	leaves := make([]joinLeaf, len(items))
	for i, item := range items {
		iop, iscope, err := pc.planTableRef(item, conjuncts)
		if err != nil {
			return nil, nil, nil, err
		}
		leaves[i] = joinLeaf{op: iop, scope: iscope}
	}
	op, scope, conjuncts, err := pc.foldJoinList(leaves, conjuncts)
	if err != nil {
		return nil, nil, nil, err
	}
	// Scan-pushdown consumed some conjuncts; drop them from the residual
	// list now (they are marked by planTableRef).
	var rest []sqlx.Expr
	for _, c := range conjuncts {
		if !pc.consumed[c] {
			rest = append(rest, c)
		}
	}
	return op, scope, rest, nil
}

// joinPair joins (lop,lscope) with (rop,rscope). Equi-key conditions come
// from the explicit ON expression and, for inner joins, from the shared
// conjunct list. Remaining ON conditions become a residual predicate.
func (pc *pctx) joinPair(lop exec.Operator, lscope *Scope, rop exec.Operator, rscope *Scope, on sqlx.Expr, jt exec.JoinType, conjuncts []sqlx.Expr) (exec.Operator, *Scope, []sqlx.Expr, error) {
	combined := &Scope{Cols: append(append([]ScopeCol(nil), lscope.Cols...), rscope.Cols...)}

	var candidates []sqlx.Expr
	onConjs := sqlx.SplitConjuncts(on)
	candidates = append(candidates, onConjs...)
	if jt == exec.InnerJoin {
		for _, c := range conjuncts {
			if !pc.consumed[c] {
				candidates = append(candidates, c)
			}
		}
	}

	var leftKeys, rightKeys []exec.Expr
	var keyPreds []string
	usedKeys := map[sqlx.Expr]bool{}
	for _, c := range candidates {
		b, ok := c.(*sqlx.BinaryOp)
		if !ok || b.Op != sqlx.OpEq || containsSubquery(c) {
			continue
		}
		l, r := b.Left, b.Right
		if !resolvableIn(l, lscope) || !resolvableIn(r, rscope) {
			l, r = r, l
			if !resolvableIn(l, lscope) || !resolvableIn(r, rscope) {
				continue
			}
		}
		lk, err := pc.compileAgainst(l, lscope)
		if err != nil {
			return nil, nil, nil, err
		}
		rk, err := pc.compileAgainst(r, rscope)
		if err != nil {
			return nil, nil, nil, err
		}
		leftKeys = append(leftKeys, lk)
		rightKeys = append(rightKeys, rk)
		keyPreds = append(keyPreds, equiPredicate(lk, rk))
		usedKeys[c] = true
	}

	// Residual ON conjuncts (non-equi) compile against the combined scope.
	var residual exec.Expr
	savedScope := pc.scope
	pc.scope = combined
	for _, c := range onConjs {
		if usedKeys[c] {
			continue
		}
		ce, err := pc.compileExpr(c)
		if err != nil {
			pc.scope = savedScope
			return nil, nil, nil, err
		}
		if residual == nil {
			residual = ce
		} else {
			residual = &exec.BinOp{Op: "AND", Left: residual, Right: ce}
		}
	}
	pc.scope = savedScope

	// Mark WHERE conjuncts we consumed as join keys.
	for c := range usedKeys {
		pc.consumed[c] = true
	}

	var step *exec.Counted
	lStep, lEst := pc.stepOf(lop)
	rStep, rEst := pc.stepOf(rop)
	if lStep != "" && rStep != "" {
		step = pc.newStep(JoinStep(lStep, rStep, keyPreds), pc.estimateJoin(lEst, rEst, len(leftKeys)))
	}

	var join exec.Operator
	if len(leftKeys) > 0 {
		hj := &exec.HashJoin{Type: jt, Left: lop, Right: rop, LeftKeys: leftKeys, RightKeys: rightKeys, ExtraOn: residual}
		// A distributed join subsumes the bloom semi-join: both sides
		// already execute DN-side, so there is no probe stream to prune.
		if jt == exec.InnerJoin && !pc.tryDistJoin(hj, lop, rop, lEst, rEst) {
			pc.tryBloomPushdown(hj, lop, lEst, rEst)
		}
		join = hj
	} else {
		t := jt
		if t == exec.InnerJoin && residual == nil && on == nil {
			t = exec.CrossJoin
		}
		join = &exec.NestedLoopJoin{Type: t, Left: lop, Right: rop, On: residual}
	}
	if step != nil {
		step.Child, join = join, step
	}

	return join, combined, conjuncts, nil
}

// equiPredicate renders an equi-join key pair for a join's step text with
// its sides in sorted order: the step, and what the plan store learns under
// it, must not depend on which side the planner chose to probe.
func equiPredicate(a, b exec.Expr) string {
	l, r := a.String(), b.String()
	if r < l {
		l, r = r, l
	}
	return NormalizePredicate(l + " = " + r)
}

// newStep lists a step of the plan for the learning optimizer, estimated at
// what the plan store learned for its text, if anything, else at est.
func (pc *pctx) newStep(text string, est float64) *exec.Counted {
	if pc.p.Estimator != nil {
		if learned, ok := pc.p.Estimator.LookupStep(text); ok {
			est = learned
		}
	}
	c := &exec.Counted{StepText: text, EstimatedRows: est}
	*pc.counted = append(*pc.counted, c)
	return c
}

// stepOf returns the canonical step text and estimate of an operator if it
// is an instrumented step (possibly beneath pass-through wrappers).
func (pc *pctx) stepOf(op exec.Operator) (string, float64) {
	if c, ok := op.(*exec.Counted); ok {
		return c.StepText, c.EstimatedRows
	}
	return "", 0
}

// containsSubquery reports whether the AST contains a subquery.
func containsSubquery(e sqlx.Expr) bool {
	found := false
	sqlx.WalkExpr(e, func(x sqlx.Expr) bool {
		if _, ok := x.(*sqlx.Subquery); ok {
			found = true
			return false
		}
		if il, ok := x.(*sqlx.InList); ok {
			for _, item := range il.List {
				if _, ok := item.(*sqlx.Subquery); ok {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// resolvableIn reports whether every column reference in e resolves within
// scope (no outer fallback).
func resolvableIn(e sqlx.Expr, scope *Scope) bool {
	if containsSubquery(e) {
		return false
	}
	ok := true
	sqlx.WalkExpr(e, func(x sqlx.Expr) bool {
		if cr, ok2 := x.(*sqlx.ColumnRef); ok2 {
			i, err := scope.resolve(cr.Table, cr.Column)
			if err != nil || i < 0 {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// compileAgainst compiles e with a temporary scope and no outer fallback.
func (pc *pctx) compileAgainst(e sqlx.Expr, scope *Scope) (exec.Expr, error) {
	saved, savedOuter := pc.scope, pc.outer
	pc.scope, pc.outer = scope, nil
	defer func() { pc.scope, pc.outer = saved, savedOuter }()
	return pc.compileExpr(e)
}

// planTableRef plans one FROM item.
func (pc *pctx) planTableRef(ref sqlx.TableRef, conjuncts []sqlx.Expr) (exec.Operator, *Scope, error) {
	if pc.consumed == nil {
		pc.consumed = map[sqlx.Expr]bool{}
	}
	switch r := ref.(type) {
	case *sqlx.BaseTable:
		return pc.planBaseTable(r, conjuncts)
	case *sqlx.SubqueryRef:
		cpc := pc.child()
		cpc.outer = pc.outer // derived tables are not laterally correlated
		op, scope, names, err := cpc.planSelect(r.Query)
		if err != nil {
			return nil, nil, fmt.Errorf("in derived table %q: %w", r.Alias, err)
		}
		// A derived table reading the enclosing query's row makes this
		// block correlated too: a subquery holding it must not cache it.
		pc.usedOuter = pc.usedOuter || cpc.usedOuter
		alias := strings.ToLower(r.Alias)
		cols := make([]ScopeCol, len(scope.Cols))
		for i := range scope.Cols {
			cols[i] = ScopeCol{Qual: alias, Name: strings.ToLower(names[i]), Kind: scope.Cols[i].Kind, Canon: strings.ToUpper(r.Alias + "." + names[i])}
		}
		return op, &Scope{Cols: cols}, nil
	case *sqlx.TableFunc:
		return pc.planTableFunc(r)
	case *sqlx.JoinRef:
		if r.Kind != sqlx.JoinLeft {
			// An inner chain on a LEFT JOIN's preserved side: its ON
			// conjuncts are in the WHERE list already (joinOn).
			op, scope, _, err := pc.foldItems(joinItems(r, nil), conjuncts)
			return op, scope, err
		}
		lop, lscope, err := pc.planTableRef(r.Left, conjuncts)
		if err != nil {
			return nil, nil, err
		}
		// The nullable side takes no WHERE conjunct: one that filtered its
		// scan would null-extend the rows it should drop.
		rop, rscope, err := pc.planTableRef(r.Right, nil)
		if err != nil {
			return nil, nil, err
		}
		op, scope, _, err := pc.joinPair(lop, lscope, rop, rscope, r.On, exec.LeftJoin, conjuncts)
		return op, scope, err
	default:
		return nil, nil, fmt.Errorf("plan: unsupported FROM item %T", ref)
	}
}

// planBaseTable resolves CTEs then catalog tables; for catalog tables it
// pushes down single-table conjuncts into the scan and instruments the
// step.
func (pc *pctx) planBaseTable(bt *sqlx.BaseTable, conjuncts []sqlx.Expr) (exec.Operator, *Scope, error) {
	lname := strings.ToLower(bt.Name)
	alias := strings.ToLower(bt.Alias)
	if alias == "" {
		alias = shortName(lname)
	}

	// CTE reference?
	if def, ok := pc.ctes[lname]; ok {
		cols := make([]ScopeCol, len(def.cols))
		copy(cols, def.cols)
		for i := range cols {
			cols[i].Qual = alias
		}
		return &exec.MaterialRef{State: def.state, Out: def.schema}, &Scope{Cols: cols}, nil
	}

	meta, err := pc.p.Catalog.Resolve(bt.Name)
	if err != nil {
		return nil, nil, err
	}
	scope := scopeForTable(meta, alias)

	// Push down conjuncts that reference only this table.
	var preds []exec.Expr
	var predTexts []string
	sel := 1.0
	for _, c := range conjuncts {
		if pc.consumed[c] || !resolvableIn(c, scope) {
			continue
		}
		ce, err := pc.compileAgainst(c, scope)
		if err != nil {
			return nil, nil, err
		}
		preds = append(preds, ce)
		predTexts = append(predTexts, NormalizePredicate(ce.String()))
		sel *= estimateConjunctSelectivity(pc.p.costs(), meta, scope, c, pc.p.Values)
		pc.consumed[c] = true
	}
	var combinedPred exec.Expr
	if len(preds) > 0 {
		combinedPred = preds[0]
		for _, p := range preds[1:] {
			combinedPred = &exec.BinOp{Op: "AND", Left: combinedPred, Right: p}
		}
	}

	rows := float64(1000)
	if meta.Stats != nil {
		rows = float64(meta.Stats.Rows)
	}
	c := pc.newStep(ScanStep(meta.Name, predTexts), rows*sel)

	// NDP scan when the pushdown level allows one, the engine offers it and
	// the predicate (if any) is safe to evaluate on a partition. NDP
	// filtering is exact — the engine evaluates the predicate on every row
	// DN-side, and counts the rows it selects into the step — so no Filter
	// goes on top, and later passes may additionally push projections, TopN
	// and bloom filters into the spec (see ScanPushdown). Otherwise: a plain
	// scan filtered, and counted, at the coordinator.
	var spec *ScanPushdown
	if nd, ok := pc.p.Access.(NDPAccess); ok && pc.p.Pushdown.includes(PushdownFilter) &&
		(combinedPred == nil || exec.IsPartitionPure(combinedPred)) {
		sp := &ScanPushdown{Pred: combinedPred, Step: c}
		if s, ok := nd.ScanNDP(meta, sp); ok {
			c.Child, c.OnDataNodes, spec = s, true, sp
		}
	}
	if spec == nil {
		c.Child = pc.p.Access.Scan(meta, c)
		if combinedPred != nil {
			c.Child = &exec.Filter{Child: c.Child, Pred: combinedPred}
		}
	}
	pc.lastScan = nil
	if spec != nil {
		pc.lastScan = &scanInfo{meta: meta, spec: spec}
		(*pc.scans)[c] = pc.lastScan
	}
	return c, scope, nil
}

// scopeForTable builds the binding scope of a base table under an alias.
func scopeForTable(meta *TableMeta, alias string) *Scope {
	cols := make([]ScopeCol, meta.Schema.Len())
	for i, c := range meta.Schema.Columns {
		cols[i] = ScopeCol{
			Qual:     alias,
			FullQual: strings.ToLower(meta.Name),
			Name:     strings.ToLower(c.Name),
			Kind:     c.Kind,
			Canon:    strings.ToUpper(meta.Name + "." + c.Name),
		}
	}
	return &Scope{Cols: cols}
}

// shortName returns the last dotted component ("olap.t1" -> "t1") so that
// both t1.a1 and olap.t1.a1 resolve.
func shortName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// planTableFunc plans the multi-model table expressions (§II-B).
// gtimeseries(q) is q sorted on its first TIMESTAMP column, the time order
// downstream window operators rely on. ggraph and gspatial compile their
// argument's value — the execution's, for a parameter — into a query
// block, planned as a derived table.
func (pc *pctx) planTableFunc(tf *sqlx.TableFunc) (exec.Operator, *Scope, error) {
	alias := strings.ToLower(tf.Alias)
	if alias == "" {
		alias = tf.Name
	}
	var compile func(string, Catalog) (*sqlx.Select, error)
	var engine string
	switch tf.Name {
	case "gtimeseries":
		cpc := pc.child()
		cpc.outer = pc.outer
		op, _, names, err := cpc.planSelect(tf.Query)
		if err != nil {
			return nil, nil, fmt.Errorf("in gtimeseries(): %w", err)
		}
		schema := op.Schema()
		if i := slices.IndexFunc(schema.Columns, func(c types.Column) bool { return c.Kind == types.KindTime }); i >= 0 {
			op = &exec.Sort{Child: op, Keys: []exec.SortKey{{Expr: &exec.ColRef{Index: i}}}}
		}
		return op, scopeFromSchema(schema, alias, names), nil
	case "ggraph":
		compile, engine = pc.p.Hooks.GGraph, "graph"
	case "gspatial":
		compile, engine = pc.p.Hooks.GSpatial, "spatial"
	default:
		return nil, nil, fmt.Errorf("plan: unknown table function %q", tf.Name)
	}
	if compile == nil {
		return nil, nil, fmt.Errorf("plan: %s engine is not configured", engine)
	}
	arg, ok := sqlx.ValueOf(tf.Arg, pc.p.Values)
	if !ok || arg.Kind() != types.KindString {
		return nil, nil, fmt.Errorf("plan: %s() needs a string argument", tf.Name)
	}
	sel, err := compile(arg.Str(), pc.p.Catalog)
	if err != nil {
		return nil, nil, fmt.Errorf("in %s(): %w", tf.Name, err)
	}
	return pc.planTableRef(&sqlx.SubqueryRef{Query: sel, Alias: alias}, nil)
}

func scopeFromSchema(schema *types.Schema, alias string, names []string) *Scope {
	s := &Scope{Cols: make([]ScopeCol, schema.Len())}
	for i, c := range schema.Columns {
		name := c.Name
		if names != nil && i < len(names) {
			name = names[i]
		}
		s.Cols[i] = ScopeCol{Qual: alias, Name: strings.ToLower(name), Kind: c.Kind, Canon: strings.ToUpper(alias + "." + name)}
	}
	return s
}

// estimateJoin combines child estimates for a join with nkeys equi-key
// pairs (nkeys == 0 means a non-equi or cross join). Constants come from
// the catalog's cost model when it provides one.
func (pc *pctx) estimateJoin(l, r float64, nkeys int) float64 {
	cm := pc.p.costs()
	if l <= 0 {
		l = 1000
	}
	if r <= 0 {
		r = 1000
	}
	small, big := l, r
	if small > big {
		small, big = big, small
	}
	if nkeys > 0 {
		// Without key NDV information, assume the smaller side is the key
		// side: |L ⋈ R| ≈ max(L, R) for one key pair. Additional key pairs
		// each narrow the estimate, but a transitively-equal chain
		// (a.k = b.k AND b.k = c.k contributes the same column twice) must
		// not compound below what a single key could produce — the estimate
		// is capped at the smaller input from below.
		est := big
		for i := 1; i < nkeys; i++ {
			est *= cm.JoinSelectivity
		}
		if est < small {
			est = small
		}
		return est
	}
	return l * r * cm.JoinSelectivity
}

// estimateConjunctSelectivity inspects a single-table conjunct's AST: a
// comparison of a column with a value known while planning (a literal, or a
// parameter of the execution planned for) is estimated from the column's
// statistics, anything else by shape.
func estimateConjunctSelectivity(cm CostModel, meta *TableMeta, scope *Scope, e sqlx.Expr, values []types.Datum) float64 {
	cr, op, val, ok := sqlx.MatchColumnValue(e)
	if !ok || meta.Stats == nil {
		return defaultSelectivityFor(cm, e)
	}
	col, err := scope.resolve(cr.Table, cr.Column)
	v, known := sqlx.ValueOf(val, values)
	if err != nil || col < 0 || !known {
		return defaultSelectivityFor(cm, e)
	}
	cs := &meta.Stats.Cols[col]
	switch op {
	case sqlx.OpEq:
		return cs.SelectivityEq()
	case sqlx.OpNe:
		return 1 - cs.SelectivityEq()
	case sqlx.OpLt, sqlx.OpLe:
		return cs.SelectivityLE(v)
	default: // OpGt, OpGe
		return 1 - cs.SelectivityLE(v)
	}
}

func defaultSelectivityFor(cm CostModel, e sqlx.Expr) float64 {
	switch x := e.(type) {
	case *sqlx.BinaryOp:
		switch x.Op {
		case sqlx.OpEq:
			return cm.EqSelectivity
		case sqlx.OpLike:
			return cm.LikeSelectivity
		default:
			return cm.RangeSelectivity
		}
	case *sqlx.Between:
		return cm.RangeSelectivity * cm.RangeSelectivity
	case *sqlx.InList:
		return cm.EqSelectivity * float64(len(x.List))
	default:
		return cm.RangeSelectivity
	}
}
