package plan

import (
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// Plan is a compiled SELECT ready for execution.
type Plan struct {
	Root exec.Operator
	// OutputNames are the display names of the result columns.
	OutputNames []string
	// Counted lists the instrumented steps (scans, joins, aggregations) in
	// the plan, for the learning optimizer's producer.
	Counted []*exec.Counted
}

// Planner compiles sqlx.Select ASTs into operator trees.
type Planner struct {
	Catalog   Catalog
	Access    Access
	Hooks     Hooks
	Estimator Estimator
	// DistJoin steers distributed join strategy selection (dist.go); the
	// zero value picks automatically.
	DistJoin DistJoinPolicy
	// Pushdown caps how much work the planner pushes into scans (ndp.go);
	// the zero value pushes everything.
	Pushdown PushdownLevel
	// Values are the parameter values of the one execution being planned
	// for: a sqlx.Param they reach compiles to the constant it stands for,
	// so step text, estimates and textual GROUP BY matching are those of the
	// statement written with its literals. nil plans for every execution: a
	// parameter compiles to an exec.Param read from exec.Ctx.Params.
	Values []types.Datum
}

// costs resolves the cost model from the catalog, defaulting to the stock
// constants when the catalog does not implement CostCatalog.
func (p *Planner) costs() CostModel {
	if cc, ok := p.Catalog.(CostCatalog); ok {
		return cc.Costs()
	}
	return DefaultCostModel()
}

// ScopeCol is one visible column during binding.
type ScopeCol struct {
	Qual string // lower-case qualifier (alias), "" for anonymous
	// FullQual is the fully-qualified table name ("olap.t1") when the
	// column comes from a base table, so that both t1.a1 and olap.t1.a1
	// resolve.
	FullQual string
	Name     string // lower-case column name
	Kind     types.Kind
	Canon    string // canonical text for step definitions, e.g. "OLAP.T1.B1"
}

// Scope is an ordered set of visible columns.
type Scope struct{ Cols []ScopeCol }

func (s *Scope) schema() *types.Schema {
	cols := make([]types.Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
	}
	return &types.Schema{Columns: cols}
}

// Resolve finds (qual, name) in the scope; it returns -1 when not found and
// an error only for ambiguity.
func (s *Scope) Resolve(qual, name string) (int, error) { return s.resolve(qual, name) }

// resolve finds (qual, name) in the scope; it returns -1 when not found and
// an error only for ambiguity.
func (s *Scope) resolve(qual, name string) (int, error) {
	qual, name = strings.ToLower(qual), strings.ToLower(name)
	found := -1
	for i, c := range s.Cols {
		if c.Name != name {
			continue
		}
		if qual != "" && c.Qual != qual && c.FullQual != qual {
			continue
		}
		if found >= 0 {
			return -1, &ErrAmbiguousColumn{Column: name}
		}
		found = i
	}
	return found, nil
}

// pctx is the per-query-block planning context.
type pctx struct {
	p         *Planner
	scope     *Scope
	outer     *pctx
	ctes      map[string]*cteDef
	usedOuter bool
	// aggMap maps canonical expression text -> aggregate-output column for
	// post-aggregation compilation; nil outside aggregation.
	aggMap      map[string]int
	aggScope    *Scope
	preAggScope *Scope
	counted     *[]*exec.Counted
	// consumed marks WHERE conjuncts already absorbed by scan pushdown or
	// join-key extraction.
	consumed map[sqlx.Expr]bool
	// lastScan records the most recent base-table scan so planAggregate can
	// recognize the aggregate-over-single-scan pattern and push partial
	// aggregation down to the partitions.
	lastScan *scanInfo
	// scans indexes every NDP scan in the statement by its instrumented
	// wrapper, shared across all nested contexts like counted, so the
	// post-planning NDP passes (pushProjections, tryBloomPushdown) can
	// find each scan's pushdown spec from the operator tree.
	scans *map[*exec.Counted]*scanInfo
	// pairsScored counts the pairs the greedy join ordering scored for this
	// block's FROM list, against greedyMaxPairs.
	pairsScored int
}

// scanInfo describes one NDP base-table scan: its table, and the pushdown
// spec whose Step is the scan's instrumented step.
type scanInfo struct {
	meta *TableMeta
	spec *ScanPushdown
}

type cteDef struct {
	state  *exec.MatState
	schema *types.Schema
	cols   []ScopeCol
}

// TableScope builds the binding scope of a base table under an alias,
// exported for the engine's UPDATE/DELETE compilation.
func TableScope(meta *TableMeta, alias string) *Scope { return scopeForTable(meta, alias) }

// CompileScalar compiles a standalone scalar expression against a scope
// (INSERT VALUES rows, UPDATE SET clauses, DELETE predicates). Subqueries
// inside the expression plan against the planner's catalog.
func (p *Planner) CompileScalar(e sqlx.Expr, scope *Scope) (exec.Expr, error) {
	var counted []*exec.Counted
	scans := map[*exec.Counted]*scanInfo{}
	pc := &pctx{p: p, scope: scope, ctes: map[string]*cteDef{}, counted: &counted, scans: &scans}
	return pc.compileExpr(e)
}

// PlanSelect compiles a SELECT statement.
func (p *Planner) PlanSelect(sel *sqlx.Select) (*Plan, error) {
	var counted []*exec.Counted
	scans := map[*exec.Counted]*scanInfo{}
	pc := &pctx{p: p, ctes: map[string]*cteDef{}, counted: &counted, scans: &scans}
	op, scope, names, err := pc.planSelect(sel)
	if err != nil {
		return nil, err
	}
	_ = scope
	// NDP projection pushdown: narrow each scan's shipped columns to the
	// set the finished plan actually references.
	if p.Pushdown.includes(PushdownProjection) {
		pushProjections(op, scans)
	}
	return &Plan{Root: op, OutputNames: names, Counted: counted}, nil
}

// child creates a subquery planning context.
func (pc *pctx) child() *pctx {
	ctes := make(map[string]*cteDef, len(pc.ctes))
	for k, v := range pc.ctes {
		ctes[k] = v
	}
	return &pctx{p: pc.p, outer: pc, ctes: ctes, counted: pc.counted, scans: pc.scans}
}

// planSelect compiles one query block (including any UNION arms); it
// returns the operator, its output scope and display names.
func (pc *pctx) planSelect(sel *sqlx.Select) (exec.Operator, *Scope, []string, error) {
	if err := pc.registerCTEs(sel.CTEs); err != nil {
		return nil, nil, nil, err
	}
	if len(sel.SetOps) > 0 {
		return pc.planSetOps(sel)
	}
	return pc.planSelectBlock(sel)
}

// registerCTEs publishes WITH entries (visible to later CTEs, every UNION
// arm and the main query).
func (pc *pctx) registerCTEs(ctes []sqlx.CTE) error {
	for _, cte := range ctes {
		cpc := pc.child()
		cpc.outer = pc.outer // CTEs correlate to the same outer scope as the block
		op, scope, names, err := cpc.planSelect(cte.Query)
		if err != nil {
			return fmt.Errorf("in CTE %q: %w", cte.Name, err)
		}
		cols := make([]ScopeCol, len(scope.Cols))
		for i := range scope.Cols {
			name := names[i]
			if i < len(cte.Columns) {
				name = cte.Columns[i]
			}
			cols[i] = ScopeCol{
				Qual:  strings.ToLower(cte.Name),
				Name:  strings.ToLower(name),
				Kind:  scope.Cols[i].Kind,
				Canon: strings.ToUpper(cte.Name + "." + name),
			}
		}
		if len(cte.Columns) > len(scope.Cols) {
			return fmt.Errorf("plan: CTE %q declares %d columns but produces %d", cte.Name, len(cte.Columns), len(scope.Cols))
		}
		pc.ctes[strings.ToLower(cte.Name)] = &cteDef{
			state:  exec.NewMatState(op),
			schema: scope.schema(),
			cols:   cols,
		}
	}
	return nil
}

// planSetOps compiles a UNION chain: arms fold left-associatively, with a
// Distinct applied after every non-ALL arm (standard semantics); ORDER BY
// and LIMIT apply to the combined result and may reference output columns
// by name or position only.
func (pc *pctx) planSetOps(sel *sqlx.Select) (exec.Operator, *Scope, []string, error) {
	first := *sel
	first.CTEs = nil
	first.SetOps = nil
	first.OrderBy = nil
	first.Limit = -1
	first.Offset = 0
	cur, scope, names, err := pc.child().planSelectBlock(&first)
	if err != nil {
		return nil, nil, nil, err
	}
	outSchema := scope.schema()
	for i, so := range sel.SetOps {
		armPC := pc.child()
		armPC.outer = pc.outer
		armOp, armScope, _, err := armPC.planSelect(so.Query)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("in UNION arm %d: %w", i+1, err)
		}
		if armScope.schema().Len() != outSchema.Len() {
			return nil, nil, nil, fmt.Errorf("plan: UNION arms have %d and %d columns", outSchema.Len(), armScope.schema().Len())
		}
		cur = &exec.Concat{Children: []exec.Operator{cur, armOp}, Out: outSchema}
		if !so.All {
			cur = &exec.Distinct{Child: cur}
		}
	}
	// ORDER BY over the union result: output names / positions only.
	var keys []exec.SortKey
	for _, ob := range sel.OrderBy {
		idx, ok := orderByOutputRef(ob, names)
		if !ok {
			return nil, nil, nil, fmt.Errorf("plan: ORDER BY over UNION must reference output columns by name or position")
		}
		keys = append(keys, exec.SortKey{Expr: &exec.ColRef{Index: idx}, Desc: ob.Desc})
	}
	if len(keys) > 0 {
		cur = &exec.Sort{Child: cur, Keys: keys}
	}
	if sel.Limit >= 0 || sel.Offset > 0 {
		cur = &exec.Limit{Child: cur, Count: sel.Limit, Offset: sel.Offset}
	}
	return cur, scope, names, nil
}

// planSelectBlock compiles one plain query block (no set operations; the
// caller has already registered any CTEs).
func (pc *pctx) planSelectBlock(sel *sqlx.Select) (exec.Operator, *Scope, []string, error) {
	conjuncts := sqlx.SplitConjuncts(sel.Where)

	// FROM.
	var op exec.Operator
	scope := &Scope{}
	if len(sel.From) > 0 {
		var err error
		op, scope, conjuncts, err = pc.planFromList(sel.From, conjuncts)
		if err != nil {
			return nil, nil, nil, err
		}
	} else {
		// SELECT without FROM: one empty row.
		op = exec.NewValues(&types.Schema{}, []types.Row{{}})
	}
	pc.scope = scope

	// Residual WHERE.
	if len(conjuncts) > 0 {
		pred, err := pc.compileConjuncts(conjuncts)
		if err != nil {
			return nil, nil, nil, err
		}
		op = &exec.Filter{Child: op, Pred: pred}
	}

	// Aggregation.
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range sel.Items {
		if !it.Star && sqlx.IsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	for _, o := range sel.OrderBy {
		if sqlx.IsAggregate(o.Expr) {
			hasAgg = true
		}
	}

	if hasAgg {
		var err error
		op, err = pc.planAggregate(op, sel)
		if err != nil {
			return nil, nil, nil, err
		}
		if sel.Having != nil {
			pred, err := pc.compileExpr(sel.Having)
			if err != nil {
				return nil, nil, nil, err
			}
			op = &exec.Filter{Child: op, Pred: pred}
		}
	}

	// Projection.
	exprs, names, outScope, err := pc.planProjection(sel)
	if err != nil {
		return nil, nil, nil, err
	}

	// ORDER BY: resolve against output aliases first; otherwise compile
	// against the pre-projection scope and carry hidden columns.
	var sortKeys []exec.SortKey
	hiddenStart := len(exprs)
	for _, ob := range sel.OrderBy {
		if key, ok := orderByOutputRef(ob, names); ok {
			sortKeys = append(sortKeys, exec.SortKey{Expr: &exec.ColRef{Index: key}, Desc: ob.Desc})
			continue
		}
		ce, err := pc.compileExpr(ob.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		sortKeys = append(sortKeys, exec.SortKey{Expr: &exec.ColRef{Index: len(exprs)}, Desc: ob.Desc})
		exprs = append(exprs, ce)
	}

	projSchema := outScope.schema()
	fullSchema := projSchema
	if len(exprs) > hiddenStart {
		cols := append([]types.Column(nil), projSchema.Columns...)
		for i := hiddenStart; i < len(exprs); i++ {
			cols = append(cols, types.Column{Name: fmt.Sprintf("$sort%d", i), Kind: types.KindNull})
		}
		fullSchema = &types.Schema{Columns: cols}
	}
	// ORDER BY + LIMIT compiles to a bounded TopN — row-for-row identical
	// to a stable Sort followed by Limit, in O(limit) memory. When the
	// block is a bare NDP scan, ORDER BY (and the LIMIT's bound) is pushed
	// into the scan's fragments instead, whose Exchange merges them in
	// order (see tryTopNPushdown); the Limit below applies LIMIT and
	// OFFSET to the merged stream. A TopN the scan does not take goes
	// under the Project, its keys rewritten over the Project's input, so
	// the select list is computed only for the rows the TopN keeps — as
	// when the scan takes it — and an expression that fails on a row the
	// query never returns fails at no pushdown level.
	limitK := int64(-1)
	if sel.Limit >= 0 {
		limitK = sel.Limit + sel.Offset
	}
	projChild := op
	folded := pc.tryProjectionFold(projChild, exprs, fullSchema)
	sorted := !sel.Distinct && !hasAgg && pc.tryTopNPushdown(projChild, sortKeys, exprs, limitK)
	if !folded && !sorted && !sel.Distinct && len(sortKeys) > 0 && limitK >= 0 {
		if keys, ok := inputKeys(sortKeys, exprs); ok {
			op = &exec.TopN{Child: op, Keys: keys, Limit: limitK}
			exprs, fullSchema, sorted = exprs[:hiddenStart], projSchema, true
		}
	}
	if !folded {
		op = &exec.Project{Child: op, Exprs: exprs, Out: fullSchema}
	}

	if sel.Distinct {
		if len(exprs) > hiddenStart {
			return nil, nil, nil, fmt.Errorf("plan: ORDER BY expressions must appear in select list when DISTINCT is used")
		}
		op = &exec.Distinct{Child: op}
	}

	if len(sortKeys) > 0 && !sorted {
		if limitK >= 0 {
			op = &exec.TopN{Child: op, Keys: sortKeys, Limit: limitK}
		} else {
			op = &exec.Sort{Child: op, Keys: sortKeys}
		}
	}
	if len(exprs) > hiddenStart {
		// Strip hidden sort columns.
		strip := make([]exec.Expr, hiddenStart)
		for i := range strip {
			strip[i] = &exec.ColRef{Index: i, Name: projSchema.Columns[i].Name}
		}
		op = &exec.Project{Child: op, Exprs: strip, Out: projSchema}
	}

	if sel.Limit >= 0 || sel.Offset > 0 {
		op = &exec.Limit{Child: op, Count: sel.Limit, Offset: sel.Offset}
	}

	return op, outScope, names, nil
}

// orderByOutputRef matches ORDER BY items that name an output column (by
// alias) or give an output position (1-based integer literal).
func orderByOutputRef(ob sqlx.OrderItem, names []string) (int, bool) {
	switch e := ob.Expr.(type) {
	case *sqlx.ColumnRef:
		if e.Table == "" {
			for i, n := range names {
				if strings.EqualFold(n, e.Column) {
					return i, true
				}
			}
		}
	case *sqlx.Literal:
		if e.Value.Kind() == types.KindInt {
			k := int(e.Value.Int())
			if k >= 1 && k <= len(names) {
				return k - 1, true
			}
		}
	}
	return 0, false
}

// planProjection compiles the select items. With aggregation active,
// compilation goes through the aggMap.
func (pc *pctx) planProjection(sel *sqlx.Select) ([]exec.Expr, []string, *Scope, error) {
	var exprs []exec.Expr
	var names []string
	out := &Scope{}
	for _, it := range sel.Items {
		if it.Star {
			if pc.aggMap != nil {
				return nil, nil, nil, fmt.Errorf("plan: SELECT * is not allowed with aggregation")
			}
			for i, c := range pc.scope.Cols {
				if it.Table != "" && c.Qual != strings.ToLower(it.Table) {
					continue
				}
				exprs = append(exprs, &exec.ColRef{Index: i, Name: c.Canon})
				names = append(names, c.Name)
				out.Cols = append(out.Cols, ScopeCol{Name: c.Name, Kind: c.Kind, Canon: c.Canon})
			}
			continue
		}
		ce, err := pc.compileExpr(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		name := it.Alias
		if name == "" {
			name = displayName(it.Expr)
		}
		exprs = append(exprs, ce)
		names = append(names, name)
		out.Cols = append(out.Cols, ScopeCol{Name: strings.ToLower(name), Kind: exprKind(pc, it.Expr), Canon: strings.ToUpper(name)})
	}
	if len(exprs) == 0 {
		return nil, nil, nil, fmt.Errorf("plan: empty select list")
	}
	return exprs, names, out, nil
}

// displayName derives an output column name from an expression.
func displayName(e sqlx.Expr) string {
	switch x := e.(type) {
	case *sqlx.ColumnRef:
		return x.Column
	case *sqlx.FuncCall:
		return strings.ToLower(x.Name)
	default:
		return "?column?"
	}
}

// exprKind statically types simple expressions (best effort; unknown kinds
// report as NULL which downstream treats as dynamic).
func exprKind(pc *pctx, e sqlx.Expr) types.Kind {
	switch x := e.(type) {
	case *sqlx.Literal:
		return x.Value.Kind()
	case *sqlx.Param:
		return x.Kind
	case *sqlx.ColumnRef:
		if pc.scope != nil {
			if i, err := pc.scope.resolve(x.Table, x.Column); err == nil && i >= 0 {
				return pc.scope.Cols[i].Kind
			}
		}
		return types.KindNull
	case *sqlx.FuncCall:
		switch strings.ToLower(x.Name) {
		case "count":
			return types.KindInt
		case "avg":
			return types.KindFloat
		case "now":
			return types.KindTime
		case "lower", "upper":
			return types.KindString
		case "length":
			return types.KindInt
		case "sum", "min", "max", "abs":
			if len(x.Args) == 1 {
				return exprKind(pc, x.Args[0])
			}
		}
		return types.KindNull
	case *sqlx.BinaryOp:
		switch x.Op {
		case sqlx.OpAnd, sqlx.OpOr, sqlx.OpEq, sqlx.OpNe, sqlx.OpLt, sqlx.OpLe, sqlx.OpGt, sqlx.OpGe, sqlx.OpLike:
			return types.KindBool
		case sqlx.OpConcat:
			return types.KindString
		default:
			lk := exprKind(pc, x.Left)
			rk := exprKind(pc, x.Right)
			if lk == types.KindFloat || rk == types.KindFloat {
				return types.KindFloat
			}
			if lk == types.KindTime || rk == types.KindTime {
				if lk == rk || x.Op == sqlx.OpSub && (lk == types.KindString || rk == types.KindString) {
					return types.KindInt // ts - ts, a string read as a TIMESTAMP (asTime)
				}
				return types.KindTime
			}
			return lk
		}
	case *sqlx.UnaryOp:
		if x.Op == "NOT" {
			return types.KindBool
		}
		return exprKind(pc, x.Child)
	case *sqlx.IsNull, *sqlx.InList, *sqlx.Between:
		return types.KindBool
	case *sqlx.IntervalLit:
		return types.KindInt
	case *sqlx.CaseExpr:
		if len(x.Thens) > 0 {
			return exprKind(pc, x.Thens[0])
		}
	case *sqlx.Subquery:
		return types.KindNull
	}
	return types.KindNull
}

// compileConjuncts compiles and ANDs a conjunct list.
func (pc *pctx) compileConjuncts(conjs []sqlx.Expr) (exec.Expr, error) {
	var out exec.Expr
	for _, c := range conjs {
		ce, err := pc.compileExpr(c)
		if err != nil {
			return nil, err
		}
		out = exec.And(out, ce)
	}
	return out, nil
}
