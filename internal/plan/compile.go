package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/exec"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// compileExpr compiles a scalar expression against the current scope. When
// pc.aggMap is set (post-aggregation), subtrees matching group-by
// expressions or aggregate calls compile to references into the aggregate
// output.
func (pc *pctx) compileExpr(e sqlx.Expr) (exec.Expr, error) {
	if pc.aggMap != nil {
		if ce, ok, err := pc.tryAggRef(e); err != nil {
			return nil, err
		} else if ok {
			return ce, nil
		}
	}
	switch x := e.(type) {
	case *sqlx.Literal:
		return &exec.Const{Value: x.Value}, nil
	case *sqlx.Param:
		if v, ok := sqlx.ValueOf(x, pc.p.Values); ok {
			return &exec.Const{Value: v}, nil
		}
		if x.Neg {
			return &exec.Neg{Child: &exec.Param{Index: x.Index}}, nil
		}
		return &exec.Param{Index: x.Index}, nil
	case *sqlx.IntervalLit:
		return &exec.Const{Value: types.NewInt(x.Nanos)}, nil
	case *sqlx.ColumnRef:
		return pc.compileColumnRef(x)
	case *sqlx.BinaryOp:
		l, err := pc.compileExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := pc.compileExpr(x.Right)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case sqlx.OpEq, sqlx.OpNe, sqlx.OpLt, sqlx.OpLe, sqlx.OpGt, sqlx.OpGe, sqlx.OpSub:
			l, r = pc.asTime(x.Right, x.Left, l), pc.asTime(x.Left, x.Right, r)
		}
		return &exec.BinOp{Op: x.Op, Left: l, Right: r}, nil
	case *sqlx.UnaryOp:
		c, err := pc.compileExpr(x.Child)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &exec.Not{Child: c}, nil
		}
		return &exec.Neg{Child: c}, nil
	case *sqlx.IsNull:
		c, err := pc.compileExpr(x.Child)
		if err != nil {
			return nil, err
		}
		return &exec.IsNullExpr{Child: c, Not: x.Not}, nil
	case *sqlx.InList:
		// x IN (subquery)?
		if len(x.List) == 1 {
			if sq, ok := x.List[0].(*sqlx.Subquery); ok {
				needle, err := pc.compileExpr(x.Child)
				if err != nil {
					return nil, err
				}
				sub, correlated, err := pc.compileSubquery(sq.Query)
				if err != nil {
					return nil, err
				}
				return &exec.Subplan{Plan: sub, Mode: exec.SubplanInAny, Needle: needle, NotIn: x.Not, Correlated: correlated}, nil
			}
		}
		c, err := pc.compileExpr(x.Child)
		if err != nil {
			return nil, err
		}
		list := make([]exec.Expr, len(x.List))
		for i, item := range x.List {
			ce, err := pc.compileExpr(item)
			if err != nil {
				return nil, err
			}
			list[i] = pc.asTime(x.Child, item, ce)
		}
		return &exec.InListExpr{Child: c, List: list, Not: x.Not}, nil
	case *sqlx.Between:
		c, err := pc.compileExpr(x.Child)
		if err != nil {
			return nil, err
		}
		lo, err := pc.compileExpr(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := pc.compileExpr(x.Hi)
		if err != nil {
			return nil, err
		}
		return &exec.BetweenExpr{Child: c, Lo: pc.asTime(x.Child, x.Lo, lo), Hi: pc.asTime(x.Child, x.Hi, hi), Not: x.Not}, nil
	case *sqlx.FuncCall:
		name := strings.ToLower(x.Name)
		if sqlx.AggregateFuncs[name] {
			return nil, fmt.Errorf("plan: aggregate %s() is not allowed here", name)
		}
		args := make([]exec.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := pc.compileExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return &exec.Func{Name: name, Args: args}, nil
	case *sqlx.CaseExpr:
		out := &exec.CaseWhen{}
		var err error
		if x.Operand != nil {
			out.Operand, err = pc.compileExpr(x.Operand)
			if err != nil {
				return nil, err
			}
		}
		for i := range x.Whens {
			w, err := pc.compileExpr(x.Whens[i])
			if err != nil {
				return nil, err
			}
			th, err := pc.compileExpr(x.Thens[i])
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, w)
			out.Thens = append(out.Thens, th)
		}
		if x.Else != nil {
			out.Else, err = pc.compileExpr(x.Else)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	case *sqlx.Subquery:
		sub, correlated, err := pc.compileSubquery(x.Query)
		if err != nil {
			return nil, err
		}
		return &exec.Subplan{Plan: sub, Mode: exec.SubplanScalar, Correlated: correlated}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// asTime is cv, the compiled value v compared with or subtracted from
// other (or other from it), read as a TIMESTAMP (exec.AsTime) when other is
// one and v a string literal or a parameter lifted from one: the comparison
// is then a TIMESTAMP comparison, and the difference a TIMESTAMP minus a
// TIMESTAMP, as assigning the string to a TIMESTAMP column would make them.
func (pc *pctx) asTime(other, v sqlx.Expr, cv exec.Expr) exec.Expr {
	switch v.(type) {
	case *sqlx.Literal, *sqlx.Param:
		if exprKind(pc, v) == types.KindString && exprKind(pc, other) == types.KindTime {
			return &exec.AsTime{Value: cv}
		}
	}
	return cv
}

// compileColumnRef resolves a column in the current scope, climbing to
// enclosing query blocks for correlated references.
func (pc *pctx) compileColumnRef(cr *sqlx.ColumnRef) (exec.Expr, error) {
	if pc.scope != nil {
		i, err := pc.scope.resolve(cr.Table, cr.Column)
		if err != nil {
			return nil, err
		}
		if i >= 0 {
			return &exec.ColRef{Index: i, Name: pc.scope.Cols[i].Canon}, nil
		}
	}
	// Climb outer blocks.
	up := 1
	for o := pc.outer; o != nil; o = o.outer {
		if o.scope != nil {
			i, err := o.scope.resolve(cr.Table, cr.Column)
			if err != nil {
				return nil, err
			}
			if i >= 0 {
				pc.usedOuter = true
				return &exec.OuterRef{Up: up, Index: i, Name: o.scope.Cols[i].Canon}, nil
			}
		}
		up++
	}
	return nil, &ErrColumnNotFound{Table: cr.Table, Column: cr.Column}
}

// compileSubquery plans a subquery in expression position and reports
// whether it referenced the enclosing scope.
func (pc *pctx) compileSubquery(q *sqlx.Select) (exec.Operator, bool, error) {
	cpc := pc.child()
	op, _, _, err := cpc.planSelect(q)
	if err != nil {
		return nil, false, err
	}
	if cpc.usedOuter {
		// Correlation may reach past the subquery into OUR outer scope; in
		// that case we are transitively correlated too.
		pc.usedOuter = true
	}
	return op, cpc.usedOuter, nil
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

// planAggregate builds the Agg operator and installs pc.aggMap so that
// subsequent compilation (HAVING, projection, ORDER BY) resolves group-by
// expressions and aggregate calls to aggregate-output columns.
func (pc *pctx) planAggregate(child exec.Operator, sel *sqlx.Select) (exec.Operator, error) {
	aggMap := map[string]int{}
	outScope := &Scope{}
	pc.preAggScope = pc.scope

	// Group-by expressions first.
	var groupBy []exec.Expr
	var groupTexts []string
	for _, g := range sel.GroupBy {
		ce, err := pc.compileExpr(g)
		if err != nil {
			return nil, err
		}
		key := ce.String()
		if _, dup := aggMap[key]; dup {
			continue
		}
		aggMap[key] = len(outScope.Cols)
		groupBy = append(groupBy, ce)
		groupTexts = append(groupTexts, NormalizePredicate(key))
		outScope.Cols = append(outScope.Cols, ScopeCol{Name: key, Kind: exprKind(pc, g), Canon: strings.ToUpper(key)})
	}

	// Collect aggregate calls from items, HAVING and ORDER BY.
	var aggs []exec.AggSpec
	collect := func(e sqlx.Expr) error {
		var walkErr error
		sqlx.WalkExpr(e, func(x sqlx.Expr) bool {
			fc, ok := x.(*sqlx.FuncCall)
			if !ok || !sqlx.AggregateFuncs[strings.ToLower(fc.Name)] {
				if _, isSub := x.(*sqlx.Subquery); isSub {
					return false
				}
				return true
			}
			spec, key, err := pc.compileAggCall(fc)
			if err != nil {
				walkErr = err
				return false
			}
			if _, dup := aggMap[key]; !dup {
				aggMap[key] = len(outScope.Cols)
				aggs = append(aggs, spec)
				kind := types.KindFloat
				switch spec.Kind {
				case exec.AggCount, exec.AggCountStar:
					kind = types.KindInt
				}
				outScope.Cols = append(outScope.Cols, ScopeCol{Name: key, Kind: kind, Canon: strings.ToUpper(key)})
			}
			return false // don't descend into aggregate arguments
		})
		return walkErr
	}
	for _, it := range sel.Items {
		if it.Star {
			continue
		}
		if err := collect(it.Expr); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, err
		}
	}
	for _, ob := range sel.OrderBy {
		if err := collect(ob.Expr); err != nil {
			return nil, err
		}
	}

	// Two-phase aggregation: when aggregating directly over one base-table
	// scan and every aggregate is mergeable, evaluate partials per
	// partition (DN-side) and only merge on the coordinator.
	var agg exec.Operator
	if pop, ok := pc.tryPartialAggPushdown(child, groupBy, aggs, outScope); ok {
		agg = pop
	} else {
		agg = &exec.Agg{Child: child, GroupBy: groupBy, Aggs: aggs, Out: outScope.schema()}
	}

	// Instrument the aggregation step.
	childStep, childEst := pc.stepOf(child)
	var op exec.Operator = agg
	if childStep != "" {
		c := pc.newStep(AggStep(childStep, groupTexts), estimateAgg(childEst, len(groupBy)))
		c.Child, op = agg, c
	}

	pc.aggMap = aggMap
	pc.aggScope = outScope
	pc.scope = outScope
	return op, nil
}

// estimateAgg guesses output cardinality: one row without grouping, else a
// square-root heuristic of the input (classic in the absence of group-key
// NDV stats).
func estimateAgg(childEst float64, groupCols int) float64 {
	if groupCols == 0 {
		return 1
	}
	if childEst <= 1 {
		return 1
	}
	est := math.Sqrt(childEst)
	if est < 1 {
		est = 1
	}
	return est
}

// tryPartialAggPushdown checks the aggregate-over-single-NDP-scan pattern
// and, when the engine takes the spec, replaces the scan+aggregate with an
// NDP scan whose fragments aggregate their partitions (ScanPushdown.Agg)
// plus a coordinator-side merge. A scan the pushdown level left plain
// (PushdownOff) has no spec to carry the aggregate, and stays plain; an NDP
// scan's predicate is partition-pure already.
func (pc *pctx) tryPartialAggPushdown(child exec.Operator, groupBy []exec.Expr, aggs []exec.AggSpec, outScope *Scope) (exec.Operator, bool) {
	ls := pc.lastScan
	nd, ok := pc.p.Access.(NDPAccess)
	if !ok || ls == nil || exec.Operator(ls.spec.Step) != child {
		return nil, false
	}
	// Every aggregate must be mergeable and partition-pure.
	for _, sp := range aggs {
		switch sp.Kind {
		case exec.AggCountStar, exec.AggCount, exec.AggSum, exec.AggMin, exec.AggMax:
		default:
			return nil, false // avg needs a sum/count decomposition; fall back
		}
		if sp.Distinct {
			return nil, false
		}
		if sp.Arg != nil && !exec.IsPartitionPure(sp.Arg) {
			return nil, false
		}
	}
	for _, g := range groupBy {
		if !exec.IsPartitionPure(g) {
			return nil, false
		}
	}

	// Nothing above the aggregate reads the table's columns; the fragments
	// read what the group keys and aggregate arguments need, and count the
	// scan's step, which stays a step though its own operator never runs.
	partialSchema := outScope.schema()
	pop, ok := nd.ScanNDP(ls.meta, &ScanPushdown{Pred: ls.spec.Pred, Cols: []int{},
		Agg: &AggPush{GroupBy: groupBy, Aggs: aggs, Out: partialSchema}, Step: ls.spec.Step})
	if !ok {
		return nil, false
	}

	// Final merge: group by the partial key columns; merge each partial
	// aggregate (counts and sums add up, min/max re-minimize).
	g := len(groupBy)
	finalGroup := make([]exec.Expr, g)
	for i := 0; i < g; i++ {
		finalGroup[i] = &exec.ColRef{Index: i, Name: outScope.Cols[i].Canon}
	}
	finalAggs := make([]exec.AggSpec, len(aggs))
	for i, sp := range aggs {
		col := &exec.ColRef{Index: g + i}
		kind := exec.AggSum
		switch sp.Kind {
		case exec.AggMin:
			kind = exec.AggMin
		case exec.AggMax:
			kind = exec.AggMax
		}
		finalAggs[i] = exec.AggSpec{Kind: kind, Arg: col}
	}
	return &exec.Agg{Child: pop, GroupBy: finalGroup, Aggs: finalAggs, Out: partialSchema}, true
}

// compileAggCall builds the AggSpec and its canonical key ("sum(OLAP.T1.A)").
func (pc *pctx) compileAggCall(fc *sqlx.FuncCall) (exec.AggSpec, string, error) {
	name := strings.ToLower(fc.Name)
	var kind exec.AggKind
	switch name {
	case "count":
		if fc.Star {
			kind = exec.AggCountStar
		} else {
			kind = exec.AggCount
		}
	case "sum":
		kind = exec.AggSum
	case "avg":
		kind = exec.AggAvg
	case "min":
		kind = exec.AggMin
	case "max":
		kind = exec.AggMax
	default:
		return exec.AggSpec{}, "", fmt.Errorf("plan: unknown aggregate %q", name)
	}
	spec := exec.AggSpec{Kind: kind, Distinct: fc.Distinct}
	key := name + "(*)"
	if !fc.Star {
		if len(fc.Args) != 1 {
			return exec.AggSpec{}, "", fmt.Errorf("plan: %s expects one argument", name)
		}
		arg, err := pc.compileExpr(fc.Args[0])
		if err != nil {
			return exec.AggSpec{}, "", err
		}
		spec.Arg = arg
		d := ""
		if fc.Distinct {
			d = "distinct "
		}
		key = name + "(" + d + arg.String() + ")"
	}
	return spec, key, nil
}

// tryAggRef maps a post-aggregation subtree to an aggregate-output column:
// either an aggregate call's canonical key or a group-by expression's key.
func (pc *pctx) tryAggRef(e sqlx.Expr) (exec.Expr, bool, error) {
	// Aggregate call?
	if fc, ok := e.(*sqlx.FuncCall); ok && sqlx.AggregateFuncs[strings.ToLower(fc.Name)] {
		_, key, err := pc.preAggCompileKey(fc)
		if err != nil {
			return nil, false, err
		}
		if i, ok := pc.aggMap[key]; ok {
			return &exec.ColRef{Index: i, Name: strings.ToUpper(key)}, true, nil
		}
		return nil, false, fmt.Errorf("plan: aggregate %s not collected (internal error)", key)
	}
	// Group-by expression? Compile against the pre-agg scope to get the
	// canonical key; errors just mean "not a group expression".
	savedMap := pc.aggMap
	pc.aggMap = nil
	savedScope := pc.scope
	pc.scope = pc.preAggScope
	ce, err := pc.compileExpr(e)
	pc.aggMap = savedMap
	pc.scope = savedScope
	if err != nil {
		return nil, false, nil
	}
	if i, ok := savedMap[ce.String()]; ok {
		return &exec.ColRef{Index: i, Name: strings.ToUpper(ce.String())}, true, nil
	}
	// A bare column not in GROUP BY is an error only if it contains no
	// aggregate below; leaf case handled here.
	if _, isCol := e.(*sqlx.ColumnRef); isCol {
		return nil, false, fmt.Errorf("plan: column %s must appear in GROUP BY or be used in an aggregate", ce.String())
	}
	return nil, false, nil
}

// preAggCompileKey computes the canonical key of an aggregate call against
// the pre-aggregation scope.
func (pc *pctx) preAggCompileKey(fc *sqlx.FuncCall) (exec.AggSpec, string, error) {
	savedMap := pc.aggMap
	pc.aggMap = nil
	savedScope := pc.scope
	pc.scope = pc.preAggScope
	defer func() { pc.aggMap = savedMap; pc.scope = savedScope }()
	return pc.compileAggCall(fc)
}
