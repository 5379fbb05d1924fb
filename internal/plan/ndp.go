package plan

// Near-data-processing planning passes (Taurus NDP, paper §III-B): after a
// query block is fully planned, the planner walks the final operator tree
// to work out which table columns each NDP scan must actually ship
// (projection pushdown), recognizes ORDER BY and LIMIT over a bare scan as
// a per-fragment sort or bounded TopN, and wires sideways bloom filters
// from hash-join build sides into probe-side scans. All three only *narrow* what a
// scan ships — an unvisited or unanalyzable scan simply ships everything,
// so conservatism is always safe.

import (
	"repro/internal/exec"
	"repro/internal/types"
)

// PushdownLevel is the scan-pushdown ladder (E18). Levels are cumulative:
// each one enables its own reduction plus those of every level declared
// after it. The zero value is full pushdown. The level is the planner's
// alone — the engine honours whatever spec it is handed.
type PushdownLevel uint8

const (
	PushdownBloom      PushdownLevel = iota // + sideways bloom filters into probe-side scans
	PushdownTopN                            // + per-fragment sort / bounded TopN, merged at the CN
	PushdownProjection                      // + ship only the referenced columns
	PushdownFilter                          // exact DN-side filtering, nothing else
	PushdownOff                             // plain Scan under a coordinator Filter; no spec
)

// PushdownLadder lists the levels from no pushdown to full pushdown.
var PushdownLadder = []PushdownLevel{PushdownOff, PushdownFilter, PushdownProjection, PushdownTopN, PushdownBloom}

// includes reports whether level l enables the reduction introduced at rung.
func (l PushdownLevel) includes(rung PushdownLevel) bool { return l <= rung }

func (l PushdownLevel) String() string {
	return [...]string{"+bloom", "+topn", "+projection", "filter", "off"}[min(l, PushdownOff)]
}

// exprNeeds records the columns of the current row that e references into
// need. It reports false when the expression's column set cannot be
// bounded — it contains a subplan (whose inner tree may reach any column
// of this row through outer references) or an out-of-range reference — in
// which case the caller must assume all columns are needed.
func exprNeeds(e exec.Expr, need []bool) bool {
	ok := true
	exec.WalkExpr(e, func(x exec.Expr) bool {
		switch v := x.(type) {
		case *exec.ColRef:
			if v.Index >= 0 && v.Index < len(need) {
				need[v.Index] = true
			} else {
				ok = false
			}
		case *exec.Subplan:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// addExprCols widens need (over a schema of n columns) with the columns the
// given expressions reference. A nil need already means "all columns" and
// stays nil; any unanalyzable expression collapses the result to nil.
func addExprCols(need []bool, n int, exprs ...exec.Expr) []bool {
	if need == nil {
		return nil
	}
	out := make([]bool, n)
	copy(out, need)
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if !exprNeeds(e, out) {
			return nil
		}
	}
	return out
}

// colsFromNeed converts a requirement set into a ScanPushdown.Cols list:
// nil (all columns needed) stays nil, a full set also collapses to nil,
// and otherwise the referenced positions are listed in order.
func colsFromNeed(need []bool) []int {
	if need == nil {
		return nil
	}
	cols := make([]int, 0, len(need))
	for i, b := range need {
		if b {
			cols = append(cols, i)
		}
	}
	if len(cols) == len(need) {
		return nil
	}
	return cols
}

// pushProjections walks the finished plan top-down, threading the set of
// columns each operator's output is consumed through, and records the
// final per-scan requirement into each NDP scan's pushdown spec. Operators
// the walk does not understand (exchange internals, materialized CTE refs,
// multi-model sources) terminate the walk down that branch; scans below
// them keep Cols=nil and ship every column.
func pushProjections(root exec.Operator, scans map[*exec.Counted]*scanInfo) {
	if len(scans) == 0 {
		return
	}
	var walk func(op exec.Operator, need []bool)
	walk = func(op exec.Operator, need []bool) {
		switch o := op.(type) {
		case *exec.Counted:
			if info := scans[o]; info != nil && info.spec != nil {
				if info.spec.Out != nil {
					need = outputNeed(info.spec.Out, need, info.meta.Schema.Len())
				}
				info.spec.Cols = colsFromNeed(need)
				return
			}
			walk(o.Child, need)
		case *exec.Filter:
			walk(o.Child, addExprCols(need, o.Child.Schema().Len(), o.Pred))
		case *exec.Project:
			// Only the outputs the parent reads: a FROM-order permutation
			// must not widen the scans below it.
			childNeed := make([]bool, o.Child.Schema().Len())
			for i, e := range o.Exprs {
				if (need == nil || need[i]) && !exprNeeds(e, childNeed) {
					childNeed = nil
					break
				}
			}
			walk(o.Child, childNeed)
		case *exec.Sort:
			walk(o.Child, addExprCols(need, o.Child.Schema().Len(), keyExprs(o.Keys)...))
		case *exec.TopN:
			walk(o.Child, addExprCols(need, o.Child.Schema().Len(), keyExprs(o.Keys)...))
		case *exec.Limit:
			walk(o.Child, need)
		case *exec.Distinct:
			// Row identity matters: every column participates.
			walk(o.Child, nil)
		case *exec.Concat:
			for _, c := range o.Children {
				walk(c, need)
			}
		case *exec.Agg:
			childNeed := make([]bool, o.Child.Schema().Len())
			ok := true
			for _, g := range o.GroupBy {
				ok = ok && exprNeeds(g, childNeed)
			}
			for _, a := range o.Aggs {
				if a.Arg != nil {
					ok = ok && exprNeeds(a.Arg, childNeed)
				}
			}
			if !ok {
				childNeed = nil
			}
			walk(o.Child, childNeed)
		case *exec.HashJoin:
			ln, rn := splitJoinNeed(need, o.Left.Schema().Len(), o.Right.Schema().Len(), o.ExtraOn)
			ln = addExprCols(ln, o.Left.Schema().Len(), o.LeftKeys...)
			rn = addExprCols(rn, o.Right.Schema().Len(), o.RightKeys...)
			walk(o.Left, ln)
			walk(o.Right, rn)
		case *exec.NestedLoopJoin:
			ln, rn := splitJoinNeed(need, o.Left.Schema().Len(), o.Right.Schema().Len(), o.On)
			walk(o.Left, ln)
			walk(o.Right, rn)
		}
	}
	walk(root, nil)
}

// outputNeed maps a requirement set over a folded scan's output row (nil:
// every output) onto the table columns of its n that the outputs read.
func outputNeed(out []int, need []bool, n int) []bool {
	cols := make([]bool, n)
	for i, col := range out {
		if need == nil || need[i] {
			cols[col] = true
		}
	}
	return cols
}

// keyExprs projects the expressions out of a sort-key list.
func keyExprs(keys []exec.SortKey) []exec.Expr {
	out := make([]exec.Expr, len(keys))
	for i, k := range keys {
		out[i] = k.Expr
	}
	return out
}

// splitJoinNeed maps a requirement set over a join's concatenated output
// into per-side requirements, folding in the columns the join condition
// itself reads (cond is compiled against the combined row).
func splitJoinNeed(need []bool, nLeft, nRight int, cond exec.Expr) (ln, rn []bool) {
	combined := make([]bool, nLeft+nRight)
	if need != nil {
		copy(combined, need)
	}
	all := need == nil
	if cond != nil && !exprNeeds(cond, combined) {
		all = true
	}
	if all {
		return nil, nil
	}
	ln, rn = make([]bool, nLeft), make([]bool, nRight)
	copy(ln, combined[:nLeft])
	copy(rn, combined[nLeft:])
	return ln, rn
}

// tryTopNPushdown fires when a query block's ORDER BY and/or LIMIT sits
// directly on a single NDP scan (no residual filter, join, aggregation or
// DISTINCT in between) and reports whether it did. Each scan fragment then
// sorts its own rows under the same keys and, under a LIMIT, keeps only the
// top limit of them — everything a CN-side merge could ever retain —
// instead of shipping the whole partition; the scan's Exchange merges the
// sorted fragments, so the block needs no Sort or TopN of its own. limit
// < 0 means no LIMIT. sortKeys reference projection outputs. A folded scan
// (tryProjectionFold) emits the output row, so they stay as they are;
// otherwise they are remapped to the underlying table-schema expressions,
// which must be partition-pure to evaluate on a DN.
func (pc *pctx) tryTopNPushdown(projChild exec.Operator, sortKeys []exec.SortKey, exprs []exec.Expr, limit int64) bool {
	ls := pc.lastScan
	if !pc.p.Pushdown.includes(PushdownTopN) || ls == nil || exec.Operator(ls.spec.Step) != projChild {
		return false
	}
	if limit < 0 && len(sortKeys) == 0 {
		return false
	}
	if ls.spec.Out != nil {
		ls.spec.TopN = &TopNPush{Keys: sortKeys, Limit: limit}
		return true
	}
	keys, ok := inputKeys(sortKeys, exprs)
	if !ok {
		return false
	}
	for _, k := range keys {
		if !exec.IsPartitionPure(k.Expr) {
			return false
		}
	}
	ls.spec.TopN = &TopNPush{Keys: keys, Limit: limit}
	return true
}

// inputKeys rewrites sort keys over a projection's outputs into keys over
// its input: each key becomes the projection expression it names.
func inputKeys(sortKeys []exec.SortKey, exprs []exec.Expr) ([]exec.SortKey, bool) {
	keys := make([]exec.SortKey, len(sortKeys))
	for i, sk := range sortKeys {
		cr, ok := sk.Expr.(*exec.ColRef)
		if !ok || cr.Index < 0 || cr.Index >= len(exprs) {
			return nil, false
		}
		keys[i] = exec.SortKey{Expr: exprs[cr.Index], Desc: sk.Desc}
	}
	return keys, true
}

// tryProjectionFold folds a query block's projection into the bare NDP
// scan beneath it when every output — hidden ORDER BY columns included — is
// a bare table column, and reports whether it did. The scan's fragments
// then build each survivor in the output's shape (ScanPushdown.Out), and
// the block builds no Project. A computed output keeps its coordinator
// Project: that evaluates only the rows its parent pulls — under a LIMIT,
// not every candidate of every fragment heap — so an expression that fails
// on a row the query never returns does not fail the query on a DN.
func (pc *pctx) tryProjectionFold(projChild exec.Operator, exprs []exec.Expr, out *types.Schema) bool {
	ls := pc.lastScan
	nd, ok := pc.p.Access.(NDPAccess)
	if !ok || !pc.p.Pushdown.includes(PushdownProjection) || ls == nil || exec.Operator(ls.spec.Step) != projChild {
		return false
	}
	cols := make([]int, len(exprs))
	for i, e := range exprs {
		cr, ok := e.(*exec.ColRef)
		if !ok || cr.Index < 0 || cr.Index >= ls.meta.Schema.Len() {
			return false
		}
		cols[i] = cr.Index
	}
	ls.spec.Out, ls.spec.OutSchema = cols, out
	op, ok := nd.ScanNDP(ls.meta, ls.spec)
	if !ok {
		ls.spec.Out, ls.spec.OutSchema = nil, nil
		return false
	}
	ls.spec.Step.Child = op
	return true
}

// tryBloomPushdown wires sideways information passing into an inner hash
// join whose probe (left) side is a bare NDP scan: the join publishes a
// bloom filter over its build-side keys through a shared handle, and the
// scan's fragments drop rows whose join-key datum cannot match before
// they ever cross the fabric (a DN-side semi-join). Only fires when the
// build side is not estimated to be larger than the probe side — shipping
// a filter of the big side to prune the small side would cost more than
// it saves.
func (pc *pctx) tryBloomPushdown(hj *exec.HashJoin, lop exec.Operator, lEst, rEst float64) {
	if !pc.p.Pushdown.includes(PushdownBloom) || pc.scans == nil {
		return
	}
	lc, ok := lop.(*exec.Counted)
	if !ok {
		return
	}
	// A folded scan (a derived table's block) emits output rows, not the
	// table's: it stays a plain probe input, as under its Project.
	info := (*pc.scans)[lc]
	if info == nil || info.spec.Bloom != nil || info.spec.Out != nil {
		return
	}
	if lEst > 0 && rEst > lEst {
		return
	}
	for i, lk := range hj.LeftKeys {
		cr, ok := lk.(*exec.ColRef)
		if !ok {
			continue
		}
		if !exec.IsPartitionPure(hj.RightKeys[i]) {
			continue
		}
		h := exec.NewBloomHandle()
		info.spec.Bloom, info.spec.BloomCol = h, cr.Index
		hj.Bloom, hj.BloomKey = h, i
		return
	}
}
