package cluster

import (
	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/types"
)

// Segment pruning: the first step of a fragment program's select stage.
// The pushed scan predicate's prunable conjuncts compile into a zone-map
// check that skips sealed column segments whose recorded min/max exclude
// every possible match. Pruning is purely a skip hint — the program still
// evaluates the whole predicate on every row it reads, so an
// over-permissive keep costs time, never correctness, and the check errs
// on the side of keeping whenever a comparison is uncertain.

// zoneCheck reports whether a segment may contain matching rows.
type zoneCheck func(*colstore.Segment) bool

// segmentPruner compiles pred into a keep-function over sealed segments.
// It returns nil (scan everything) when pred is nil, pruning is disabled,
// or no conjunct has the prunable shape col-op-constant.
func (c *Cluster) segmentPruner(pred exec.Expr) func(*colstore.Segment) bool {
	if pred == nil || c.DisableSegmentPrune {
		return nil
	}
	var checks []zoneCheck
	for _, conj := range splitConjuncts(pred, nil) {
		if chk := compileZoneCheck(conj); chk != nil {
			checks = append(checks, chk)
		}
	}
	if len(checks) == 0 {
		return nil
	}
	return func(s *colstore.Segment) bool {
		for _, chk := range checks {
			if !chk(s) {
				return false
			}
		}
		return true
	}
}

// splitConjuncts flattens a top-level AND tree into its conjuncts.
func splitConjuncts(e exec.Expr, out []exec.Expr) []exec.Expr {
	if b, ok := e.(*exec.BinOp); ok && b.Op == "AND" {
		return splitConjuncts(b.Right, splitConjuncts(b.Left, out))
	}
	return append(out, e)
}

// constVal unwraps a non-NULL constant operand (NULL comparisons match no
// rows anyway; leave them to row-wise evaluation rather than reason about
// 3VL here).
func constVal(e exec.Expr) (types.Datum, bool) {
	c, ok := e.(*exec.Const)
	if !ok || c.Value.IsNull() {
		return types.Null, false
	}
	return c.Value, true
}

// colOpConst recognizes a binary operator applied to a column and a
// non-NULL constant, in either orientation, normalized to col-op-const.
func colOpConst(e exec.Expr) (col *exec.ColRef, op string, v types.Datum, ok bool) {
	b, isBin := e.(*exec.BinOp)
	if !isBin {
		return nil, "", types.Null, false
	}
	op = b.Op
	col, okL := b.Left.(*exec.ColRef)
	v, okR := constVal(b.Right)
	if !okL || !okR {
		col, okL = b.Right.(*exec.ColRef)
		v, okR = constVal(b.Left)
		op = flipOp(op)
	}
	return col, op, v, okL && okR
}

// compileZoneCheck recognizes one prunable conjunct shape and returns its
// zone-map check, or nil when the conjunct cannot prune.
func compileZoneCheck(e exec.Expr) zoneCheck {
	switch x := e.(type) {
	case *exec.BinOp:
		if col, op, v, ok := colOpConst(x); ok {
			return rangeCheck(col.Index, op, v)
		}
	case *exec.BetweenExpr:
		if x.Not {
			return nil
		}
		col, ok := x.Child.(*exec.ColRef)
		if !ok {
			return nil
		}
		lo, okLo := constVal(x.Lo)
		hi, okHi := constVal(x.Hi)
		if !okLo || !okHi {
			return nil
		}
		return func(s *colstore.Segment) bool {
			min, max, ok := s.ColRange(col.Index)
			if !ok {
				return true
			}
			// Keep unless the segment range and [lo, hi] are disjoint.
			return !(cmpLT(max, lo) || cmpLT(hi, min))
		}
	case *exec.InListExpr:
		if x.Not {
			return nil
		}
		col, ok := x.Child.(*exec.ColRef)
		if !ok {
			return nil
		}
		vals := make([]types.Datum, 0, len(x.List))
		for _, item := range x.List {
			v, ok := constVal(item)
			if !ok {
				return nil
			}
			vals = append(vals, v)
		}
		return func(s *colstore.Segment) bool {
			min, max, ok := s.ColRange(col.Index)
			if !ok {
				return true
			}
			for _, v := range vals {
				if !cmpLT(v, min) && !cmpLT(max, v) {
					return true // v falls inside [min, max]
				}
			}
			return false
		}
	}
	return nil
}

// flipOp mirrors a comparison for the const-op-col orientation.
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default: // "=", "<>" are symmetric
		return op
	}
}

// rangeCheck builds the zone check for col op v.
func rangeCheck(col int, op string, v types.Datum) zoneCheck {
	switch op {
	case "=":
		return func(s *colstore.Segment) bool {
			min, max, ok := s.ColRange(col)
			return !ok || (!cmpLT(v, min) && !cmpLT(max, v))
		}
	case "<":
		return func(s *colstore.Segment) bool {
			min, _, ok := s.ColRange(col)
			return !ok || cmpLT(min, v)
		}
	case "<=":
		return func(s *colstore.Segment) bool {
			min, _, ok := s.ColRange(col)
			return !ok || !cmpLT(v, min)
		}
	case ">":
		return func(s *colstore.Segment) bool {
			_, max, ok := s.ColRange(col)
			return !ok || cmpLT(v, max)
		}
	case ">=":
		return func(s *colstore.Segment) bool {
			_, max, ok := s.ColRange(col)
			return !ok || !cmpLT(max, v)
		}
	case "<>":
		// Prunable only when the segment is a single run of exactly v.
		return func(s *colstore.Segment) bool {
			min, max, ok := s.ColRange(col)
			if !ok {
				return true
			}
			eqMin, err1 := types.Compare(min, v)
			eqMax, err2 := types.Compare(max, v)
			return err1 != nil || err2 != nil || eqMin != 0 || eqMax != 0
		}
	}
	return nil
}

// cmpLT reports a < b, treating incomparable kinds as false so every
// caller degrades to keeping the segment.
func cmpLT(a, b types.Datum) bool {
	c, err := types.Compare(a, b)
	return err == nil && c < 0
}
