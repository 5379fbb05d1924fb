package exec

import "repro/internal/types"

// A pushed predicate is read for more than its truth. Its top-level conjuncts
// that compare one column with values also say where matching rows can be —
// which primary key, which zone-mapped segments — and can run as tight loops
// over a column vector. Term is that reading, made once per compiled
// predicate; the values are resolved once per fragment run, because a value
// is a constant or a parameter of the execution.

// Term is one top-level conjunct of the form column Op value: Op is "=",
// "<>", "<", "<=", ">" or ">=" over Vals[0] — `value op column` is mirrored
// into this form, and `column BETWEEN lo AND hi` is the two terms >= lo and
// <= hi — or "IN" over the list Vals. A value is a Const, a Param or a
// negated Param, or one of those read as a TIMESTAMP (AsTime). Conj is the
// conjunct the term was read from.
type Term struct {
	Col  int
	Op   string
	Vals []Expr
	Conj Expr
}

// SplitTerms decomposes pred into its terms and rest, the conjunction of the
// top-level conjuncts that are none (nil: every conjunct is a term).
func SplitTerms(pred Expr) (terms []Term, rest Expr) {
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinOp:
			if x.Op == "AND" {
				walk(x.Left)
				walk(x.Right)
				return
			}
			if !isComparison(x.Op) {
				break
			}
			if col, ok := x.Left.(*ColRef); ok && termValue(x.Right) {
				terms = append(terms, Term{Col: col.Index, Op: x.Op, Vals: []Expr{x.Right}, Conj: e})
				return
			}
			if col, ok := x.Right.(*ColRef); ok && termValue(x.Left) {
				terms = append(terms, Term{Col: col.Index, Op: flipOp(x.Op), Vals: []Expr{x.Left}, Conj: e})
				return
			}
		case *BetweenExpr:
			if col, ok := x.Child.(*ColRef); ok && !x.Not && termValue(x.Lo) && termValue(x.Hi) {
				terms = append(terms,
					Term{Col: col.Index, Op: ">=", Vals: []Expr{x.Lo}, Conj: e},
					Term{Col: col.Index, Op: "<=", Vals: []Expr{x.Hi}, Conj: e})
				return
			}
		case *InListExpr:
			if col, ok := x.Child.(*ColRef); ok && !x.Not && len(x.List) > 0 && termValues(x.List) {
				terms = append(terms, Term{Col: col.Index, Op: "IN", Vals: x.List, Conj: e})
				return
			}
		}
		rest = And(rest, e)
	}
	if pred != nil {
		walk(pred)
	}
	return terms, rest
}

// And is l AND r; either may be nil (no condition).
func And(l, r Expr) Expr {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	}
	return &BinOp{Op: "AND", Left: l, Right: r}
}

func isComparison(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// flipOp mirrors a comparison for the value-op-column orientation.
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

func termValue(e Expr) bool {
	switch x := e.(type) {
	case *Const, *Param:
		return true
	case *Neg:
		_, ok := x.Child.(*Param)
		return ok
	case *AsTime:
		return termValue(x.Value)
	}
	return false
}

func termValues(es []Expr) bool {
	for _, e := range es {
		if !termValue(e) {
			return false
		}
	}
	return true
}

// Resolve appends the term's values under ctx to buf. ok=false when one fails
// to evaluate, is NULL or is of a kind Compare does not order against kind,
// the column's: the conjunct then matches no row or fails on every row, and
// either way it must get to say so row by row — the caller leaves Conj to
// the row-wise predicate and reads nothing else off the term.
func (t *Term) Resolve(ctx *Ctx, kind types.Kind, buf []types.Datum) (vals []types.Datum, ok bool) {
	for _, e := range t.Vals {
		v, err := e.Eval(ctx, nil)
		if err != nil || v.IsNull() || !types.Comparable(v.Kind(), kind) {
			return buf, false
		}
		buf = append(buf, v)
	}
	return buf, true
}
