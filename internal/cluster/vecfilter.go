package cluster

import (
	"repro/internal/colstore"
	"repro/internal/types"
)

// Vectorized selection for NDP scans: the pushed filter's comparison terms
// (exec.SplitTerms) run directly over decoded column vectors as tight loops,
// clearing a selection bitmap instead of evaluating the expression
// interpreter per row. Conjuncts that are no such term, or whose value does
// not resolve for the run, stay in a residual expression the fragment
// evaluates row-wise — semantics are always identical to exec.EvalBool over
// the full predicate (NULL comparisons are false, comparison errors
// propagate).

// vecKernel applies one term to a batch, clearing sel[i] for rows that fail
// it. sel has b.N entries.
type vecKernel func(b *colstore.Batch, sel []bool) error

// vecKernelOf builds the kernel of a comparison term with operator op under
// its resolved value v, over the column at scan projection position at.
func vecKernelOf(at int, op string, v types.Datum) vecKernel {
	constIsInt := v.Kind() == types.KindInt
	constIsNum := constIsInt || v.Kind() == types.KindFloat
	cI := int64(0)
	if constIsInt {
		cI = v.Int()
	}
	cF := 0.0
	if constIsNum {
		cF = v.Float()
	}
	okI := intCmp(op, cI)
	okF := floatCmp(op, cF)

	return func(b *colstore.Batch, sel []bool) error {
		vec := b.Cols[at]
		nulls := vec.Nulls
		switch {
		case vec.Kind == types.KindInt && constIsInt:
			xs := vec.Ints
			for i := range sel {
				if sel[i] && ((nulls != nil && nulls[i]) || !okI(xs[i])) {
					sel[i] = false
				}
			}
		case vec.Kind == types.KindInt && constIsNum:
			xs := vec.Ints
			for i := range sel {
				if sel[i] && ((nulls != nil && nulls[i]) || !okF(float64(xs[i]))) {
					sel[i] = false
				}
			}
		case vec.Kind == types.KindFloat && constIsNum:
			xs := vec.Floats
			for i := range sel {
				if sel[i] && ((nulls != nil && nulls[i]) || !okF(xs[i])) {
					sel[i] = false
				}
			}
		default:
			// Non-numeric column or constant: per-row datum comparison with
			// exactly BinOp.Eval's semantics (types.Compare, errors
			// propagate, NULLs fail the conjunct).
			for i := range sel {
				if !sel[i] {
					continue
				}
				d := vec.DatumAt(i)
				if d.IsNull() {
					sel[i] = false
					continue
				}
				c, err := types.Compare(d, v)
				if err != nil {
					return err
				}
				if !cmpSatisfies(op, c) {
					sel[i] = false
				}
			}
		}
		return nil
	}
}

// intCmp specializes an integer comparison against a constant.
func intCmp(op string, c int64) func(int64) bool {
	switch op {
	case "<":
		return func(x int64) bool { return x < c }
	case "<=":
		return func(x int64) bool { return x <= c }
	case ">":
		return func(x int64) bool { return x > c }
	case ">=":
		return func(x int64) bool { return x >= c }
	case "=":
		return func(x int64) bool { return x == c }
	default: // "<>"
		return func(x int64) bool { return x != c }
	}
}

// floatCmp specializes a float comparison against a constant.
func floatCmp(op string, c float64) func(float64) bool {
	switch op {
	case "<":
		return func(x float64) bool { return x < c }
	case "<=":
		return func(x float64) bool { return x <= c }
	case ">":
		return func(x float64) bool { return x > c }
	case ">=":
		return func(x float64) bool { return x >= c }
	case "=":
		return func(x float64) bool { return x == c }
	default: // "<>"
		return func(x float64) bool { return x != c }
	}
}

// cmpSatisfies maps a types.Compare result onto a comparison operator.
func cmpSatisfies(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "=":
		return c == 0
	default: // "<>"
		return c != 0
	}
}
