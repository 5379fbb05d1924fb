package cluster

import (
	"math"

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
//
// A comparison of a BIGINT or DOUBLE column with a number is resolved, once
// per run, into the closed range of column values that satisfy it as
// types.Compare orders them — exactly, so a BIGINT above 2^53 is never
// rounded to a DOUBLE, and NaN sorts above +Inf — and the ranges of one
// column's terms intersect, so `k >= lo AND k < hi` is one pass whose loop
// body is two comparisons. Every other kind compares datums row by row.

// vecKernel applies one column's terms to a batch: kind is the column's, and
// says which fields apply. A BIGINT column keeps the values in [lo, hi]
// (none when lo > hi); a DOUBLE column those in [flo, fhi], and NaN when nan
// is set. With not set the kernel keeps the values outside instead (a "<>"
// term, which joins no other). Any other column compares each value with v
// under op. NULL fails every kernel.
type vecKernel struct {
	at       int // the column's position in the batch-scan projection
	kind     types.Kind
	not      bool
	lo, hi   int64
	flo, fhi float64
	nan      bool
	op       string
	v        types.Datum
}

// vecKernelOf builds the kernel of a comparison term with operator op under
// its resolved value v, over the column of kind kind at scan projection
// position at. v is of a kind Compare orders against kind.
func vecKernelOf(at int, kind types.Kind, op string, v types.Datum) vecKernel {
	numeric := v.Kind() == types.KindInt || v.Kind() == types.KindFloat
	if !numeric || kind != types.KindInt && kind != types.KindFloat {
		return vecKernel{at: at, kind: kind, op: op, v: v}
	}
	k := vecKernel{at: at, kind: kind, not: op == "<>"}
	if k.not {
		op = "="
	}
	if kind == types.KindInt {
		k.lo, k.hi = intRange(op, v)
	} else {
		k.flo, k.fhi, k.nan = floatRange(op, v)
	}
	return k
}

// and intersects o into k when both are ranges over one column, and reports
// whether it did.
func (k *vecKernel) and(o vecKernel) bool {
	if k.at != o.at || k.kind != o.kind || k.not || o.not {
		return false
	}
	switch k.kind {
	case types.KindInt:
		k.lo, k.hi = max(k.lo, o.lo), min(k.hi, o.hi)
	case types.KindFloat:
		k.flo, k.fhi, k.nan = max(k.flo, o.flo), min(k.fhi, o.fhi), k.nan && o.nan
	default:
		return false
	}
	return true
}

// andKernel adds k to kernels, intersected into the range kernel over its
// column if there is one.
func andKernel(kernels []vecKernel, k vecKernel) []vecKernel {
	for i := range kernels {
		if kernels[i].and(k) {
			return kernels
		}
	}
	return append(kernels, k)
}

// apply clears sel[i] for every row of b that fails the kernel. sel has b.N
// entries.
func (k *vecKernel) apply(b *colstore.Batch, sel []bool) error {
	vec := b.Cols[k.at]
	in := !k.not // whether a value in the range is kept
	switch k.kind {
	case types.KindInt:
		xs := vec.Ints[:len(sel)]
		if k.lo > k.hi {
			if in {
				clear(sel)
			}
			break
		}
		// One unsigned comparison: x-lo wraps below 0 to above hi-lo.
		lo, span := k.lo, uint64(k.hi-k.lo)
		for i, x := range xs {
			sel[i] = sel[i] && (uint64(x-lo) <= span) == in
		}
	case types.KindFloat:
		xs := vec.Floats[:len(sel)]
		lo, hi, nan := k.flo, k.fhi, k.nan
		for i, x := range xs {
			sel[i] = sel[i] && (x >= lo && x <= hi || nan && x != x) == in
		}
	default:
		// Per-row datum comparison with exactly BinOp.Eval's semantics
		// (types.Compare, errors propagate, NULLs fail the conjunct).
		for i := range sel {
			if !sel[i] {
				continue
			}
			d := vec.DatumAt(i)
			if d.IsNull() {
				sel[i] = false
				continue
			}
			c, err := types.Compare(d, k.v)
			if err != nil {
				return err
			}
			sel[i] = cmpSatisfies(k.op, c)
		}
		return nil
	}
	if vec.Nulls != nil {
		for i, null := range vec.Nulls[:len(sel)] {
			if null {
				sel[i] = false
			}
		}
	}
	return nil
}

// intRange returns the BIGINTs x for which Compare(x, v) op 0 holds as the
// closed range [lo, hi], empty when lo > hi. v is a BIGINT or a DOUBLE; op
// is "=", "<", "<=", ">" or ">=".
func intRange(op string, v types.Datum) (lo, hi int64) {
	// ge is the least BIGINT ≥ v and le the greatest ≤ v, where they exist.
	var ge, le int64
	var geOK, leOK bool
	if c, ok := v.IntValue(); ok {
		ge, le, geOK, leOK = c, c, true, true
	} else {
		switch f, _ := v.FloatValue(); {
		case f != f || f >= 1<<63: // NaN sorts above every number
			le, leOK = math.MaxInt64, true
		case f < -(1 << 63):
			ge, geOK = math.MinInt64, true
		default:
			ge, le, geOK, leOK = int64(math.Ceil(f)), int64(math.Floor(f)), true, true
		}
	}
	exact := geOK && leOK && ge == le // v is the BIGINT ge
	switch {
	case op == "=" && exact:
		return ge, ge
	case op == ">=" && geOK, op == ">" && geOK && !exact:
		return ge, math.MaxInt64
	case op == ">" && exact && ge < math.MaxInt64:
		return ge + 1, math.MaxInt64
	case op == "<=" && leOK, op == "<" && leOK && !exact:
		return math.MinInt64, le
	case op == "<" && exact && le > math.MinInt64:
		return math.MinInt64, le - 1
	}
	return 1, 0 // no BIGINT
}

// floatRange returns the DOUBLEs x for which Compare(x, v) op 0 holds: those
// in the closed range [lo, hi] (empty when lo > hi), and NaN when nan is
// set. v is a BIGINT or a DOUBLE; op is "=", "<", "<=", ">" or ">=".
func floatRange(op string, v types.Datum) (lo, hi float64, nan bool) {
	f, ok := v.FloatValue()
	if !ok {
		// A BIGINT the nearest DOUBLE f misses lies strictly between f and
		// f's neighbour on its side, and no DOUBLE does: below it means
		// below f or at most f, above it at least f or above f.
		c, _ := v.IntValue()
		f = float64(c)
		if cmp, _ := types.Compare(v, types.NewFloat(f)); cmp != 0 {
			switch {
			case op == "=":
				return math.Inf(1), math.Inf(-1), false
			case op[0] == '<' && cmp < 0:
				op = "<"
			case op[0] == '<':
				op = "<="
			case cmp < 0:
				op = ">="
			default:
				op = ">"
			}
		}
	}
	inf := math.Inf(1)
	if f != f { // NaN equals only NaN and sorts above every number
		switch op {
		case "<":
			return -inf, inf, false
		case "<=":
			return -inf, inf, true
		case "=", ">=":
			return inf, -inf, true
		}
		return inf, -inf, false
	}
	switch op {
	case "=":
		return f, f, false
	case "<":
		if f == -inf {
			return inf, -inf, false
		}
		return -inf, math.Nextafter(f, -inf), false
	case "<=":
		return -inf, f, false
	case ">":
		if f == inf {
			return inf, -inf, true
		}
		return math.Nextafter(f, inf), inf, true
	}
	return f, inf, true // ">="
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
