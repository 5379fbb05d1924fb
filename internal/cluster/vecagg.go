package cluster

import (
	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/types"
)

// Vectorized aggregation (paper §II: "our vectorized execution engine is
// equipped with ... fine-grained parallelism"). When a partial aggregate
// runs over a columnar source and every group/agg expression is a plain
// column reference, the fragment program's aggregating sink consumes the
// decoded column vectors directly — no per-row types.Row materialization,
// no expression interpreter in the inner loop. Which rows it sees is the
// program's select stage's business, exactly as for any scan.

// vecPlan describes a vectorizable partial aggregate: positions are into
// the fragment program's batch-scan projection, not the table schema.
type vecPlan struct {
	groupIdx []int // projection positions of the group-by columns
	aggIdx   []int // projection position per agg (-1 for count(*))
	aggKinds []exec.AggKind
}

// buildVecPlan inspects the compiled aggregate against the program that
// will scan for it; ok is false when any group/agg expression is not a bare
// reference to a scanned column (the generic exec.Agg sink handles those).
func buildVecPlan(prog *ndpProgram, groupBy []exec.Expr, aggs []exec.AggSpec) (*vecPlan, bool) {
	p := &vecPlan{}
	posOf := func(e exec.Expr) (int, bool) {
		cr, ok := e.(*exec.ColRef)
		if !ok {
			return 0, false
		}
		at := prog.scanPos(cr.Index)
		return at, at >= 0
	}
	for _, g := range groupBy {
		at, ok := posOf(g)
		if !ok {
			return nil, false
		}
		p.groupIdx = append(p.groupIdx, at)
	}
	for _, spec := range aggs {
		p.aggKinds = append(p.aggKinds, spec.Kind)
		if spec.Kind == exec.AggCountStar {
			p.aggIdx = append(p.aggIdx, -1)
			continue
		}
		at, ok := posOf(spec.Arg)
		if !ok {
			return nil, false
		}
		p.aggIdx = append(p.aggIdx, at)
	}
	return p, true
}

// vecAccum is one group's accumulator set.
type vecAccum struct {
	key    types.Row
	counts []int64
	sumI   []int64
	sumF   []float64
	isF    []bool
	minMax []types.Datum
	any    []bool
}

func newVecAccum(key types.Row, nAggs int) *vecAccum {
	return &vecAccum{
		key:    key,
		counts: make([]int64, nAggs),
		sumI:   make([]int64, nAggs),
		sumF:   make([]float64, nAggs),
		isF:    make([]bool, nAggs),
		minMax: make([]types.Datum, nAggs),
		any:    make([]bool, nAggs),
	}
}

// vecAgg is one fragment's aggregation state: groups in first-seen order.
type vecAgg struct {
	plan   *vecPlan
	groups map[string]*vecAccum
	order  []string
}

// group creates key's accumulators on first sight.
func (v *vecAgg) group(key string, keyVals types.Row) *vecAccum {
	acc := newVecAccum(keyVals, len(v.plan.aggKinds))
	v.groups[key] = acc
	v.order = append(v.order, key)
	return acc
}

// addBatch folds the selected rows of b into their groups' accumulators,
// straight off the vectors.
func (v *vecAgg) addBatch(b *colstore.Batch, sel []bool) {
	p := v.plan
	for i := 0; i < b.N; i++ {
		if !sel[i] {
			continue
		}
		key, keyVals := "", types.Row(nil)
		if len(p.groupIdx) > 0 {
			keyVals = make(types.Row, len(p.groupIdx))
			for k, gi := range p.groupIdx {
				keyVals[k] = b.Cols[gi].DatumAt(i)
			}
			key = keyVals.String()
		}
		acc := v.groups[key]
		if acc == nil {
			acc = v.group(key, keyVals)
		}
		for a, kind := range p.aggKinds {
			if kind == exec.AggCountStar {
				acc.counts[a]++
				continue
			}
			vec := b.Cols[p.aggIdx[a]]
			if vec.IsNull(i) {
				continue
			}
			acc.counts[a]++
			switch kind {
			case exec.AggCount:
				// count only
			case exec.AggSum:
				switch vec.Kind {
				case types.KindInt, types.KindTime:
					if acc.isF[a] {
						acc.sumF[a] += float64(vec.Ints[i])
					} else {
						acc.sumI[a] += vec.Ints[i]
					}
				case types.KindFloat:
					if !acc.isF[a] {
						acc.sumF[a] = float64(acc.sumI[a])
						acc.isF[a] = true
					}
					acc.sumF[a] += vec.Floats[i]
				}
			case exec.AggMin, exec.AggMax:
				d := vec.DatumAt(i)
				if !acc.any[a] {
					acc.minMax[a] = d
				} else if c, err := types.Compare(d, acc.minMax[a]); err == nil {
					if (kind == exec.AggMin && c < 0) || (kind == exec.AggMax && c > 0) {
						acc.minMax[a] = d
					}
				}
			}
			acc.any[a] = true
		}
	}
}

// rows returns the partial rows (group key columns then agg values),
// matching what the generic exec.Agg emits so the coordinator-side merge is
// identical.
func (v *vecAgg) rows() []types.Row {
	p := v.plan
	// A global aggregate over an empty partition still emits its identity
	// row (count=0, sums NULL), mirroring exec.Agg.
	if len(v.order) == 0 && len(p.groupIdx) == 0 {
		v.group("", nil)
	}

	rows := make([]types.Row, 0, len(v.order))
	for _, key := range v.order {
		acc := v.groups[key]
		row := make(types.Row, 0, len(p.groupIdx)+len(p.aggKinds))
		row = append(row, acc.key...)
		for a, kind := range p.aggKinds {
			switch kind {
			case exec.AggCountStar, exec.AggCount:
				row = append(row, types.NewInt(acc.counts[a]))
			case exec.AggSum:
				switch {
				case !acc.any[a]:
					row = append(row, types.Null)
				case acc.isF[a]:
					row = append(row, types.NewFloat(acc.sumF[a]))
				default:
					row = append(row, types.NewInt(acc.sumI[a]))
				}
			case exec.AggMin, exec.AggMax:
				if !acc.any[a] {
					row = append(row, types.Null)
				} else {
					row = append(row, acc.minMax[a])
				}
			default:
				row = append(row, types.Null)
			}
		}
		rows = append(rows, row)
	}
	return rows
}
