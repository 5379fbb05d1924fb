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

// vecPlan describes one fragment's vectorizable partial aggregate:
// positions are into the fragment program's batch-scan projection, not the
// table schema.
type vecPlan struct {
	groupIdx []int  // projection positions of the group-by columns
	aggIdx   []int  // projection position per agg (-1 for count(*))
	key      []byte // reused group-key bytes
}

// buildVecPlan inspects the compiled aggregate against the program that
// will scan for it; ok is false when any group/agg expression is not a bare
// reference to a scanned column (those aggregate row by row instead).
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

// addBatch folds the selected rows of b into their groups in t, straight
// off the vectors: the group key is encoded from the vector cells, group-by
// datums are materialized only for a group's first row, and BIGINT / DOUBLE
// arguments reach the accumulators unboxed.
func (p *vecPlan) addBatch(t *exec.AggTable, b *colstore.Batch, sel []bool) error {
	for i := 0; i < b.N; i++ {
		if !sel[i] {
			continue
		}
		p.key = p.key[:0]
		for _, gi := range p.groupIdx {
			p.key = types.AppendKey(p.key, b.Cols[gi].DatumAt(i))
		}
		g := t.Group(p.key, func(vals types.Row) {
			for k, gi := range p.groupIdx {
				vals[k] = b.Cols[gi].DatumAt(i)
			}
		})
		for a, at := range p.aggIdx {
			if at < 0 {
				g.AddRow(a)
				continue
			}
			vec := b.Cols[at]
			if vec.IsNull(i) {
				continue
			}
			var err error
			switch vec.Kind {
			case types.KindInt:
				err = g.AddInt(a, vec.Ints[i])
			case types.KindFloat:
				err = g.AddFloat(a, vec.Floats[i])
			default:
				err = g.AddDatum(a, vec.DatumAt(i))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
