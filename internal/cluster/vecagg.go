package cluster

import (
	"sync"

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
	groupIdx []int       // projection positions of the group-by columns
	aggIdx   []int       // projection position per agg (-1 for count(*))
	key      []byte      // reused group-key bytes
	scratch  *vecScratch // borrowed on the first grouped batch; nil for a global aggregate
}

// vecScratch is a grouped fragment's scratch: the group number of each row
// of the batch being folded, and the memo. A fragment borrows one from
// scratchPool for its whole scan and returns it, memo emptied, once its
// groups are read out, so steady-state statements allocate none.
type vecScratch struct {
	groups []int32
	memo   [memoSlots]memoSlot
}

var scratchPool = sync.Pool{New: func() any { return new(vecScratch) }}

// memoSlot caches the group number the AggTable gave a single BIGINT group
// column's value v. Group identity stays the types.AppendKey bytes: a slot
// only remembers a number the table assigned, and is trusted only when it
// holds v itself. Values that share a slot evict each other, and a miss
// takes the key index.
type memoSlot struct {
	v int64
	g int32 // group number + 1; 0 marks an empty slot
}

// The memo has 256 slots: enough for the few groups a partial aggregate
// usually has, small enough to empty for every fragment.
const (
	memoBits  = 8
	memoSlots = 1 << memoBits
)

// buildVecPlan inspects the compiled aggregate against the program that
// will scan for it; ok is false when any group/agg expression is not a bare
// reference to a scanned column, or an aggregate is DISTINCT (those
// aggregate row by row instead).
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
		if !ok || spec.Distinct {
			return nil, false
		}
		p.aggIdx = append(p.aggIdx, at)
	}
	return p, true
}

// addBatch folds the selected rows of b into their groups in t in two
// passes: the first numbers every selected row's group once, the second
// folds each aggregate over the whole batch in one loop chosen by its
// column's kind — BIGINT and DOUBLE values unboxed, other kinds as datums.
// Of several failures it returns the one a row-by-row fold meets first.
func (p *vecPlan) addBatch(t *exec.AggTable, b *colstore.Batch, sel []bool) error {
	groups := p.number(t, b, sel)
	failedAt, err := b.N, error(nil)
	for a, at := range p.aggIdx {
		if at < 0 {
			t.FoldRows(a, sel, groups)
			continue
		}
		var i int
		var e error
		switch vec := b.Cols[at]; vec.Kind {
		case types.KindInt:
			i, e = t.FoldInts(a, sel, groups, vec.Ints, vec.Nulls)
		case types.KindFloat:
			i, e = t.FoldFloats(a, sel, groups, vec.Floats, vec.Nulls)
		default:
			i, e = t.FoldDatums(a, sel, groups, vec.DatumAt)
		}
		if e != nil && i < failedAt {
			failedAt, err = i, e
		}
	}
	return err
}

// number returns the group number of every selected row of b, indexed by
// batch row, or nil for a global aggregate, whose every row is in group 0.
// A single BIGINT group column is numbered through the memo; NULL keys,
// memo misses and every other shape look their types.AppendKey bytes up.
func (p *vecPlan) number(t *exec.AggTable, b *colstore.Batch, sel []bool) []int32 {
	if len(p.groupIdx) == 0 {
		t.GroupOf(nil, func(types.Row) {})
		return nil
	}
	if p.scratch == nil {
		p.scratch = scratchPool.Get().(*vecScratch)
	}
	s := p.scratch
	if cap(s.groups) < b.N {
		s.groups = make([]int32, b.N)
	}
	groups := s.groups[:b.N]
	vec := b.Cols[p.groupIdx[0]]
	if len(p.groupIdx) > 1 || vec.Kind != types.KindInt {
		for i, ok := range sel {
			if ok {
				groups[i] = p.lookup(t, b, i)
			}
		}
		return groups
	}
	for i, ok := range sel {
		switch {
		case !ok:
		case vec.IsNull(i):
			groups[i] = p.lookup(t, b, i)
		default:
			v := vec.Ints[i]
			m := &s.memo[memoSlotOf(v)]
			if m.g == 0 || m.v != v {
				*m = memoSlot{v: v, g: p.lookup(t, b, i) + 1}
			}
			groups[i] = m.g - 1
		}
	}
	return groups
}

// release returns the fragment's scratch to the pool, its memo emptied.
func (p *vecPlan) release() {
	if s := p.scratch; s != nil {
		s.memo = [memoSlots]memoSlot{}
		scratchPool.Put(s)
		p.scratch = nil
	}
}

// lookup numbers batch row i's group by its types.AppendKey bytes.
func (p *vecPlan) lookup(t *exec.AggTable, b *colstore.Batch, i int) int32 {
	p.key = p.key[:0]
	for _, gi := range p.groupIdx {
		p.key = types.AppendKey(p.key, b.Cols[gi].DatumAt(i))
	}
	return int32(t.GroupOf(p.key, func(vals types.Row) {
		for k, gi := range p.groupIdx {
			vals[k] = b.Cols[gi].DatumAt(i)
		}
	}))
}

// memoSlotOf picks v's memo slot by Fibonacci hashing: the top bits of
// v × 2^64/φ, which every bit of v can change, so keys that differ only in
// their low bits or only in their high bits spread alike.
func memoSlotOf(v int64) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 >> (64 - memoBits) }
