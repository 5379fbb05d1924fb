package exec

import (
	"fmt"
	"math"

	"repro/internal/types"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate kinds.
const (
	AggCountStar AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name.
func (k AggKind) String() string {
	switch k {
	case AggCountStar, AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "agg?"
	}
}

// AggSpec is one aggregate in an Agg operator.
type AggSpec struct {
	Kind     AggKind
	Arg      Expr // nil for count(*)
	Distinct bool
}

// accum is one aggregate's running state for one group — the only
// count/sum/min/max state machine in the engine. NULL inputs never reach it.
type accum struct {
	count   int64 // values folded in (rows, for count(*))
	sumI    int64 // a BIGINT sum, wrapped around into the BIGINT range
	carry   int64 // how often sumI wrapped: the sum is carry·2⁶⁴ + sumI
	sumF    float64
	isFloat bool        // the sum has seen a DOUBLE and lives in sumF
	ext     types.Datum // running min or max
	seen    *keyIndex   // DISTINCT: keys of the values already folded
}

// addInt folds a BIGINT into aggregate kind. It and addFloat are the row
// path's dispatch; a batch fold dispatches once per batch and calls the
// sum pieces below, each small enough to inline into its loop, or
// addExtreme.
func (s *accum) addInt(kind AggKind, v int64) error {
	switch kind {
	case AggSum, AggAvg:
		s.addIntSum(v)
	case AggMin, AggMax:
		return s.addExtreme(kind, types.NewInt(v))
	default:
		s.count++
	}
	return nil
}

// addIntSum folds a BIGINT into a sum or an average.
func (s *accum) addIntSum(v int64) {
	if s.isFloat {
		s.sumF += float64(v)
	} else {
		s.sumInt(v)
	}
	s.count++
}

// sumInt adds v to the BIGINT sum exactly: sumI wraps around and carry
// counts the wraps, so the sum does not depend on the order its values come
// in, and only the total is held to the BIGINT range (by result).
func (s *accum) sumInt(v int64) {
	sum := s.sumI + v
	if v > 0 && sum < s.sumI {
		s.carry++
	} else if v < 0 && sum > s.sumI {
		s.carry--
	}
	s.sumI = sum
}

// intSum returns the BIGINT sum as a DOUBLE.
func (s *accum) intSum() float64 { return float64(s.carry)*0x1p64 + float64(s.sumI) }

// splitSum takes from a BIGINT sum that does not fit the BIGINT range the
// largest piece of its sign that does; the sum keeps the rest.
func (s *accum) splitSum() int64 {
	if s.carry > 0 {
		s.sumInt(-math.MaxInt64)
		return math.MaxInt64
	}
	s.sumInt(math.MaxInt64) // the rest is the sum less MinInt64, that is plus 2⁶³
	s.sumInt(1)
	return math.MinInt64
}

// addFloat folds a DOUBLE into aggregate kind.
func (s *accum) addFloat(kind AggKind, v float64) error {
	switch kind {
	case AggSum, AggAvg:
		s.addFloatSum(v)
	case AggMin, AggMax:
		return s.addExtreme(kind, types.NewFloat(v))
	default:
		s.count++
	}
	return nil
}

// addFloatSum folds a DOUBLE into a sum or an average; a BIGINT sum so far
// becomes its DOUBLE value first.
func (s *accum) addFloatSum(v float64) {
	if !s.isFloat {
		s.sumF, s.isFloat = s.intSum(), true
	}
	s.sumF += v
	s.count++
}

func (s *accum) addExtreme(kind AggKind, v types.Datum) error {
	if s.count > 0 {
		c, err := types.Compare(v, s.ext)
		if err != nil {
			return err
		}
		if kind == AggMin && c >= 0 || kind == AggMax && c <= 0 {
			v = s.ext
		}
	}
	s.ext = v
	s.count++
	return nil
}

func (s *accum) addDatum(kind AggKind, v types.Datum) error {
	switch v.Kind() {
	case types.KindNull:
		return nil // SQL aggregates skip NULLs
	case types.KindInt:
		return s.addInt(kind, v.Int())
	case types.KindFloat:
		return s.addFloat(kind, v.Float())
	}
	switch kind {
	case AggSum, AggAvg:
		return fmt.Errorf("exec: %s over %s", kind, v.Kind())
	case AggMin, AggMax:
		return s.addExtreme(kind, v)
	}
	s.count++
	return nil
}

// result returns the aggregate's value; a BIGINT sum whose total does not
// fit the BIGINT range fails. An average is a DOUBLE, so it never does.
func (s *accum) result(kind AggKind) (types.Datum, error) {
	switch {
	case kind == AggCountStar || kind == AggCount:
		return types.NewInt(s.count), nil
	case s.count == 0:
		return types.Null, nil
	case kind == AggMin || kind == AggMax:
		return s.ext, nil
	case kind == AggAvg && s.isFloat:
		return types.NewFloat(s.sumF / float64(s.count)), nil
	case kind == AggAvg:
		return types.NewFloat(s.intSum() / float64(s.count)), nil
	case s.isFloat:
		return types.NewFloat(s.sumF), nil
	case s.carry != 0:
		return types.Null, fmt.Errorf("exec: %s out of BIGINT range", kind)
	default:
		return types.NewInt(s.sumI), nil
	}
}

// AggTable is the push-fed core of hash aggregation, shared by the
// coordinator's Agg operator and the data nodes' partial-aggregate sinks
// (as TopNHeap is for TopN): groups keyed by types.AppendKey of their
// group-by values, numbered in first-seen order, each holding one accumulator
// per aggregate. Rows go in whole through Push; column batches go in through
// GroupOf and the Fold methods. With no group-by expressions it yields
// exactly one row, zero-row input included.
type AggTable struct {
	groupBy []Expr
	aggs    []AggSpec
	index   keyIndex
	keys    types.Row // group n's group-by values at [n*len(groupBy):]
	accs    []accum   // group n's accumulators at [n*len(aggs):]
	buf     []byte    // reused key bytes
	vals    types.Row // reused group-by values of the row being pushed
}

// NewAggTable returns an empty table. groupBy and every spec's Arg are
// evaluated only by Push; batch feeders use their positions alone.
func NewAggTable(groupBy []Expr, aggs []AggSpec) *AggTable {
	return &AggTable{groupBy: groupBy, aggs: aggs, vals: make(types.Row, len(groupBy))}
}

// GroupOf returns the number of the group whose encoded key (types.AppendKey
// over its group-by values, in order) is key, creating it on first sight
// with the key columns vals fills in. Groups are numbered 0, 1, 2, … in
// first-seen order; a global aggregate's one group is 0.
func (t *AggTable) GroupOf(key []byte, vals func(dst types.Row)) int {
	n, isNew := t.index.put(key)
	if isNew {
		t.keys, t.accs = room(t.keys, len(t.groupBy)), room(t.accs, len(t.aggs))
		for range t.groupBy {
			t.keys = append(t.keys, types.Null)
		}
		vals(t.keys[n*len(t.groupBy):])
		for range t.aggs {
			t.accs = append(t.accs, accum{})
		}
	}
	return n
}

// Push folds one input row into its group.
func (t *AggTable) Push(ctx *Ctx, row types.Row) error {
	for i, e := range t.groupBy {
		v, err := e.Eval(ctx, row)
		if err != nil {
			return err
		}
		t.vals[i] = v
	}
	t.buf = t.vals.AppendKey(t.buf[:0])
	n := t.GroupOf(t.buf, func(dst types.Row) { copy(dst, t.vals) })
	accs := t.accs[n*len(t.aggs):]
	for a, spec := range t.aggs {
		s := &accs[a]
		if spec.Kind == AggCountStar {
			s.count++
			continue
		}
		v, err := spec.Arg.Eval(ctx, row)
		if err != nil {
			return err
		}
		if spec.Distinct && !v.IsNull() {
			if s.seen == nil {
				s.seen = &keyIndex{}
			}
			t.buf = types.AppendKey(t.buf[:0], v)
			if _, isNew := s.seen.put(t.buf); !isNew {
				continue
			}
		}
		if err := s.addDatum(spec.Kind, v); err != nil {
			return err
		}
	}
	return nil
}

// The Fold methods are the batch feeders' way in: one aggregate over a whole
// batch of column values in one loop, after GroupOf has numbered the
// batch's groups. Row i of the batch takes part where sel[i] is set, in
// group groups[i] (group 0 throughout when groups is nil, as in a global
// aggregate); a value slice is indexed like sel, and nulls, nil when there
// are none, marks the NULLs to skip. A group's values fold in row order, so
// a DOUBLE sum adds up exactly as pushed rows would. None of them folds a
// DISTINCT aggregate. On failure a fold returns the batch row that failed,
// so a feeder folding several aggregates reports the failure a row-by-row
// fold would have met first.

// accCol is one aggregate's accumulators: group n's is accs[n*stride]. A
// fold loop keeps it in registers, where the table's own fields would be
// loaded again for every row.
type accCol struct {
	accs   []accum
	stride int
}

// col returns aggregate a's accumulators. Before the first group exists
// there are none, and no row is selected to fold.
func (t *AggTable) col(a int) accCol { return accCol{t.accs[min(a, len(t.accs)):], len(t.aggs)} }

// at returns batch row i's accumulator.
func (c accCol) at(groups []int32, i int) *accum {
	if groups == nil {
		return &c.accs[0]
	}
	return &c.accs[int(groups[i])*c.stride]
}

// FoldRows counts the selected rows into count(*) aggregate a.
func (t *AggTable) FoldRows(a int, sel []bool, groups []int32) { t.col(a).count(sel, groups, nil) }

// FoldInts folds BIGINT values into aggregate a, in the one loop its kind
// takes.
func (t *AggTable) FoldInts(a int, sel []bool, groups []int32, vals []int64, nulls []bool) (int, error) {
	switch c, kind := t.col(a), t.aggs[a].Kind; kind {
	case AggSum, AggAvg:
		c.sumInts(sel, groups, vals, nulls)
	case AggMin, AggMax:
		return c.extremeInts(kind, sel, groups, vals, nulls)
	default:
		c.count(sel, groups, nulls)
	}
	return 0, nil
}

// FoldFloats folds DOUBLE values into aggregate a, in the one loop its kind
// takes.
func (t *AggTable) FoldFloats(a int, sel []bool, groups []int32, vals []float64, nulls []bool) (int, error) {
	switch c, kind := t.col(a), t.aggs[a].Kind; kind {
	case AggSum, AggAvg:
		c.sumFloats(sel, groups, vals, nulls)
	case AggMin, AggMax:
		return c.extremeFloats(kind, sel, groups, vals, nulls)
	default:
		c.count(sel, groups, nulls)
	}
	return 0, nil
}

// The loops below each fold one kind of aggregate over a batch. Row i
// takes part where sel[i] is set and nulls, if not nil, is not. A count or
// a BIGINT sum over grouped rows with no NULL — the common case — takes a
// loop that checks nothing per row but sel: the compiler then keeps every
// slice in a register and drops the bounds checks, which halves its time.

func (c accCol) count(sel []bool, groups []int32, nulls []bool) {
	if groups != nil && nulls == nil {
		groups = groups[:len(sel)]
		for i, ok := range sel {
			if ok {
				c.accs[int(groups[i])*c.stride].count++
			}
		}
		return
	}
	for i, ok := range sel {
		if ok && (nulls == nil || !nulls[i]) {
			c.at(groups, i).count++
		}
	}
}

func (c accCol) sumInts(sel []bool, groups []int32, vals []int64, nulls []bool) {
	vals = vals[:len(sel)]
	if groups != nil && nulls == nil {
		groups = groups[:len(sel)]
		for i, ok := range sel {
			if ok {
				c.accs[int(groups[i])*c.stride].addIntSum(vals[i])
			}
		}
		return
	}
	for i, ok := range sel {
		if ok && (nulls == nil || !nulls[i]) {
			c.at(groups, i).addIntSum(vals[i])
		}
	}
}

func (c accCol) sumFloats(sel []bool, groups []int32, vals []float64, nulls []bool) {
	vals = vals[:len(sel)]
	for i, ok := range sel {
		if ok && (nulls == nil || !nulls[i]) {
			c.at(groups, i).addFloatSum(vals[i])
		}
	}
}

func (c accCol) extremeInts(kind AggKind, sel []bool, groups []int32, vals []int64, nulls []bool) (int, error) {
	for i, ok := range sel {
		if !ok || nulls != nil && nulls[i] {
			continue
		}
		if err := c.at(groups, i).addExtreme(kind, types.NewInt(vals[i])); err != nil {
			return i, err
		}
	}
	return 0, nil
}

func (c accCol) extremeFloats(kind AggKind, sel []bool, groups []int32, vals []float64, nulls []bool) (int, error) {
	for i, ok := range sel {
		if !ok || nulls != nil && nulls[i] {
			continue
		}
		if err := c.at(groups, i).addExtreme(kind, types.NewFloat(vals[i])); err != nil {
			return i, err
		}
	}
	return 0, nil
}

// FoldDatums folds values of any kind into aggregate a; at returns batch row
// i's value, NULL included.
func (t *AggTable) FoldDatums(a int, sel []bool, groups []int32, at func(i int) types.Datum) (int, error) {
	kind, c := t.aggs[a].Kind, t.col(a)
	for i, ok := range sel {
		if !ok {
			continue
		}
		if err := c.at(groups, i).addDatum(kind, at(i)); err != nil {
			return i, err
		}
	}
	return 0, nil
}

// Rows returns one row per group in first-seen order: the group-by values,
// then the aggregate results. A global aggregate (no group-by) over no input
// still yields its identity row (counts 0, everything else NULL). A BIGINT
// sum whose total does not fit the BIGINT range fails.
func (t *AggTable) Rows() ([]types.Row, error) { return t.rows(false) }

// PartialRows returns the rows a data node ships for the coordinator's Agg
// to merge: Rows, except that a BIGINT sum past the BIGINT range is not an
// error, since the partial sums of other nodes may bring the total back. Its
// group's row carries the part of it within range, and rows right after it
// carry the rest in BIGINT pieces, with the same group-by values and NULL
// for every other aggregate, which the merge skips. Such a sum takes no more
// extra rows than it had values.
func (t *AggTable) PartialRows() []types.Row {
	rows, _ := t.rows(true) // a partial sum is split, never out of range
	return rows
}

func (t *AggTable) rows(partial bool) ([]types.Row, error) {
	if t.index.len() == 0 && len(t.groupBy) == 0 {
		t.GroupOf(nil, func(types.Row) {})
	}
	nk, na := len(t.groupBy), len(t.aggs)
	rows := make([]types.Row, 0, t.index.len())
	cells := make(types.Row, 0, t.index.len()*(nk+na)) // every group's row, back to back
	var pieces []types.Row                             // the current group's rest of a sum
	for n := range t.index.len() {
		keys := t.keys[n*nk : (n+1)*nk]
		cells = append(cells, keys...)
		for a, spec := range t.aggs {
			s := t.accs[n*na+a]
			for partial && spec.Kind == AggSum && s.carry != 0 && !s.isFloat {
				piece := make(types.Row, nk+na)
				copy(piece, keys)
				piece[nk+a] = types.NewInt(s.splitSum())
				pieces = append(pieces, piece)
			}
			d, err := s.result(spec.Kind)
			if err != nil {
				return nil, err
			}
			cells = append(cells, d)
		}
		rows = append(rows, cells[len(cells)-nk-na:len(cells):len(cells)])
		rows, pieces = append(rows, pieces...), pieces[:0]
	}
	return rows, nil
}

// Agg is a hash aggregation: output columns are the group-by values
// followed by the aggregate results. With no group-by expressions it emits
// exactly one row (aggregates over the whole input, zero-row input
// included).
type Agg struct {
	Child   Operator
	GroupBy []Expr
	Aggs    []AggSpec
	Out     *types.Schema

	rowCursor
}

// Schema implements Operator.
func (a *Agg) Schema() *types.Schema { return a.Out }

// Open implements Operator.
func (a *Agg) Open(ctx *Ctx) error {
	defer a.Child.Close()
	table := NewAggTable(a.GroupBy, a.Aggs)
	if err := each(ctx, a.Child, func(row types.Row) error { return table.Push(ctx, row) }); err != nil {
		return err
	}
	rows, err := table.Rows()
	if err != nil {
		return err
	}
	a.reset(rows)
	return nil
}

// Close implements Operator.
func (a *Agg) Close() error { a.reset(nil); return nil }
