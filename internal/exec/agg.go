package exec

import (
	"fmt"

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
	sumI    int64
	sumF    float64
	isFloat bool        // the sum has seen a DOUBLE and lives in sumF
	ext     types.Datum // running min or max
	seen    *keyIndex   // DISTINCT: keys of the values already folded
}

func (s *accum) addInt(kind AggKind, v int64) error {
	switch kind {
	case AggSum, AggAvg:
		if s.isFloat {
			s.sumF += float64(v)
		} else {
			s.sumI += v
		}
	case AggMin, AggMax:
		return s.addExtreme(kind, types.NewInt(v))
	}
	s.count++
	return nil
}

func (s *accum) addFloat(kind AggKind, v float64) error {
	switch kind {
	case AggSum, AggAvg:
		if !s.isFloat {
			s.sumF, s.isFloat = float64(s.sumI), true
		}
		s.sumF += v
	case AggMin, AggMax:
		return s.addExtreme(kind, types.NewFloat(v))
	}
	s.count++
	return nil
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

func (s *accum) result(kind AggKind) types.Datum {
	switch {
	case kind == AggCountStar || kind == AggCount:
		return types.NewInt(s.count)
	case s.count == 0:
		return types.Null
	case kind == AggMin || kind == AggMax:
		return s.ext
	case kind == AggAvg && s.isFloat:
		return types.NewFloat(s.sumF / float64(s.count))
	case kind == AggAvg:
		return types.NewFloat(float64(s.sumI) / float64(s.count))
	case s.isFloat:
		return types.NewFloat(s.sumF)
	default:
		return types.NewInt(s.sumI)
	}
}

// AggGroup is a handle on one group of an AggTable. The Add methods are the
// typed entry points a column vector folds into without boxing each value; a
// is the aggregate's position in the table's spec list and the value must
// not be NULL (AddDatum alone accepts and skips NULLs).
type AggGroup struct {
	t *AggTable
	n int // the group's number, in first-seen order
}

// acc returns the group's accumulator for aggregate a.
func (g AggGroup) acc(a int) *accum { return &g.t.accs[g.n*len(g.t.aggs)+a] }

// AddRow counts one row into count(*) aggregate a.
func (g AggGroup) AddRow(a int) { g.acc(a).count++ }

// AddInt folds a BIGINT into aggregate a.
func (g AggGroup) AddInt(a int, v int64) error { return g.acc(a).addInt(g.t.aggs[a].Kind, v) }

// AddFloat folds a DOUBLE into aggregate a.
func (g AggGroup) AddFloat(a int, v float64) error { return g.acc(a).addFloat(g.t.aggs[a].Kind, v) }

// AddDatum folds a value of any kind into aggregate a.
func (g AggGroup) AddDatum(a int, v types.Datum) error {
	return g.acc(a).addDatum(g.t.aggs[a].Kind, v)
}

// AggTable is the push-fed core of hash aggregation, shared by the
// coordinator's Agg operator and the data nodes' partial-aggregate sinks
// (as TopNHeap is for TopN): groups keyed by types.AppendKey of their
// group-by values, numbered in first-seen order, each holding one accumulator
// per aggregate. Rows go in whole through Push; column vectors go in through
// Group + the AggGroup Add methods. With no group-by expressions it yields
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
// evaluated only by Push; vector feeders use their positions alone.
func NewAggTable(groupBy []Expr, aggs []AggSpec) *AggTable {
	return &AggTable{groupBy: groupBy, aggs: aggs, vals: make(types.Row, len(groupBy))}
}

// Group returns the group whose encoded key (types.AppendKey over its
// group-by values, in order) is key, creating it on first sight with the key
// columns vals fills in.
func (t *AggTable) Group(key []byte, vals func(dst types.Row)) AggGroup {
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
	return AggGroup{t, n}
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
	g := t.Group(t.buf, func(dst types.Row) { copy(dst, t.vals) })
	for a, spec := range t.aggs {
		if spec.Kind == AggCountStar {
			g.AddRow(a)
			continue
		}
		v, err := spec.Arg.Eval(ctx, row)
		if err != nil {
			return err
		}
		if spec.Distinct && !v.IsNull() {
			s := g.acc(a)
			if s.seen == nil {
				s.seen = &keyIndex{}
			}
			t.buf = types.AppendKey(t.buf[:0], v)
			if _, isNew := s.seen.put(t.buf); !isNew {
				continue
			}
		}
		if err := g.AddDatum(a, v); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns one row per group in first-seen order: the group-by values,
// then the aggregate results. A global aggregate (no group-by) over no input
// still yields its identity row (counts 0, everything else NULL).
func (t *AggTable) Rows() []types.Row {
	if t.index.len() == 0 && len(t.groupBy) == 0 {
		t.Group(nil, func(types.Row) {})
	}
	nk, na := len(t.groupBy), len(t.aggs)
	rows := make([]types.Row, t.index.len())
	cells := make(types.Row, 0, len(rows)*(nk+na)) // every output row, back to back
	for n := range rows {
		cells = append(cells, t.keys[n*nk:(n+1)*nk]...)
		for a, spec := range t.aggs {
			cells = append(cells, t.accs[n*na+a].result(spec.Kind))
		}
		rows[n] = cells[len(cells)-nk-na : len(cells) : len(cells)]
	}
	return rows
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
	a.reset(table.Rows())
	return nil
}

// Close implements Operator.
func (a *Agg) Close() error { a.reset(nil); return nil }
