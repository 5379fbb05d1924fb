package exec

import "repro/internal/types"

// JoinType enumerates supported join types.
type JoinType uint8

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	CrossJoin
)

// AppendKeys appends the equality key (types.AppendKey, part by part) of
// exprs evaluated over row; null reports that some part was NULL — a join
// key that can never match, a legitimate group of its own for GROUP BY.
func AppendKeys(dst []byte, ctx *Ctx, exprs []Expr, row types.Row) (key []byte, null bool, err error) {
	for _, e := range exprs {
		v, err := e.Eval(ctx, row)
		if err != nil {
			return dst, false, err
		}
		null = null || v.IsNull()
		dst = types.AppendKey(dst, v)
	}
	return dst, null, nil
}

// JoinTable is the build side of a hash join, fed a row at a time — by the
// HashJoin / NestedLoopJoin operators on the coordinator and by the
// co-located, broadcast and shuffle join fragments on the data nodes alike.
// Rows whose key has a NULL part are dropped: they can never match. With no
// key expressions every row shares the empty key, which is a nested-loop
// join's "every build row meets every probe row". Once built it is read-only
// and may be probed from several goroutines, each through its own JoinProbe.
type JoinTable struct {
	keys  []Expr
	index keyIndex
	// rows are the kept build rows in arrival order; the rows of one key are
	// chained in that order: head and tail, per key entry, are its first and
	// last row, next[i] the row after row i (-1: none).
	rows       []types.Row
	next       []int32
	head, tail []int32
	offered    int // rows added, NULL-keyed included
	buf        []byte
}

// NewJoinTable returns an empty build table keyed by keys (evaluated over
// build rows).
func NewJoinTable(keys []Expr) *JoinTable { return &JoinTable{keys: keys} }

// Add offers one build row. The row is retained by reference.
func (t *JoinTable) Add(ctx *Ctx, row types.Row) error {
	t.offered++
	key, null, err := AppendKeys(t.buf[:0], ctx, t.keys, row)
	t.buf = key
	if err != nil || null {
		return err
	}
	i := int32(len(t.rows))
	t.rows, t.next = append(room(t.rows, 1), row), append(room(t.next, 1), -1)
	if e, isNew := t.index.put(key); isNew {
		t.head, t.tail = append(room(t.head, 1), i), append(room(t.tail, 1), i)
	} else {
		t.next[t.tail[e]], t.tail[e] = i, i
	}
	return nil
}

// fill streams op (opened here, closed by its owner) into the table.
func (t *JoinTable) fill(ctx *Ctx, op Operator) error {
	return each(ctx, op, func(row types.Row) error { return t.Add(ctx, row) })
}

// Bloom builds a bloom filter over the part-th key of every kept build row
// (NULL-keyed rows were never kept: nothing to admit).
func (t *JoinTable) Bloom(ctx *Ctx, part int) (*Bloom, error) {
	bf := NewBloom(t.offered)
	for _, r := range t.rows {
		v, err := t.keys[part].Eval(ctx, r)
		if err != nil {
			return nil, err
		}
		bf.Add(v)
	}
	return bf, nil
}

// JoinProbe is one prober's cursor over a built JoinTable: Start positions
// it on a probe row, Next then yields that row's joined rows (probe columns,
// then build columns) one at a time. It is the single place the key lookup,
// the residual filter, joined-row construction and left-outer NULL extension
// happen.
type JoinProbe struct {
	table      *JoinTable
	typ        JoinType
	keys       []Expr
	residual   Expr
	buildWidth int
	buf        []byte

	cur     types.Row
	at      int32 // the next build row of cur's key to join (-1: none left)
	active  bool  // cur still owes rows (matches, or its left-outer extension)
	matched bool
}

// Probe returns a cursor joining probe rows keyed by keys (evaluated over
// probe rows) against t. residual, if non-nil, filters joined rows;
// buildWidth is the build side's column count (what a LeftJoin pads
// unmatched probe rows with).
func (t *JoinTable) Probe(typ JoinType, keys []Expr, residual Expr, buildWidth int) *JoinProbe {
	return &JoinProbe{table: t, typ: typ, keys: keys, residual: residual, buildWidth: buildWidth, at: -1}
}

// Start positions the cursor on probe row r. A key with a NULL part finds
// nothing without being asked: the table holds no such key.
func (p *JoinProbe) Start(ctx *Ctx, r types.Row) error {
	key, _, err := AppendKeys(p.buf[:0], ctx, p.keys, r)
	p.buf = key
	if err != nil {
		return err
	}
	p.cur, p.at, p.active, p.matched = r, -1, true, false
	if e, ok := p.table.index.find(key); ok {
		p.at = p.table.head[e]
	}
	return nil
}

// Next returns the current probe row's next joined row; ok is false once it
// has none left (and before the first Start).
func (p *JoinProbe) Next(ctx *Ctx) (row types.Row, ok bool, err error) {
	for p.at >= 0 {
		b := p.table.rows[p.at]
		p.at = p.table.next[p.at]
		joined := append(append(make(types.Row, 0, len(p.cur)+len(b)), p.cur...), b...)
		if p.residual != nil {
			pass, err := EvalBool(p.residual, ctx, joined)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				continue
			}
		}
		p.matched = true
		return joined, true, nil
	}
	if !p.active {
		return nil, false, nil
	}
	p.active = false
	if p.typ == LeftJoin && !p.matched {
		// Left outer: the unmatched probe row, NULL-extended.
		return append(append(make(types.Row, 0, len(p.cur)+p.buildWidth), p.cur...), make(types.Row, p.buildWidth)...), true, nil
	}
	return nil, false, nil
}

// pull is the cursor's Volcano face: the next joined row, drawing probe
// rows from left as the current one runs out.
func (p *JoinProbe) pull(ctx *Ctx, left Operator) (types.Row, error) {
	for {
		if row, ok, err := p.Next(ctx); ok || err != nil {
			return row, err
		}
		row, err := left.Next(ctx)
		if err != nil {
			return nil, err
		}
		if err := p.Start(ctx, row); err != nil {
			return nil, err
		}
	}
}

// NestedLoopJoin joins every left row against the whole (materialized)
// right side. Used for non-equi conditions and cross joins.
type NestedLoopJoin struct {
	Type        JoinType
	Left, Right Operator
	On          Expr // nil for cross join
	out         *types.Schema

	probe *JoinProbe
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *types.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Ctx) error {
	table := NewJoinTable(nil)
	if err := table.fill(ctx, j.Right); err != nil {
		return err
	}
	j.probe = table.Probe(j.Type, nil, j.On, j.Right.Schema().Len())
	return j.Left.Open(ctx)
}

// Next implements Operator.
func (j *NestedLoopJoin) Next(ctx *Ctx) (types.Row, error) { return j.probe.pull(ctx, j.Left) }

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.probe = nil
	return closeBoth(j.Left, j.Right)
}

func closeBoth(left, right Operator) error {
	err1 := left.Close()
	err2 := right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// HashJoin is an equi-join: build a hash table on the right side keyed by
// RightKeys, probe with LeftKeys. ExtraOn, if set, is evaluated over the
// combined row as a residual filter.
type HashJoin struct {
	Type        JoinType
	Left, Right Operator
	LeftKeys    []Expr
	RightKeys   []Expr
	ExtraOn     Expr
	// Bloom, when set, receives a bloom filter over the build side's
	// BloomKey-th key before the probe side opens — sideways information
	// passing so an NDP probe-side scan can drop non-matching rows on the
	// DN (see plan.ScanPushdown).
	Bloom    *BloomHandle
	BloomKey int
	// Dist, when set by the planner, is a distributed execution of this
	// join (co-located / broadcast / shuffle fragments built by the
	// engine). The join delegates to it wholesale and never opens its
	// children — they stay attached only so planning passes (projection
	// pushdown) can keep analyzing the tree.
	Dist Operator
	out  *types.Schema

	probe *JoinProbe
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema {
	if j.out == nil {
		j.out = j.Left.Schema().Concat(j.Right.Schema())
	}
	return j.out
}

// Open implements Operator. The build side streams directly into the hash
// table — no intermediate row slice — before the probe side opens, so a
// sideways bloom filter (j.Bloom) is always published before any
// probe-side scan fragment starts. The bloom is built only after the whole
// build side has been consumed without error: a failed build must
// propagate its error instead of publishing a filter that probe fragments
// would wait on.
func (j *HashJoin) Open(ctx *Ctx) error {
	if j.Dist != nil {
		return j.Dist.Open(ctx)
	}
	table := NewJoinTable(j.RightKeys)
	if err := table.fill(ctx, j.Right); err != nil {
		return err
	}
	if j.Bloom != nil {
		bf, err := table.Bloom(ctx, j.BloomKey)
		if err != nil {
			return err
		}
		j.Bloom.Set(bf)
	}
	j.probe = table.Probe(j.Type, j.LeftKeys, j.ExtraOn, j.Right.Schema().Len())
	return j.Left.Open(ctx)
}

// Next implements Operator.
func (j *HashJoin) Next(ctx *Ctx) (types.Row, error) {
	if j.Dist != nil {
		return j.Dist.Next(ctx)
	}
	return j.probe.pull(ctx, j.Left)
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	if j.Dist != nil {
		return j.Dist.Close()
	}
	j.probe = nil
	return closeBoth(j.Left, j.Right)
}
