package exec

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/types"
)

// Operator is a Volcano-style iterator. Next returns io.EOF when exhausted.
type Operator interface {
	Schema() *types.Schema
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (types.Row, error)
	Close() error
}

// Sized is implemented by operators that know their output row count once
// Open has run (materializing sources); Collect uses it to pre-size its
// result slice. RowCount returns -1 when the count is unknown.
type Sized interface {
	RowCount() int
}

// rowCount is op's RowCount when it is Sized, else -1.
func rowCount(op Operator) int {
	if s, ok := op.(Sized); ok {
		return s.RowCount()
	}
	return -1
}

// Collect opens, drains and closes op.
func Collect(ctx *Ctx, op Operator) ([]types.Row, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []types.Row
	if n := rowCount(op); n > 0 {
		out = make([]types.Row, 0, n)
	}
	for {
		row, err := op.Next(ctx)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
}

// each opens op and hands fn every row it yields; the blocking operators
// (hash-join build, aggregation) consume their input through it. Closing op
// stays with its owner.
func each(ctx *Ctx, op Operator, fn func(types.Row) error) error {
	if err := op.Open(ctx); err != nil {
		return err
	}
	for {
		row, err := op.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// ---------------------------------------------------------------------------
// Values / Source
// ---------------------------------------------------------------------------

// rowCursor replays a materialized row set: the Next / RowCount half of
// every operator that computes its whole output at Open.
type rowCursor struct {
	rows []types.Row
	pos  int
}

func (c *rowCursor) reset(rows []types.Row) { c.rows, c.pos = rows, 0 }

// Next implements Operator.
func (c *rowCursor) Next(*Ctx) (types.Row, error) {
	if c.pos >= len(c.rows) {
		return nil, io.EOF
	}
	r := c.rows[c.pos]
	c.pos++
	return r, nil
}

// RowCount implements Sized.
func (c *rowCursor) RowCount() int { return len(c.rows) }

// Values replays a fixed row set (VALUES lists, gathered remote results,
// CTE materializations).
type Values struct {
	schema *types.Schema
	rowCursor
}

// NewValues builds a Values operator.
func NewValues(schema *types.Schema, rows []types.Row) *Values {
	return &Values{schema: schema, rowCursor: rowCursor{rows: rows}}
}

// Schema implements Operator.
func (v *Values) Schema() *types.Schema { return v.schema }

// Open implements Operator.
func (v *Values) Open(*Ctx) error { v.pos = 0; return nil }

// Close implements Operator.
func (v *Values) Close() error { return nil }

// Source adapts a callback-style scan (storage.Table.Scan and friends) to
// an Operator by materializing at Open. ScanFn is re-invoked on every Open,
// so the operator can be re-executed (correlated subplans).
type Source struct {
	Name   string
	schema *types.Schema
	ScanFn func(emit func(types.Row) bool)
	rowCursor
}

// NewSource builds a Source over scan.
func NewSource(name string, schema *types.Schema, scan func(emit func(types.Row) bool)) *Source {
	return &Source{Name: name, schema: schema, ScanFn: scan}
}

// Schema implements Operator.
func (s *Source) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *Source) Open(*Ctx) error {
	s.reset(s.rows[:0])
	s.ScanFn(func(r types.Row) bool {
		s.rows = append(s.rows, r)
		return true
	})
	return nil
}

// Close implements Operator. The row buffer keeps its capacity so
// re-executed sources (correlated subplans Open/Close per outer row) do not
// reallocate it every iteration.
func (s *Source) Close() error { s.rows = s.rows[:0]; return nil }

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

// Filter passes rows whose predicate evaluates to true (NULL counts as
// false, per SQL).
type Filter struct {
	Child Operator
	Pred  Expr
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error { return f.Child.Open(ctx) }

// Next implements Operator.
func (f *Filter) Next(ctx *Ctx) (types.Row, error) {
	for {
		row, err := f.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		ok, err := EvalBool(f.Pred, ctx, row)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// EvalBool evaluates a predicate with SQL semantics (NULL -> false).
func EvalBool(e Expr, ctx *Ctx, row types.Row) (bool, error) {
	v, err := e.Eval(ctx, row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Kind() != types.KindBool {
		return false, fmt.Errorf("exec: predicate evaluated to %s, want BOOL", v.Kind())
	}
	return v.Bool(), nil
}

// Project computes output expressions per row.
type Project struct {
	Child Operator
	Exprs []Expr
	Out   *types.Schema
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.Out }

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error { return p.Child.Open(ctx) }

// Next implements Operator.
func (p *Project) Next(ctx *Ctx) (types.Row, error) {
	row, err := p.Child.Next(ctx)
	if err != nil {
		return nil, err
	}
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(ctx, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// RowCount implements Sized: one output row per input row.
func (p *Project) RowCount() int { return rowCount(p.Child) }

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// ---------------------------------------------------------------------------
// Sort / Limit / Distinct
// ---------------------------------------------------------------------------

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort materializes and sorts its input, stably: ties keep their input
// order. It ranks 16-byte (prefix, position) entries through keyOrder.
type Sort struct {
	Child Operator
	Keys  []SortKey

	rowCursor
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	rows, err := Collect(ctx, s.Child)
	if err != nil {
		return err
	}
	o := keyOrder{keys: s.Keys, ctx: ctx}
	ents, err := o.sort(rows, make([]sortEntry, len(rows)))
	if err != nil {
		return err
	}
	sorted := make([]types.Row, len(rows))
	for i, e := range ents {
		sorted[i] = rows[e.pos]
	}
	s.reset(sorted)
	return nil
}

// Close implements Operator.
func (s *Sort) Close() error { s.reset(nil); return nil }

// Limit implements LIMIT/OFFSET. Limit < 0 means unlimited.
type Limit struct {
	Child  Operator
	Count  int64
	Offset int64

	skipped int64
	emitted int64
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.skipped, l.emitted = 0, 0
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next(ctx *Ctx) (types.Row, error) {
	for l.skipped < l.Offset {
		if _, err := l.Child.Next(ctx); err != nil {
			return nil, err
		}
		l.skipped++
	}
	if l.Count >= 0 && l.emitted >= l.Count {
		return nil, io.EOF
	}
	row, err := l.Child.Next(ctx)
	if err != nil {
		return nil, err
	}
	l.emitted++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Operator
	seen  keyIndex
	buf   []byte
}

// Schema implements Operator.
func (d *Distinct) Schema() *types.Schema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = keyIndex{}
	return d.Child.Open(ctx)
}

// Next implements Operator.
func (d *Distinct) Next(ctx *Ctx) (types.Row, error) {
	for {
		row, err := d.Child.Next(ctx)
		if err != nil {
			return nil, err
		}
		d.buf = row.AppendKey(d.buf[:0])
		if _, isNew := d.seen.put(d.buf); isNew {
			return row, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error { d.seen = keyIndex{}; return d.Child.Close() }

// Concat streams its children in order (UNION ALL).
type Concat struct {
	Children []Operator
	Out      *types.Schema
	cur      int
}

// Schema implements Operator.
func (c *Concat) Schema() *types.Schema { return c.Out }

// Open implements Operator.
func (c *Concat) Open(ctx *Ctx) error {
	c.cur = 0
	if len(c.Children) == 0 {
		return nil
	}
	return c.Children[0].Open(ctx)
}

// Next implements Operator.
func (c *Concat) Next(ctx *Ctx) (types.Row, error) {
	for c.cur < len(c.Children) {
		row, err := c.Children[c.cur].Next(ctx)
		if err == io.EOF {
			c.Children[c.cur].Close()
			c.cur++
			if c.cur < len(c.Children) {
				if err := c.Children[c.cur].Open(ctx); err != nil {
					return nil, err
				}
			}
			continue
		}
		return row, err
	}
	return nil, io.EOF
}

// Close implements Operator.
func (c *Concat) Close() error {
	for i := c.cur; i < len(c.Children); i++ {
		c.Children[i].Close()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Instrumentation
// ---------------------------------------------------------------------------

// Counted wraps an operator as one step of the learning optimizer (paper
// §II-C "captures actual execution statistics"): the planner names it by
// its canonical step text and estimate; the plan store and EXPLAIN ANALYZE
// read its count.
type Counted struct {
	Child Operator
	// StepText is the canonical logical step definition this operator
	// implements; set by the planner.
	StepText string
	// EstimatedRows is the optimizer's cardinality estimate for this step.
	EstimatedRows float64
	// ActualRows is the step's row count in its most recent execution: the
	// rows that pass its predicate on the data nodes, before any bloom probe,
	// TopN or LIMIT (Select), if OnDataNodes; else the rows Next returned.
	ActualRows int64
	// OnDataNodes marks a scan counted by its data-node programs, which run
	// even where this operator does not (a DN-side join's input, the scan
	// under a pushed aggregate); Next does not count.
	OnDataNodes bool
	// Cut marks a count short of the step's output — a data-node program
	// stopped early, or Next has not yet returned io.EOF — never learned.
	Cut atomic.Bool
}

// Schema implements Operator.
func (c *Counted) Schema() *types.Schema { return c.Child.Schema() }

// Restart starts the step's count for one execution.
func (c *Counted) Restart() {
	c.ActualRows = 0
	c.Cut.Store(!c.OnDataNodes)
}

// Select adds a data-node program's tally — the rows that passed the step's
// predicate, and whether it stopped before its scan's end — to the step.
func (c *Counted) Select(rows int64, stopped bool) {
	if c.OnDataNodes {
		atomic.AddInt64(&c.ActualRows, rows)
		c.Cut.CompareAndSwap(false, stopped) // a stop cuts the count; nothing uncuts it
	}
}

// Open implements Operator.
func (c *Counted) Open(ctx *Ctx) error {
	c.Restart()
	return c.Child.Open(ctx)
}

// Next implements Operator.
func (c *Counted) Next(ctx *Ctx) (types.Row, error) {
	row, err := c.Child.Next(ctx)
	switch {
	case c.OnDataNodes:
	case err == nil:
		c.ActualRows++
	case err == io.EOF:
		c.Cut.Store(false)
	}
	return row, err
}

// RowCount implements Sized: Counted passes every row through.
func (c *Counted) RowCount() int { return rowCount(c.Child) }

// Close implements Operator.
func (c *Counted) Close() error { return c.Child.Close() }

// ErrNotFound is a generic sentinel for lookup misses in exec helpers.
var ErrNotFound = errors.New("exec: not found")
