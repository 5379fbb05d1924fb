package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Fragment is one partition's share of an Exchange: it emits rows until
// exhausted (or until emit returns false, which signals cancellation) and
// returns the fragment's error. In the cluster, one fragment is one data
// node's scan or partial aggregate.
type Fragment func(ctx *Ctx, emit func(types.Row) bool) error

// Exchange fans a set of fragments out across worker goroutines and merges
// their output into one stream — the intra-query parallelism operator of an
// MPP plan. Properties:
//
//   - Parallel caps concurrent fragments. Degree <= 1 runs them inline on
//     the caller's goroutine in fragment order, byte-identical to a
//     sequential loop (the degree-1 path tests and EXPLAIN rely on).
//   - Each fragment's rows are buffered and the buffers concatenated in
//     fragment order, so output is deterministic at any degree. With Order
//     set they are merged instead: the worker that ran a fragment (at
//     degree 1, the caller's goroutine) sorts its buffer where it sits once
//     the fragment returns, and Open merges the sorted buffers under Order,
//     ties to the lower fragment — exactly a stable sort of the
//     concatenation, at every degree.
//   - The first fragment error (or panic, converted to an error) cancels
//     the siblings — their emit returns false — and is the one error
//     surfaced from Open, which returns only after every worker has exited,
//     so no fragment outlives it.
//
// Fragments run on worker goroutines under forked contexts, so they must be
// partition-pure: no outer-row references and no shared mutable state
// beyond what they synchronize themselves.
type Exchange struct {
	Name string
	Out  *types.Schema
	// Plan produces the fragment set; it is re-invoked on every Open (like
	// Source.ScanFn) so the operator can be re-executed, and its error is
	// returned from Open — the place for catalog lookups and liveness
	// checks that a callback-style Source could not fail from.
	Plan func() ([]Fragment, error)
	// Parallel is the max number of concurrently running fragments;
	// values <= 1 select the sequential inline path.
	Parallel int
	// Order, when set, sorts the output under these keys by merging the
	// fragments (see above). Like Plan's fragments, it may be set up to the
	// moment Open runs.
	Order []SortKey

	rowCursor
	ents []sortEntry // borrowed with rows, given back with them
}

// bufPool lends Exchanges their runs, sort entries and outputs (*sortRun,
// storage only; the measured rules are in DESIGN 27). giveBack clears only
// rows[:len], as an array is zero past its length, and keeps a buffer under
// poolFloor rows with its owner, for a cached plan to reopen.
var bufPool sync.Pool

const poolFloor = 256

// borrow returns empty pooled storage for n rows or more, or new storage.
func borrow(n int) ([]types.Row, []sortEntry) {
	if b, _ := bufPool.Get().(*sortRun); b != nil && cap(b.rows) >= n {
		return b.rows, b.ents
	}
	return make([]types.Row, 0, n), nil
}

// giveBack clears rows, then pools them with ents or, if small, returns both.
func giveBack(rows []types.Row, ents []sortEntry) ([]types.Row, []sortEntry) {
	clear(rows)
	if cap(rows) < poolFloor {
		return rows[:0], ents[:0]
	}
	bufPool.Put(&sortRun{rows: rows[:0], ents: ents[:0]})
	return nil, nil
}

// NewParallelSource builds an Exchange over a lazily-planned fragment set:
// the drop-in parallel replacement for NewSource over per-partition scan
// closures, with results identical to the sequential loop at every degree.
func NewParallelSource(name string, schema *types.Schema, degree int, plan func() ([]Fragment, error)) *Exchange {
	return &Exchange{Name: name, Out: schema, Plan: plan, Parallel: degree}
}

// Schema implements Operator.
func (e *Exchange) Schema() *types.Schema { return e.Out }

// runFragment invokes f with panic-to-error recovery: a panicking DN
// fragment must surface as a query error, not tear down the process with
// siblings mid-flight.
func runFragment(ctx *Ctx, f Fragment, emit func(types.Row) bool) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exec: exchange fragment panicked: %v", p)
		}
	}()
	return f(ctx, emit)
}

// fork returns an independent evaluation context for one worker: fragments
// share the statement clock and parameters but must not share the outer-row
// stack.
func (c *Ctx) fork() *Ctx { return &Ctx{Now: c.Now, Params: c.Params} }

// Open implements Operator.
func (e *Exchange) Open(ctx *Ctx) error {
	frags, err := e.Plan()
	if err != nil {
		return err
	}
	e.Close() // a reopen gives back the last result first
	e.reset(e.rows)

	degree := min(e.Parallel, len(frags))
	if degree <= 1 && e.Order == nil {
		// Sequential path: the exact pre-exchange loop.
		for _, f := range frags {
			if err := runFragment(ctx, f, func(r types.Row) bool {
				e.rows = append(e.rows, r)
				return true
			}); err != nil {
				return err
			}
		}
		return nil
	}

	// Each fragment fills (and, ordered, sorts) its own run; the runs are
	// then concatenated or merged in fragment order.
	runs := make([]sortRun, len(frags))
	// Workers claim fragment indexes off a shared counter. The caller's
	// goroutine is one of them, the only one at degree 1.
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		canceled atomic.Bool // set by the first failure, with firstErr
		firstErr error
	)
	work := func(ctx *Ctx) {
		for !canceled.Load() {
			idx := int(next.Add(1)) - 1
			if idx >= len(frags) {
				return
			}
			live := func() bool { return !canceled.Load() }
			if err := e.fill(ctx, frags[idx], &runs[idx], live); err != nil && canceled.CompareAndSwap(false, true) {
				firstErr = err
			}
		}
	}
	for w := 1; w < degree; w++ {
		wg.Add(1)
		fctx := ctx.fork()
		go func() { defer wg.Done(); work(fctx) }()
	}
	work(ctx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	n := 0
	for _, r := range runs {
		n += len(r.rows)
	}
	if cap(e.rows) < n {
		e.rows, e.ents = borrow(n)
	}
	if e.Order != nil {
		o := keyOrder{keys: e.Order, ctx: ctx}
		e.rows, err = o.merge(runs, e.rows)
	}
	for _, r := range runs {
		if e.Order == nil {
			e.rows = append(e.rows, r.rows...)
		}
		giveBack(r.rows, r.ents)
	}
	return err
}

// fill runs fragment f into run and, under Order, sorts it there. live
// reports whether the exchange still wants rows.
func (e *Exchange) fill(ctx *Ctx, f Fragment, run *sortRun, live func() bool) error {
	run.rows, run.ents = borrow(0)
	if err := runFragment(ctx, f, func(r types.Row) bool {
		run.rows = append(run.rows, r)
		return live()
	}); err != nil || e.Order == nil {
		return err
	}
	o := keyOrder{keys: e.Order, ctx: ctx}
	var err error
	run.ents, err = o.sort(run.rows, slices.Grow(run.ents, len(run.rows))[:len(run.rows)])
	run.first = o.first
	return err
}

// Close implements Operator. Every worker exited before Open returned.
func (e *Exchange) Close() error {
	e.rows, e.ents = giveBack(e.rows, e.ents)
	return nil
}
