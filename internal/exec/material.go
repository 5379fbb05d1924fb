package exec

import "repro/internal/types"

// MatState is the shared cache behind one WITH-clause materialization. All
// references to the same CTE share one MatState, so the CTE body executes
// at most once per execution (queries are single-threaded; no locking
// needed).
type MatState struct {
	Child Operator
	// doneIn is the execution rows and err belong to; a plan re-opened under
	// another Ctx runs the body again.
	doneIn *Ctx
	rows   []types.Row
	err    error
}

// NewMatState wraps the CTE body.
func NewMatState(child Operator) *MatState { return &MatState{Child: child} }

// rowsOnce executes the child on first use and caches the result.
func (m *MatState) rowsOnce(ctx *Ctx) ([]types.Row, error) {
	if m.doneIn != ctx {
		m.rows, m.err = Collect(ctx, m.Child)
		m.doneIn = ctx
	}
	return m.rows, m.err
}

// MaterialRef is one reference to a shared materialization; each reference
// keeps its own cursor.
type MaterialRef struct {
	State *MatState
	Out   *types.Schema
	rowCursor
}

// Schema implements Operator.
func (r *MaterialRef) Schema() *types.Schema { return r.Out }

// Open implements Operator.
func (r *MaterialRef) Open(ctx *Ctx) error {
	rows, err := r.State.rowsOnce(ctx)
	if err != nil {
		return err
	}
	r.reset(rows)
	return nil
}

// Close implements Operator.
func (r *MaterialRef) Close() error { return nil }
