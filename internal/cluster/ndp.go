package cluster

import (
	"slices"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
)

// Near-data processing (paper §III-B, Taurus NDP): scan fragments evaluate
// pushed filters against decoded column batches, ship only the projected
// columns, cap their output with a bounded TopN heap, and probe sideways
// bloom filters — so scan_frag responses carry pre-reduced batches instead
// of full-width row streams. Every reduction only changes *where* rows are
// dropped, never which rows the coordinator sees, so results are identical
// at every pushdown level and parallel degree.
//
// One fragment program serves every SELECT that reads a partition: a
// select stage (zone-map prune, vectorized kernels, ownership, bloom,
// residual) decides which rows survive, and a sink (fragSink) either
// materializes their projected columns — plain scans, the fragment TopN
// heap, join sides — or folds them into a partial aggregate's group table
// (exec.AggTable), row by row or straight off the column vectors. The engine
// honours whatever spec the planner hands it; how much gets pushed is the
// planner's decision (plan.PushdownLevel).

// ndpProgram is the compiled form of one scan's pushdown spec, built at the
// scan's first Exchange open and shared read-only by its fragments, of that
// execution and of a prepared statement's later ones. What depends on the
// values of one execution — the key probed, the zone checks and kernels the
// predicate's terms become — is instantiated by each fragment run (key, bind).
type ndpProgram struct {
	pred exec.Expr // the whole pushed filter (row-store loop)
	// terms are pred's `column op value` conjuncts and rest the others
	// (exec.SplitTerms): under a run's values each term is a zone-map check
	// (when prune) and, a comparison, a vectorized kernel over scanCols.
	terms  []exec.Term
	rest   exec.Expr
	prune  bool
	schema *types.Schema
	// key is the primary-key access path the terms offer a row partition
	// (nil: none). It narrows which versions the row source hands the select
	// stage; a columnar source ignores it.
	key *keyProbe

	// matCols lists the distinct table columns materialized into sink rows
	// (the projection plus whatever the sink's own expressions read:
	// aggregate inputs, fragment-TopN keys); the wire is charged for
	// shipWidth datums per row whatever the row's width.
	matCols []int
	// A sink row is width datums wide, and slots say which of its positions
	// hold which materialized column. An unfolded scan's row is the table's
	// (each column at its own position, NULL in the unlisted ones, so
	// column indexes the coordinator compiled against the table stay
	// valid); a folded scan's (spec.Out) is the query block's output row.
	width int
	slots []slot

	// scanCols is the batch-scan projection: matCols plus whatever the
	// predicate, TopN keys, bloom probe and ownership check read.
	scanCols []int

	topn *plan.TopNPush
	agg  *plan.AggPush
	// topnCol is the table column of topn's first key when every key is a
	// bare column: the fragment's full heap then turns a row away by that
	// column's datum before the row is built (-1: never).
	topnCol int

	bloom    *exec.BloomHandle
	bloomCol int // table column probed against the bloom filter (-1: none)
	distCol  int // distribution key column (-1: no ownership check)

	tableCols int
	step      *exec.Counted // told what pred selects (plan.ScanPushdown.Step)
}

// slot is one position of a sink row: at holds table column col, found at
// position pos of the batch-scan projection.
type slot struct{ at, col, pos int }

// fragSink is where a fragment's selected rows go: exactly one of rows and
// agg is set. rows receives each survivor's projected columns as a sink
// row (ndpProgram.slots; false stops the scan); agg is pushed the same rows —
// or, when vec is set too (a columnar source whose group and aggregate
// expressions are all bare columns), folds survivors in straight off the
// column vectors. topn, set beside rows when the program has a topnCol, is
// the heap rows feeds: a survivor it Rejects is dropped unbuilt. copy marks
// a scan of one more copy of a replicated table, whose rows the step counts
// once, from the first copy scanned.
type fragSink struct {
	rows func(types.Row) bool
	agg  *exec.AggTable
	vec  *vecPlan
	topn *exec.TopNHeap
	copy bool
}

// deliver hands one materialized survivor to the sink; false stops the scan
// (with the aggregate's error, if that is why).
func (k fragSink) deliver(ctx *exec.Ctx, row types.Row) (bool, error) {
	if k.agg == nil {
		return k.rows(row), nil
	}
	err := k.agg.Push(ctx, row)
	return err == nil, err
}

// Scan implements plan.Access: the fragment program with an empty spec
// (every row, every column) feeding step, which counts at the coordinator.
func (a *stmtAccess) Scan(meta *plan.TableMeta, step *exec.Counted) exec.Operator {
	return a.scanFragments(meta, &plan.ScanPushdown{Step: step})
}

// ScanNDP implements plan.NDPAccess: every table gets exact DN-side
// filtering and column pruning, and a partial aggregate when spec carries
// one. The refusal the interface allows for is never taken here.
func (a *stmtAccess) ScanNDP(meta *plan.TableMeta, spec *plan.ScanPushdown) (exec.Operator, bool) {
	return a.scanFragments(meta, spec), true
}

// scanFragments builds the fan-out every partition-reading SELECT runs as:
// one fragment per routed shard owner, each running shipRows over the
// program compiled from spec and the source fragSource resolved for that
// owner, gathered by an Exchange in fragment order so results are identical
// at every parallel degree. A partial aggregate's Exchange is named
// "<table>:partial-agg" and emits spec.Agg.Out rows; a folded scan's emits
// spec.OutSchema rows, the query block's output. Under a pushed ORDER
// BY (spec.TopN with keys) the Exchange gets the program's keys: once a
// fragment's rows have arrived, the exchange worker that gathered them
// sorts them where they sit, and the coordinator merges the sorted runs. Program and sources are
// resolved when the Exchange opens, not here: the planner fills the spec's
// Cols/TopN/Bloom after the scan operator is built (late binding), and a
// dead node fails the scan before any fragment is dispatched. The program
// is kept across opens — a correlated subplan's, a prepared statement's
// next execution's — for as long as the table is the one it was compiled
// for; whatever else it depends on is in the plan stamp, which retires the
// whole operator.
func (a *stmtAccess) scanFragments(meta *plan.TableMeta, spec *plan.ScanPushdown) exec.Operator {
	name, out := meta.Name, meta.Schema
	switch {
	case spec.Agg != nil:
		name, out = name+":partial-agg", spec.Agg.Out
	case spec.Out != nil:
		out = spec.OutSchema
	}
	var prog *ndpProgram
	var progOf *TableInfo
	var ex *exec.Exchange
	ex = exec.NewParallelSource(name, out, a.s.c.parallelDegree(), func() ([]exec.Fragment, error) {
		ti, err := a.s.c.tableInfo(meta.Name)
		if err != nil {
			return nil, err
		}
		owners := a.targetsFor(ti)
		if progOf != ti {
			prog, progOf = a.compileNDP(ti, spec), ti
		}
		if prog.topn != nil && len(prog.topn.Keys) > 0 {
			ex.Order = prog.topn.Keys
		}
		prog.step.Restart()
		frags := make([]exec.Fragment, len(owners))
		for i, owner := range owners {
			src, err := a.fragSource(ti, owner)
			if err != nil {
				return nil, err
			}
			frags[i] = func(ctx *exec.Ctx, emit func(types.Row) bool) error {
				return a.shipRows(ctx, prog, src, emit)
			}
		}
		return frags, nil
	})
	return ex
}

// compileNDP resolves a pushdown spec into an executable program — the one
// place a fragment's predicate, projection and ownership check are
// compiled. A partial aggregate's group keys and arguments, like
// fragment-TopN keys, evaluate against sink rows: the columns they read are
// materialized on top of spec.Cols (a folded scan's keys are positions in
// its output row, each a bare column). Caller must hold routeMu (it runs
// from the Exchange's Plan hook, inside statement execution).
func (a *stmtAccess) compileNDP(ti *TableInfo, spec *plan.ScanPushdown) *ndpProgram {
	c := a.s.c
	n := ti.Meta.Schema.Len()
	p := &ndpProgram{
		pred:      spec.Pred,
		prune:     !c.DisableSegmentPrune,
		schema:    ti.Meta.Schema,
		topn:      spec.TopN,
		agg:       spec.Agg,
		bloomCol:  -1,
		distCol:   -1,
		topnCol:   -1,
		tableCols: n,
		step:      spec.Step,
	}

	// needRefs adds every in-range column e references to the scan.
	needRefs := func(e exec.Expr, then func(col int)) {
		exec.WalkExpr(e, func(x exec.Expr) bool {
			if cr, ok := x.(*exec.ColRef); ok && cr.Index >= 0 && cr.Index < n {
				then(cr.Index)
			}
			return true
		})
	}

	// Shipped columns: the plan's projection, or everything when the
	// planner did not bound it. out is the table column at each position
	// of a sink row: the table's own, or a folded scan's output row.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	p.matCols = append([]int(nil), spec.Cols...)
	if spec.Cols == nil {
		p.matCols = all
	}
	out := spec.Out
	if out == nil {
		out = all
	}
	// Aggregate inputs and fragment TopN keys evaluate against the sink
	// row; make sure their columns are materialized (TopN's normally
	// already are — ORDER BY expressions are projection outputs).
	ship := func(col int) {
		if !slices.Contains(p.matCols, col) {
			p.matCols = append(p.matCols, col)
		}
	}
	materialize := func(e exec.Expr) { needRefs(e, ship) }
	if p.agg != nil {
		for _, g := range p.agg.GroupBy {
			materialize(g)
		}
		for _, sp := range p.agg.Aggs {
			materialize(sp.Arg)
		}
	}
	if p.topn != nil {
		// Bare-column keys cannot fail to evaluate, and a typed column holds
		// one kind family: a row turned away unbuilt is one Push would have
		// dropped without an error. A folded scan's keys are all bare.
		keyCol := func(e exec.Expr) int {
			if cr, ok := e.(*exec.ColRef); ok && cr.Index >= 0 && cr.Index < len(out) {
				return out[cr.Index]
			}
			return -1
		}
		bare := len(p.topn.Keys) > 0
		for _, k := range p.topn.Keys {
			if col := keyCol(k.Expr); col >= 0 {
				ship(col)
			} else {
				materialize(k.Expr)
				bare = false
			}
		}
		if bare {
			p.topnCol = keyCol(p.topn.Keys[0].Expr)
		}
	}
	for _, col := range p.matCols {
		p.need(col)
	}
	p.width = len(out)
	for at, col := range out {
		if slices.Contains(p.matCols, col) {
			p.slots = append(p.slots, slot{at: at, col: col, pos: p.scanPos(col)})
		}
	}

	// Predicate columns (for the kernels and the sparse residual row), its
	// terms, and on a row table the key they pin.
	needRefs(spec.Pred, func(col int) { p.need(col) })
	p.terms, p.rest = exec.SplitTerms(spec.Pred)
	if !ti.columnar() {
		p.key = keyProbeOf(p.terms, ti.Meta)
	}

	if spec.Bloom != nil && spec.BloomCol >= 0 && spec.BloomCol < n {
		p.bloom = spec.Bloom
		p.bloomCol = spec.BloomCol
		p.need(p.bloomCol)
	}

	// Ownership filtering reads the distribution key: on from the first
	// bucket move or standby attach (see fragKeepDatum).
	if c.needsBucketFilter(ti) {
		p.distCol = ti.Meta.DistKey
		p.need(p.distCol)
	}
	return p
}

// shipWidth is the number of datums one shipped row is charged for: a
// partial aggregate's output row, else the projected columns. A row is
// never free on the wire.
func (p *ndpProgram) shipWidth() int {
	if p.agg != nil {
		return p.agg.Out.Len()
	}
	return max(1, len(p.matCols))
}

// scanPos returns col's position in the batch-scan projection (a handful of
// columns), or -1.
func (p *ndpProgram) scanPos(col int) int {
	for at, c := range p.scanCols {
		if c == col {
			return at
		}
	}
	return -1
}

// need returns col's position in the batch-scan projection, adding it.
func (p *ndpProgram) need(col int) int {
	if at := p.scanPos(col); at >= 0 {
		return at
	}
	p.scanCols = append(p.scanCols, col)
	return len(p.scanCols) - 1
}

// bind instantiates the program's terms for one columnar fragment run: the
// segment pruner (nil: scan everything), the kernels — the range terms on
// one BIGINT or DOUBLE column intersected into one — and the residual the
// run evaluates row-wise: rest plus the conjunct of every term that gets no
// kernel, an IN list or one whose value does not resolve (exec.Term.Resolve).
func (p *ndpProgram) bind(ctx *exec.Ctx) (keep func(*colstore.Segment) bool, kernels []vecKernel, residual exec.Expr) {
	residual = p.rest
	var checks []zoneCheck
	var left exec.Expr // the last conjunct left to the residual: BETWEEN is two terms of one
	for i := range p.terms {
		t := &p.terms[i]
		var vals []types.Datum
		at := p.scanPos(t.Col)
		ok := at >= 0
		if ok {
			vals, ok = t.Resolve(ctx, p.schema.Columns[t.Col].Kind, nil)
		}
		if ok && p.prune {
			checks = append(checks, zoneCheckOf(t.Col, t.Op, vals))
		}
		if ok && t.Op != "IN" {
			kernels = andKernel(kernels, vecKernelOf(at, p.schema.Columns[t.Col].Kind, t.Op, vals[0]))
		} else if t.Conj != left {
			left = t.Conj
			residual = exec.And(residual, left)
		}
	}
	if len(checks) > 0 {
		keep = func(s *colstore.Segment) bool {
			for _, chk := range checks {
				if !chk(s) {
					return false
				}
			}
			return true
		}
	}
	return keep, kernels, residual
}

// fragKeepDatum returns the ownership check for the read fragment of
// owner's rows, expressed over the distribution-key datum alone so batch
// scans need not materialize rows to test it: keep the rows the routing map
// assigns to owner, whichever copy is scanned. On owner's own partition
// that hides rows a migration has copied in (but not yet cut over) or
// retired (but not yet reaped); on a standby mirror or an HTAP replica it
// selects the same rows. nil means keep everything: until the first bucket
// move or standby attach every stored row is owned by its node. Caller
// must hold routeMu.
func (c *Cluster) fragKeepDatum(ti *TableInfo, owner int) func(types.Datum) bool {
	if !c.needsBucketFilter(ti) {
		return nil
	}
	return func(d types.Datum) bool { return c.bmap.dn[BucketOf(d)] == owner }
}

// shipRows is the scan fragment body, partial aggregates included. Inside
// the fragment envelope (the request carries the bloom filter, if any) the
// program's survivors go to one of three sinks: straight to the
// coordinator; into the bounded TopN heap, whose kept rows ship when the
// scan ends; or into the partial aggregate's group table, whose group rows
// ship instead (folded straight off the column vectors when the source is
// columnar and every group and aggregate expression is a bare column). Rows
// ship in scan order, a bounded heap's kept rows too; under a pushed ORDER
// BY the scan's Exchange sorts each fragment's run once they have arrived
// (see scanFragments).
func (a *stmtAccess) shipRows(ctx *exec.Ctx, p *ndpProgram, src fragSource, emit func(types.Row) bool) error {
	bf := p.bloom.Get()
	req := 0
	if bf != nil {
		req = bf.SizeBytes()
	}
	return a.fragment(src.node, req, p.shipWidth(), emit, func(out *shipment) error {
		var kept []types.Row // what ships once the scan ends
		switch {
		case p.agg != nil:
			sink := fragSink{agg: exec.NewAggTable(p.agg.GroupBy, p.agg.Aggs)}
			if vp, ok := buildVecPlan(p, p.agg.GroupBy, p.agg.Aggs); ok && src.col != nil {
				sink.vec = vp
				defer vp.release()
			}
			if err := p.run(ctx, src, bf, sink); err != nil {
				return err
			}
			kept = sink.agg.PartialRows()
		case p.topn != nil && p.topn.Limit >= 0:
			heap := exec.NewTopNHeap(ctx, p.topn.Keys, p.topn.Limit)
			var heapErr error
			sink := fragSink{rows: func(row types.Row) bool {
				if heapErr = heap.Push(row); heapErr != nil {
					return false
				}
				// A bare LIMIT never displaces rows once full: stop early.
				return !(len(p.topn.Keys) == 0 && heap.Full())
			}}
			if p.topnCol >= 0 {
				sink.topn = heap
			}
			err := p.run(ctx, src, bf, sink)
			if err == nil {
				err = heapErr
			}
			if err != nil {
				return err
			}
			kept = heap.ArrivalRows()
		default:
			return p.run(ctx, src, bf, fragSink{rows: out.ship})
		}
		for _, r := range kept {
			if !out.ship(r) {
				break
			}
		}
		return nil
	})
}

// allSelected starts a columnar batch's selection vector by one copy: a
// batch holds at most colstore.BatchSize rows.
var allSelected = func() (all [colstore.BatchSize]bool) {
	for i := range all {
		all[i] = true
	}
	return all
}()

// run is the one fragment body: the select stage over src — columnar
// batches (HTAP replicas included), the row store, or the row store's
// versions of the one primary key the predicate pins — feeding sink. Rows
// are dropped by the cheapest check first: zone maps skip whole segments,
// kernels clear a selection vector, then ownership and the residual
// predicate decide row by row: what the step selects, counted for it
// (exec.Counted.Select) before the bloom probe (bf, nil for none) and the
// TopN heap drop a row. Only survivors reach the sink. A columnar batch
// goes through these stages one at a time, each over the whole selection
// vector — a BIGINT bloom column is probed in one pass (Bloom.FilterInts)
// — and the last loop only builds survivors; so a sink that stops the
// scan mid-batch leaves a count that covers that batch whole (a stopped
// count is cut, never learned).
func (p *ndpProgram) run(ctx *exec.Ctx, src fragSource, bf *exec.Bloom, sink fragSink) error {
	var scanErr error
	var selected int64
	var stopped bool // the sink declined a row: the scan ended early
	if src.col == nil {
		src.row.ScanKey(src.xid, src.snap, p.key.key(ctx), func(r types.Row) bool {
			if src.owns != nil && !src.owns(r[p.distCol]) {
				return true
			}
			if p.pred != nil {
				ok, err := exec.EvalBool(p.pred, ctx, r)
				if err != nil {
					scanErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			selected++
			if bf != nil {
				d := r[p.bloomCol]
				if d.IsNull() || !bf.MayContain(d) {
					return true
				}
			}
			if sink.topn != nil && sink.topn.Rejects(r[p.topnCol]) {
				return true
			}
			// Only the projected columns are copied out of the store's row.
			row := make(types.Row, p.width)
			for _, sl := range p.slots {
				row[sl.at] = r[sl.col]
			}
			more, err := sink.deliver(ctx, row)
			scanErr, stopped = err, !more
			return more
		})
	} else {
		keep, kernels, residual := p.bind(ctx)
		distPos, bloomPos, topnPos := p.scanPos(p.distCol), p.scanPos(p.bloomCol), p.scanPos(p.topnCol)
		var sel []bool
		var sparse types.Row // reused for residual predicate evaluation
		src.col.ScanBatchesWhere(src.xid, src.snap, p.scanCols, keep, func(b *colstore.Batch) bool {
			if cap(sel) < b.N {
				sel = make([]bool, b.N)
			}
			sel = sel[:b.N]
			copy(sel, allSelected[:])
			for i := range kernels {
				if err := kernels[i].apply(b, sel); err != nil {
					scanErr = err
					return false
				}
			}
			// Ownership and the residual refine the selection row by row, and
			// the step counts what they leave. A residual that fails ends the
			// batch at its row: the rows before it still reach the sink, and
			// the error stands unless the sink stops first.
			n, evalErr := b.N, error(nil)
			switch {
			case src.owns != nil || residual != nil:
				for i := 0; i < n; i++ {
					if !sel[i] {
						continue
					}
					if src.owns != nil && !src.owns(b.Cols[distPos].DatumAt(i)) {
						sel[i] = false // not owner's row (migration phantom)
						continue
					}
					if residual != nil {
						if sparse == nil {
							sparse = make(types.Row, p.tableCols)
						}
						for j, c := range p.scanCols {
							sparse[c] = b.Cols[j].DatumAt(i)
						}
						ok, err := exec.EvalBool(residual, ctx, sparse)
						if err != nil {
							n, evalErr = i, err
							break
						}
						if !ok {
							sel[i] = false
							continue
						}
					}
					selected++
				}
			case len(kernels) > 0:
				for _, ok := range sel {
					if ok {
						selected++
					}
				}
			default:
				selected += int64(n)
			}
			// The bloom probe drops what provably cannot match the join's
			// build side: a BIGINT key column in one pass, any other key by
			// its datum.
			if bf != nil {
				if v := b.Cols[bloomPos]; v.Kind == types.KindInt {
					bf.FilterInts(v.Ints, v.Nulls, sel[:n])
				} else {
					for i := 0; i < n; i++ {
						if sel[i] {
							d := v.DatumAt(i)
							sel[i] = !d.IsNull() && bf.MayContain(d)
						}
					}
				}
			}
			// A row-fed sink gets each survivor materialized on the spot (so a
			// full bare-LIMIT heap stops the scan mid-batch); the vector-fed
			// aggregate takes the whole vector afterwards.
			for i := 0; sink.vec == nil && i < n; i++ {
				if !sel[i] || sink.topn != nil && sink.topn.Rejects(b.Cols[topnPos].DatumAt(i)) {
					continue
				}
				// Materialize the survivor: just the projected columns, in the
				// sink row's shape.
				row := make(types.Row, p.width)
				for _, sl := range p.slots {
					row[sl.at] = b.Cols[sl.pos].DatumAt(i)
				}
				more, err := sink.deliver(ctx, row)
				if scanErr, stopped = err, !more; stopped {
					return false
				}
			}
			if evalErr != nil {
				scanErr = evalErr
				return false
			}
			if sink.vec != nil {
				scanErr = sink.vec.addBatch(sink.agg, b, sel)
			}
			return scanErr == nil
		})
	}
	if !sink.copy {
		p.step.Select(selected, stopped)
	}
	return scanErr
}
