package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/sqlx"
	"repro/internal/storage"
	"repro/internal/txnkit"
	"repro/internal/types"
)

// Micro-timings run once per traced run on standalone objects, so a layer
// can be timed with nothing above or beside it. Each is the median of
// microReps repetitions.
const (
	microReps     = 7
	microRowRows  = 5000  // the standalone row-store table
	microExecRows = 20000 // the column-store table and every exec operator input
)

// timeMedian returns the median duration of reps calls of fn, in nanoseconds.
func timeMedian(reps int, fn func()) float64 {
	s := make([]float64, reps)
	for i := range s {
		t0 := time.Now()
		fn()
		s[i] = float64(time.Since(t0))
	}
	return median(s)
}

var microSchema = types.NewSchema(
	types.Column{Name: "k", Kind: types.KindInt},
	types.Column{Name: "g", Kind: types.KindInt},
	types.Column{Name: "v", Kind: types.KindInt},
)

func microRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 16)), types.NewInt(int64(i) * 7919 % int64(n))}
	}
	return rows
}

// microStorage times Table.Scan, LookupEq on the primary key and a
// one-row Update on a standalone row-store table.
func microStorage(out map[string]float64) error {
	txm := txnkit.NewTxnManager()
	tbl := storage.NewTable("t", microSchema, []int{0}, txm)
	xid := txm.Begin()
	snap := txm.LocalSnapshot()
	for _, r := range microRows(microRowRows) {
		if err := tbl.Insert(xid, &snap, r); err != nil {
			return err
		}
	}
	if err := txm.Commit(xid); err != nil {
		return err
	}
	snap = txm.LocalSnapshot()
	out["storage.scan_ns_per_row"] = timeMedian(microReps, func() {
		tbl.Scan(0, &snap, func(types.Row) bool { return true })
	}) / microRowRows
	const lookups = 1000
	out["storage.lookup_eq_ns"] = timeMedian(microReps, func() {
		for i := 0; i < lookups; i++ {
			tbl.LookupEq(0, &snap, 0, types.NewInt(int64(i*5%microRowRows)), func(types.Row) bool { return true })
		}
	}) / lookups
	const updates = 100
	var uerr error
	next := int64(0)
	ns := timeMedian(microReps, func() {
		x := txm.Begin()
		s := txm.LocalSnapshot()
		for i := 0; i < updates; i++ {
			key := next % microRowRows
			next += 37
			_, err := tbl.Update(x, &s, func(r types.Row) bool { return r[0].Int() == key },
				func(r types.Row) (types.Row, error) { return types.Row{r[0], r[1], types.NewInt(r[2].Int() + 1)}, nil })
			if err != nil {
				uerr = err
			}
		}
		if err := txm.Commit(x); err != nil {
			uerr = err
		}
	})
	out["storage.update_us"] = ns / updates / 1e3
	return uerr
}

// microColstore times a full batch scan of a sealed standalone columnar table.
func microColstore(out map[string]float64) error {
	txm := txnkit.NewTxnManager()
	tbl := colstore.NewTable("t", microSchema, txm)
	xid := txm.Begin()
	for _, r := range microRows(microExecRows) {
		if err := tbl.Insert(xid, r); err != nil {
			return err
		}
	}
	if err := txm.Commit(xid); err != nil {
		return err
	}
	tbl.Flush()
	snap := txm.LocalSnapshot()
	out["colstore.scan_ns_per_row"] = timeMedian(microReps, func() {
		tbl.ScanBatches(0, &snap, []int{0, 1, 2}, func(*colstore.Batch) bool { return true })
	}) / microExecRows
	return nil
}

// microExec times the public exec operators over exec.NewValues inputs.
func microExec(out map[string]float64) error {
	rows := microRows(microExecRows)
	ctx := exec.NewCtx(time.Unix(0, 0))
	col := func(i int) exec.Expr { return &exec.ColRef{Index: i, Name: microSchema.Columns[i].Name} }
	var errMu sync.Mutex // the partitioner's goroutines report errors too
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	drain := func(op exec.Operator) func() {
		return func() {
			if err := op.Open(ctx); err != nil {
				fail(err)
				return
			}
			for {
				if _, err := op.Next(ctx); err != nil {
					if err != io.EOF {
						fail(err)
					}
					break
				}
			}
			if err := op.Close(); err != nil {
				fail(err)
			}
		}
	}
	values := func() exec.Operator { return exec.NewValues(microSchema, rows) }
	per := func(name string, op exec.Operator) {
		out[name] = timeMedian(microReps, drain(op)) / microExecRows
	}
	per("exec.agg_ns_per_row", &exec.Agg{
		Child: values(), GroupBy: []exec.Expr{col(1)},
		Aggs: []exec.AggSpec{{Kind: exec.AggCountStar}, {Kind: exec.AggSum, Arg: col(2)}},
		Out: types.NewSchema(types.Column{Name: "g", Kind: types.KindInt},
			types.Column{Name: "n", Kind: types.KindInt}, types.Column{Name: "s", Kind: types.KindInt}),
	})
	per("exec.sort_ns_per_row", &exec.Sort{Child: values(), Keys: []exec.SortKey{{Expr: col(2)}}})
	per("exec.topn_ns_per_row", &exec.TopN{Child: values(), Keys: []exec.SortKey{{Expr: col(2), Desc: true}}, Limit: 10})
	per("exec.hashjoin_ns_per_row", &exec.HashJoin{
		Left: values(), Right: exec.NewValues(microSchema, rows[:microExecRows/16]),
		LeftKeys: []exec.Expr{col(2)}, RightKeys: []exec.Expr{col(0)},
	})

	// Partitioner: 4 sources hash-route their quarter of the rows to 4
	// parts, drained concurrently, as a shuffle join's producers and
	// consumers do.
	const parts = 4
	out["exec.partitioner_ns_per_row"] = timeMedian(microReps, func() {
		p := exec.NewPartitioner(parts, parts, 128, 4, nil)
		var wg sync.WaitGroup
		for s := 0; s < parts; s++ {
			wg.Add(2)
			go func(s int) {
				defer wg.Done()
				w := p.Writer(s)
				for i := s; i < len(rows); i += parts {
					if err := w.Write(int(rows[i][2].Int())%parts, rows[i]); err != nil {
						fail(err)
						break
					}
				}
				if err := w.Close(); err != nil {
					fail(err)
				}
			}(s)
			go func(part int) {
				defer wg.Done()
				if err := p.Drain(part, func([]types.Row) error { return nil }); err != nil {
					fail(err)
				}
			}(s)
		}
		wg.Wait()
	}) / microExecRows
	return firstErr
}

// microTxnkit times MergeSnapshot of a global snapshot with a few active
// transactions into a shard's local snapshot.
func microTxnkit(out map[string]float64) error {
	m := txnkit.NewTxnManager()
	for i := 0; i < 64; i++ {
		if err := m.Commit(m.Begin()); err != nil {
			return err
		}
	}
	g := &txnkit.GlobalSnapshot{Xmin: 100, Xmax: 108, Active: map[txnkit.GXID]struct{}{101: {}, 104: {}, 106: {}}}
	const merges = 1000
	var merr error
	out["txnkit.merge_snapshot_ns"] = timeMedian(microReps, func() {
		for i := 0; i < merges; i++ {
			if _, err := m.MergeSnapshot(g); err != nil {
				merr = err
			}
		}
	}) / merges
	return merr
}

// microParseAllocs counts heap allocations per sqlx.Parse over a sample of
// the workload's own statements.
func microParseAllocs(p *plan, out map[string]float64) error {
	var texts []string
	for _, ops := range p.clients {
		for i := 0; i < len(ops) && len(texts) < 200; i++ {
			for _, s := range ops[i].stmts {
				texts = append(texts, s.sql)
			}
		}
	}
	if len(texts) == 0 {
		return fmt.Errorf("no statements to parse")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sql := range texts {
		if _, err := sqlx.Parse(sql); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out["sqlx.parse_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(texts))
	return nil
}

// micro runs every micro-timing.
func micro(p *plan) (map[string]float64, error) {
	out := map[string]float64{}
	for _, f := range []func(map[string]float64) error{microStorage, microColstore, microExec, microTxnkit} {
		if err := f(out); err != nil {
			return nil, fmt.Errorf("micro-timing: %w", err)
		}
	}
	if err := microParseAllocs(p, out); err != nil {
		return nil, fmt.Errorf("micro-timing: %w", err)
	}
	return out, nil
}
