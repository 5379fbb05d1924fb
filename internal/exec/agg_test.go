package exec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// foldInput is a set of rows (g BIGINT, vi BIGINT, vf DOUBLE) held as
// column vectors, with a selection vector, as a batch feeder sees them.
type foldInput struct {
	g, vi  []int64
	vf     []float64
	gNull  []bool
	viNull []bool
	vfNull []bool
	sel    []bool
}

func (in *foldInput) add(g, vi int64, vf float64, gNull, viNull, vfNull, sel bool) {
	in.g, in.vi, in.vf = append(in.g, g), append(in.vi, vi), append(in.vf, vf)
	in.gNull, in.viNull, in.vfNull = append(in.gNull, gNull), append(in.viNull, viNull), append(in.vfNull, vfNull)
	in.sel = append(in.sel, sel)
}

func (in *foldInput) row(i int) types.Row {
	r := types.Row{types.NewInt(in.g[i]), types.NewInt(in.vi[i]), types.NewFloat(in.vf[i])}
	for c, null := range []bool{in.gNull[i], in.viNull[i], in.vfNull[i]} {
		if null {
			r[c] = types.Null
		}
	}
	return r
}

// foldSpecs is every aggregate but avg over vi (column 1) and vf (column
// 2), the aggregates oracle computes; avgSpecs adds the two averages.
var foldSpecs, avgSpecs = func() ([]AggSpec, []AggSpec) {
	specs := []AggSpec{{Kind: AggCountStar}}
	for _, col := range []int{1, 2} {
		for _, k := range []AggKind{AggCount, AggSum, AggMin, AggMax} {
			specs = append(specs, AggSpec{Kind: k, Arg: &ColRef{Index: col}})
		}
	}
	avg := []AggSpec{{Kind: AggAvg, Arg: &ColRef{Index: 1}}, {Kind: AggAvg, Arg: &ColRef{Index: 2}}}
	return specs, append(append(avg, specs...), avg...)
}()

// oracle computes foldSpecs' rows over the selected rows of in the long
// way, sharing no code with the accumulator: a BIGINT sum in math/big, a
// DOUBLE sum added up in row order, extremes through types.Compare (an
// equal value keeps the first).
func oracle(in *foldInput, grouped bool) ([]types.Row, error) {
	type agg struct {
		key    types.Datum
		rows   int64
		n      [2]int64
		isum   big.Int
		fsum   float64
		lo, hi [2]types.Datum
	}
	var order []*agg
	byKey := map[string]*agg{}
	for i, ok := range in.sel {
		if !ok {
			continue
		}
		r := in.row(i)
		k := ""
		if grouped {
			k = string(types.AppendKey(nil, r[0]))
		}
		a := byKey[k]
		if a == nil {
			a = &agg{key: r[0]}
			byKey[k] = a
			order = append(order, a)
		}
		a.rows++
		for c, v := range r[1:] {
			if v.IsNull() {
				continue
			}
			if a.n[c] == 0 {
				a.lo[c], a.hi[c] = v, v
			}
			a.n[c]++
			if types.MustCompare(v, a.lo[c]) < 0 {
				a.lo[c] = v
			}
			if types.MustCompare(v, a.hi[c]) > 0 {
				a.hi[c] = v
			}
			if c == 0 {
				a.isum.Add(&a.isum, big.NewInt(v.Int()))
			} else {
				a.fsum += v.Float()
			}
		}
	}
	if len(order) == 0 && !grouped {
		order = append(order, &agg{})
	}
	var rows []types.Row
	for _, a := range order {
		var r types.Row
		if grouped {
			r = append(r, a.key)
		}
		r = append(r, types.NewInt(a.rows))
		for c := range a.n {
			sum := types.NewFloat(a.fsum)
			if c == 0 {
				if !a.isum.IsInt64() {
					return nil, fmt.Errorf("exec: sum out of BIGINT range")
				}
				sum = types.NewInt(a.isum.Int64())
			}
			if a.n[c] == 0 {
				sum = types.Null
			}
			r = append(r, types.NewInt(a.n[c]), sum, a.lo[c], a.hi[c])
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// pushAll feeds the selected rows of in to a table row by row, as the row
// path does.
func pushAll(t *testing.T, groupBy []Expr, specs []AggSpec, in *foldInput) *AggTable {
	table := NewAggTable(groupBy, specs)
	ctx := NewCtx(time.Unix(0, 0))
	for i, ok := range in.sel {
		if ok {
			if err := table.Push(ctx, in.row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return table
}

// foldAll feeds in to a table as a vector feeder does, in batches that
// start at each of cuts: the batch's groups numbered first (grouped by g,
// or global), then each aggregate folded over the whole batch.
func foldAll(t *testing.T, grouped bool, specs []AggSpec, in *foldInput, cuts ...int) *AggTable {
	var groupBy []Expr
	if grouped {
		groupBy = []Expr{&ColRef{Index: 0}}
	}
	table := NewAggTable(groupBy, specs)
	cuts = append(cuts, len(in.sel))
	for b := 0; b+1 < len(cuts); b++ {
		lo, hi := cuts[b], cuts[b+1]
		sel := in.sel[lo:hi]
		var groups []int32
		if grouped {
			groups = make([]int32, len(sel))
			for i, ok := range sel {
				if ok {
					g := in.row(lo + i)[:1]
					groups[i] = int32(table.GroupOf(g.AppendKey(nil), func(dst types.Row) { copy(dst, g) }))
				}
			}
		} else {
			table.GroupOf(nil, func(types.Row) {})
		}
		for a, spec := range specs {
			var err error
			switch {
			case spec.Kind == AggCountStar:
				table.FoldRows(a, sel, groups)
			case spec.Arg.(*ColRef).Index == 1:
				_, err = table.FoldInts(a, sel, groups, in.vi[lo:hi], nullsOf(in.viNull[lo:hi]))
			default:
				_, err = table.FoldFloats(a, sel, groups, in.vf[lo:hi], nullsOf(in.vfNull[lo:hi]))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return table
}

// nullsOf is a vector's NULL marks as a scan lends them: nil when there
// are none.
func nullsOf(nulls []bool) []bool {
	if !slices.Contains(nulls, true) {
		return nil
	}
	return nulls
}

// renderRows prints rows exactly: a DOUBLE by its bits, so −0 and the last
// bit of a sum count. NaN prints as NaN: which NaN an addition returns
// depends on the order of its operands in the instruction, which the
// compiler may swap, and Compare, AppendKey and the text form all treat
// every NaN as one value.
func renderRows(rows []types.Row, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	for _, r := range rows {
		for _, d := range r {
			if f, ok := d.FloatValue(); ok && f == f {
				fmt.Fprintf(&sb, "%#x ", math.Float64bits(f))
			} else {
				fmt.Fprintf(&sb, "%v ", d)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestFoldMatchesPush: folding column batches into an AggTable — the
// kind dispatched once per batch, the accumulator updated inline — gives
// what pushing the same rows one by one gives, bit for bit: every
// aggregate over BIGINT and DOUBLE, NULLs, grouped and global, however the
// rows are cut into batches; BIGINT sums that wrap around several times
// inside one batch are exact, a total past the BIGINT range is the row
// path's error, and partial sums split across fragments merge back exactly.
func TestFoldMatchesPush(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	// Random rows whose BIGINTs come in tuples that sum to 0 within a group
	// — (v, −v), and (MinInt64, MaxInt64, 1) — shuffled, so each group's
	// running sum wraps many times and still ends in range. One set has
	// NULLs, whose values (MaxInt64, 1e300) a fold must not see, so its
	// tuples leave out the extremes; one has no NULL in the folded columns;
	// one adds NaN, ±Inf and the largest DOUBLE.
	rng := rand.New(rand.NewSource(7))
	randomRows := func(nulls, special bool) *foldInput {
		tuples := [][]int64{{1 << 62, -(1 << 62)}, {1<<53 + 1, -(1<<53 + 1)}, {0}, {1, -1}}
		if !nulls {
			tuples = append(tuples, []int64{maxI, -maxI}, []int64{minI, maxI, 1})
		}
		floats := []float64{1e16, -1e16, 0.1, 1, 0, math.Copysign(0, -1), 3.5e-300, 2.5}
		if special {
			floats = append(floats, math.MaxFloat64, math.NaN(), math.Inf(-1), math.Inf(1))
		}
		type tupleRow struct {
			g                  int64
			vi                 int64
			gNull, viNull, sel bool
		}
		var rows []tupleRow
		for len(rows) < 2000 {
			r := tupleRow{g: int64(rng.Intn(4)), gNull: rng.Intn(7) == 0, viNull: nulls && rng.Intn(9) == 0, sel: rng.Intn(8) != 0}
			for _, v := range tuples[rng.Intn(len(tuples))] {
				r.vi = v
				rows = append(rows, r)
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		in := &foldInput{}
		for _, r := range rows {
			vf, vfNull := floats[rng.Intn(len(floats))], nulls && rng.Intn(9) == 0
			if r.viNull {
				r.vi = maxI
			}
			if vfNull {
				vf = 1e300
			}
			in.add(r.g, r.vi, vf, r.gNull, r.viNull, vfNull, r.sel)
		}
		return in
	}
	// Sums wrapping four times up and four down inside the first batch and
	// again across the second; totals 7 (fits) and 2^63 (does not).
	fits, over := &foldInput{}, &foldInput{}
	for _, v := range []int64{maxI, maxI, maxI, maxI, 3, -maxI, -maxI, -maxI, -maxI, maxI, maxI, -maxI, -maxI + 4} {
		fits.add(0, v, float64(v), false, false, false, true)
	}
	for _, v := range []int64{maxI, maxI, maxI, 1, -maxI, -maxI} {
		over.add(0, v, 0, false, false, false, true)
	}
	// Equal extremes: the first one folded stays, −0 or +0. The first batch
	// selects no row, so no group exists while it is folded.
	ties := &foldInput{}
	ties.add(5, 1, 1, false, false, false, false)
	for i, f := range []float64{0, math.Copysign(0, -1), math.Copysign(0, -1), 0} {
		ties.add(int64(i/2), 2, f, false, false, false, true)
	}
	for _, tc := range []struct {
		name string
		in   *foldInput
		cuts []int
	}{
		{"random, NULLs", randomRows(true, false), []int{0, 1, 700, 1024, 1030}},
		{"random, no NULLs", randomRows(false, false), []int{0, 1, 700, 1024, 1030}},
		{"random, NaN and ±Inf", randomRows(false, true), []int{0, 1, 700, 1024, 1030}},
		{"wraps, fits", fits, []int{0, 9}},
		{"wraps, out of range", over, []int{0, 3}},
		{"ties", ties, []int{0, 1, 2}},
	} {
		for _, grouped := range []bool{false, true} {
			var groupBy []Expr
			if grouped {
				groupBy = []Expr{&ColRef{Index: 0}}
			}
			w, g := renderRows(oracle(tc.in, grouped)), renderRows(foldAll(t, grouped, foldSpecs, tc.in, tc.cuts...).Rows())
			if w != g {
				t.Errorf("%s grouped=%v: folded\n%s\nwant\n%s", tc.name, grouped, g, w)
			}
			want := pushAll(t, groupBy, avgSpecs, tc.in)
			got := foldAll(t, grouped, avgSpecs, tc.in, tc.cuts...)
			if w, g := renderRows(want.Rows()), renderRows(got.Rows()); w != g {
				t.Errorf("%s grouped=%v: Rows\nfolded:\n%s\npushed:\n%s", tc.name, grouped, g, w)
			}
			if w, g := renderRows(want.PartialRows(), nil), renderRows(got.PartialRows(), nil); w != g {
				t.Errorf("%s grouped=%v: PartialRows\nfolded:\n%s\npushed:\n%s", tc.name, grouped, g, w)
			}
		}
		// Fragments: each half of the rows folded on its own, the partial
		// rows merged by a sum over their sum column, as a coordinator does.
		sum := []AggSpec{{Kind: AggSum, Arg: &ColRef{Index: 1}}}
		half := len(tc.in.sel) / 2
		lo, hi := *tc.in, *tc.in
		lo.sel = append(make([]bool, 0, len(tc.in.sel)), tc.in.sel[:half]...)
		lo.sel = append(lo.sel, make([]bool, len(tc.in.sel)-half)...)
		hi.sel = append(make([]bool, half, len(tc.in.sel)), tc.in.sel[half:]...)
		merge := NewAggTable([]Expr{&ColRef{Index: 0}}, []AggSpec{{Kind: AggSum, Arg: &ColRef{Index: 1}}})
		ctx := NewCtx(time.Unix(0, 0))
		for _, frag := range []*foldInput{&lo, &hi} {
			for _, r := range foldAll(t, true, sum, frag, 0, half/2).PartialRows() {
				if err := merge.Push(ctx, r); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := pushAll(t, []Expr{&ColRef{Index: 0}}, sum, tc.in)
		if w, g := renderRows(want.Rows()), renderRows(merge.Rows()); w != g {
			t.Errorf("%s: merged fragments\n%s\nwant\n%s", tc.name, g, w)
		}
	}
}
