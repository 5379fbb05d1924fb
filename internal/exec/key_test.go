package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// The hash operators agree with types.Compare on what "equal" means (the
// contract of types.AppendKey): every BIGINT is its own value even above
// 2^53, INT n equals FLOAT n.0, and no pair of different rows shares a key
// however their strings are cut.

func col(i int) Expr { return &ColRef{Index: i} }

func TestHashOperatorsTellBigIntsApart(t *testing.T) {
	const big = int64(1) << 53
	one := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	rows := []types.Row{intRow(big), intRow(big + 1), intRow(big)}

	if got := collect(t, &Distinct{Child: NewValues(one, rows)}); len(got) != 2 {
		t.Errorf("DISTINCT over 2^53, 2^53+1, 2^53 = %v, want two rows", got)
	}

	groups := collect(t, &Agg{
		Child: NewValues(one, rows), GroupBy: []Expr{col(0)},
		Aggs: []AggSpec{{Kind: AggCountStar}, {Kind: AggCount, Arg: col(0), Distinct: true}},
		Out:  schema2("v", "n"),
	})
	if len(groups) != 2 || groups[0][1].Int() != 2 || groups[1][1].Int() != 1 {
		t.Errorf("GROUP BY over 2^53, 2^53+1, 2^53 = %v, want groups of 2 and 1", groups)
	}
	global := collect(t, &Agg{
		Child: NewValues(one, rows),
		Aggs:  []AggSpec{{Kind: AggCount, Arg: col(0), Distinct: true}},
		Out:   one,
	})
	if global[0][0].Int() != 2 {
		t.Errorf("count(DISTINCT v) = %v, want 2", global[0][0])
	}

	joined := collect(t, &HashJoin{
		Left: NewValues(one, rows[:2]), Right: NewValues(one, rows[:2]),
		LeftKeys: []Expr{col(0)}, RightKeys: []Expr{col(0)},
	})
	if len(joined) != 2 {
		t.Fatalf("self-join of 2^53, 2^53+1 = %v, want each value matching only itself", joined)
	}
	for _, r := range joined {
		if r[0].Int() != r[1].Int() {
			t.Errorf("joined %v with %v", r[0], r[1])
		}
	}
}

func TestHashOperatorsEquateIntAndFloat(t *testing.T) {
	ints := types.NewSchema(types.Column{Name: "i", Kind: types.KindInt})
	floats := types.NewSchema(types.Column{Name: "f", Kind: types.KindFloat})
	left := []types.Row{intRow(3), intRow(4)}
	right := []types.Row{{types.NewFloat(3.0)}, {types.NewFloat(4.5)}}

	joined := collect(t, &HashJoin{
		Left: NewValues(ints, left), Right: NewValues(floats, right),
		LeftKeys: []Expr{col(0)}, RightKeys: []Expr{col(0)},
	})
	if len(joined) != 1 || joined[0][0].Int() != 3 || joined[0][1].Float() != 3.0 {
		t.Errorf("INT 3 must join FLOAT 3.0 and nothing else: %v", joined)
	}
	both := append(append([]types.Row{}, left...), right...)
	if got := collect(t, &Distinct{Child: NewValues(ints, both)}); len(got) != 3 {
		t.Errorf("DISTINCT over 3, 4, 3.0, 4.5 = %v, want three rows", got)
	}
}

// TestBloomAdmitsEqualKeys: the join's bloom filter hashes the join's own key
// bytes, so a filter built from one key admits every key types.Equal to it —
// across kinds, above 2^53 and at negative zero, where a float rendering does
// not read as the integer.
func TestBloomAdmitsEqualKeys(t *testing.T) {
	const big = int64(1) << 60
	at := time.Date(2026, 10, 15, 1, 2, 3, 4, time.UTC)
	for _, pair := range [][2]types.Datum{
		{types.NewInt(5), types.NewFloat(5.0)},
		{types.NewInt(big), types.NewFloat(float64(big))},
		{types.NewInt(big + 1), types.NewInt(big + 1)},
		{types.NewInt(0), types.NewFloat(math.Copysign(0, -1))},
		{types.NewString("x|4:y"), types.NewString("x|4:y")},
		{types.NewTime(at), types.NewTime(at.In(time.FixedZone("x", 3600)))},
	} {
		if !types.Equal(pair[0], pair[1]) {
			t.Fatalf("%v and %v are not equal", pair[0], pair[1])
		}
		for i := range pair {
			b := NewBloom(1)
			b.Add(pair[i])
			if other := pair[1-i]; !b.MayContain(other) {
				t.Errorf("a filter built from %s %v rejects the equal %s %v", pair[i].Kind(), pair[i], other.Kind(), other)
			}
		}
	}
}

func TestHashOperatorsKeepSeparatorStringsApart(t *testing.T) {
	str := func(a, b string) types.Row { return types.Row{types.NewString(a), types.NewString(b)} }
	two := types.NewSchema(types.Column{Name: "a", Kind: types.KindString}, types.Column{Name: "b", Kind: types.KindString})
	rows := []types.Row{
		str("x|4:y", "z"), str("x", "y|4:z"),
		str("a, b", "c"), str("a", "b, c"),
		{types.Null, types.NewString("x")}, str("NULL", "x"),
		{types.Null, types.NewString("x")},
	}
	if got := collect(t, &Distinct{Child: NewValues(two, rows)}); len(got) != 6 {
		t.Errorf("DISTINCT kept %d of 6 different rows: %v", len(got), got)
	}
	groups := collect(t, &Agg{
		Child: NewValues(two, rows), GroupBy: []Expr{col(0), col(1)},
		Aggs: []AggSpec{{Kind: AggCountStar}},
		Out:  types.NewSchema(two.Columns[0], two.Columns[1], types.Column{Name: "n", Kind: types.KindInt}),
	})
	if len(groups) != 6 || !groups[4][0].IsNull() || groups[4][2].Int() != 2 {
		t.Errorf("GROUP BY a, b = %v, want 6 groups with the NULL one counting 2", groups)
	}
}

// TestAggregateErrorsAreTheAccumulators checks that a sum over a kind that
// cannot be added and a min/max over kinds that cannot be ordered fail the
// same way however the value reaches the accumulator: pushed as a row (the
// Agg operator, the DN row sink) or folded in as a batch of datums (the DN
// vector sink).
func TestAggregateErrorsAreTheAccumulators(t *testing.T) {
	ctx := NewCtx(time.Unix(0, 0))
	mixed := []types.Datum{types.NewInt(1), types.NewString("one")}
	cases := []struct {
		kind AggKind
		vals []types.Datum
		want string
	}{
		{AggSum, []types.Datum{types.NewString("a")}, "exec: sum over TEXT"},
		{AggSum, []types.Datum{types.NewTime(time.Unix(5, 0))}, "exec: sum over TIMESTAMP"},
		{AggAvg, []types.Datum{types.NewBool(true)}, "exec: avg over BOOL"},
		{AggMin, mixed, "cannot compare"},
		{AggMax, mixed, "cannot compare"},
	}
	for _, tc := range cases {
		specs := []AggSpec{{Kind: tc.kind, Arg: col(0)}}
		var pushErr, foldErr error
		pushed := NewAggTable(nil, specs)
		for _, v := range tc.vals {
			if err := pushed.Push(ctx, types.Row{v}); err != nil {
				pushErr = err
			}
		}
		sel := make([]bool, len(tc.vals))
		for i := range sel {
			sel[i] = true
		}
		folded := NewAggTable(nil, specs)
		folded.GroupOf(nil, func(types.Row) {})
		_, foldErr = folded.FoldDatums(0, sel, nil, func(i int) types.Datum { return tc.vals[i] })
		if pushErr == nil || foldErr == nil || pushErr.Error() != foldErr.Error() || !strings.Contains(pushErr.Error(), tc.want) {
			t.Errorf("%s over %v: pushed %v, folded %v, want both %q", tc.kind, tc.vals, pushErr, foldErr, tc.want)
		}
	}
}

// TestBigIntSumChecksOnlyItsTotal: a BIGINT sum is exact whatever order its
// values come in and however they are split into partial sums, and fails
// only when its total leaves the BIGINT range — pushed as rows, folded as
// int64s or merged from data nodes' partial rows alike. An average is a
// DOUBLE, so it is the exact total's, never an error.
func TestBigIntSumChecksOnlyItsTotal(t *testing.T) {
	ctx := NewCtx(time.Unix(0, 0))
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, tc := range []struct {
		vals []int64
		sum  string // the sum's result, or its error
		avg  float64
	}{
		{[]int64{maxI, 1, -2}, "9223372036854775806", (0x1p63 - 2) / 3},
		{[]int64{minI, -1, 5}, "-9223372036854775804", (-0x1p63 + 4) / 3},
		{[]int64{maxI, maxI, maxI, -maxI, -maxI}, "9223372036854775807", maxI / 5.0},
		{[]int64{maxI, 1}, "exec: sum out of BIGINT range", 0x1p62},
		{[]int64{-1, minI}, "exec: sum out of BIGINT range", -0x1p62 - 0.5},
		{[]int64{minI, minI, minI, 1}, "exec: sum out of BIGINT range", (-0x1p63*3 + 1) / 4},
	} {
		specs := []AggSpec{{Kind: AggSum, Arg: col(0)}, {Kind: AggAvg, Arg: col(0)}}
		answer := func(table *AggTable) string {
			rows, err := table.Rows()
			if err != nil {
				return err.Error()
			}
			if got := rows[0][1].Float(); got != tc.avg {
				t.Errorf("avg%v = %v, want %v", tc.vals, got, tc.avg)
			}
			return rows[0][0].String()
		}
		n := len(tc.vals)
		sel := make([]bool, n)
		for i := range sel {
			sel[i] = true
		}
		for r := range n { // every rotation of the values
			vals := append(append([]int64(nil), tc.vals[r:]...), tc.vals[:r]...)
			pushed, folded := NewAggTable(nil, specs), NewAggTable(nil, specs)
			folded.GroupOf(nil, func(types.Row) {})
			for a := range specs {
				if _, err := folded.FoldInts(a, sel, nil, vals, nil); err != nil {
					t.Fatal(err)
				}
			}
			for _, v := range vals {
				if err := pushed.Push(ctx, types.Row{types.NewInt(v)}); err != nil {
					t.Fatal(err)
				}
			}
			// Two data nodes' partial sums of one group, merged as the
			// coordinator's Agg merges them.
			sumOf1 := []AggSpec{{Kind: AggSum, Arg: col(1)}}
			merged := NewAggTable([]Expr{col(0)}, sumOf1)
			for _, part := range [][]int64{vals[:n/2], vals[n/2:]} {
				partial := NewAggTable([]Expr{col(0)}, sumOf1)
				for _, v := range part {
					if err := partial.Push(ctx, types.Row{types.NewInt(7), types.NewInt(v)}); err != nil {
						t.Fatal(err)
					}
				}
				rows := partial.PartialRows()
				if len(rows) > max(1, len(part)) {
					t.Errorf("%v: %d partial rows", part, len(rows))
				}
				for _, row := range rows {
					if err := merged.Push(ctx, row); err != nil {
						t.Fatal(err)
					}
				}
			}
			mergedSum := "exec: sum out of BIGINT range"
			if rows, err := merged.Rows(); err == nil {
				if len(rows) != 1 {
					t.Fatalf("merged into %d groups: %v", len(rows), rows)
				}
				mergedSum = rows[0][1].String()
			}
			if p, f := answer(pushed), answer(folded); p != tc.sum || f != tc.sum || mergedSum != tc.sum {
				t.Errorf("sum%v: pushed %s, folded %s, merged %s, want %s", vals, p, f, mergedSum, tc.sum)
			}
		}
	}
}

// TestFoldsMatchPushedRows: the typed batch folds answer exactly as rows
// pushed one at a time do, in several groups at once — NULLs and unselected
// rows skipped, sums added in row order, and DOUBLE min / max ordering NaN,
// ±0 and ±Inf as types.Compare does.
func TestFoldsMatchPushedRows(t *testing.T) {
	ctx := NewCtx(time.Unix(0, 0))
	negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	floats := []float64{0, negZero, nan, 1e16, 1, -inf, -1e16, nan, inf, 1, 2.5, negZero}
	ints := []int64{5, -3, math.MaxInt64, math.MinInt64, 0, -7, -3, 5, 1, 2, 3, -4}
	nulls := make([]bool, len(ints))
	nulls[4], nulls[9] = true, true
	sel := make([]bool, len(ints))
	for i := range sel {
		sel[i] = i != 7
	}
	specs := []AggSpec{{Kind: AggCountStar}, {Kind: AggCount, Arg: col(1)}, {Kind: AggSum, Arg: col(1)},
		{Kind: AggMin, Arg: col(1)}, {Kind: AggMax, Arg: col(1)}, {Kind: AggAvg, Arg: col(1)}}
	for _, typed := range []struct {
		name string
		at   func(i int) types.Datum
		fold func(table *AggTable, a int, groups []int32) (int, error)
	}{
		{"BIGINT", func(i int) types.Datum { return types.NewInt(ints[i]) },
			func(table *AggTable, a int, groups []int32) (int, error) {
				return table.FoldInts(a, sel, groups, ints, nulls)
			}},
		{"DOUBLE", func(i int) types.Datum { return types.NewFloat(floats[i]) },
			func(table *AggTable, a int, groups []int32) (int, error) {
				return table.FoldFloats(a, sel, groups, floats, nulls)
			}},
	} {
		pushed, folded := NewAggTable([]Expr{col(0)}, specs), NewAggTable([]Expr{col(0)}, specs)
		groups := make([]int32, len(sel))
		var key []byte
		for i := range sel {
			row := types.Row{types.NewInt(int64(i % 3)), types.Null}
			if !nulls[i] {
				row[1] = typed.at(i)
			}
			key = types.AppendKey(key[:0], row[0])
			groups[i] = int32(folded.GroupOf(key, func(vals types.Row) { vals[0] = row[0] }))
			if !sel[i] {
				continue
			}
			if err := pushed.Push(ctx, row); err != nil {
				t.Fatal(err)
			}
		}
		folded.FoldRows(0, sel, groups)
		for a := 1; a < len(specs); a++ {
			if _, err := typed.fold(folded, a, groups); err != nil {
				t.Fatal(err)
			}
		}
		if want, got := fmt.Sprint(pushed.Rows()), fmt.Sprint(folded.Rows()); got != want {
			t.Errorf("%s: folded %s, pushed %s", typed.name, got, want)
		}
	}
}
