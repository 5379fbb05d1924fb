package exec

import (
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
// Agg operator, the DN row sink) or folded in through the typed entry
// points (the DN vector sink).
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
		pushed, folded := NewAggTable(nil, specs), NewAggTable(nil, specs)
		g := folded.Group(nil, func(types.Row) {})
		var pushErr, foldErr error
		for _, v := range tc.vals {
			if err := pushed.Push(ctx, types.Row{v}); err != nil {
				pushErr = err
			}
			if err := g.AddDatum(0, v); err != nil {
				foldErr = err
			}
		}
		if pushErr == nil || foldErr == nil || pushErr.Error() != foldErr.Error() || !strings.Contains(pushErr.Error(), tc.want) {
			t.Errorf("%s over %v: pushed %v, folded %v, want both %q", tc.kind, tc.vals, pushErr, foldErr, tc.want)
		}
	}
}
