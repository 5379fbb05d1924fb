package exec

import (
	"io"
	"testing"
	"time"

	"repro/internal/types"
)

func intRow(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

func schema2(a, b string) *types.Schema {
	return types.NewSchema(types.Column{Name: a, Kind: types.KindInt}, types.Column{Name: b, Kind: types.KindInt})
}

func collect(t *testing.T, op Operator) []types.Row {
	t.Helper()
	rows, err := Collect(NewCtx(time.Unix(1000, 0)), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestConstAndColRef(t *testing.T) {
	ctx := NewCtx(time.Now())
	row := intRow(10, 20)
	v, err := (&Const{Value: types.NewInt(5)}).Eval(ctx, row)
	if err != nil || v.Int() != 5 {
		t.Fatal(err, v)
	}
	v, err = (&ColRef{Index: 1}).Eval(ctx, row)
	if err != nil || v.Int() != 20 {
		t.Fatal(err, v)
	}
	if _, err := (&ColRef{Index: 5}).Eval(ctx, row); err == nil {
		t.Error("out-of-range colref must fail")
	}
}

func TestBinOpComparisons(t *testing.T) {
	ctx := NewCtx(time.Now())
	mk := func(op string, l, r int64) bool {
		e := &BinOp{Op: op, Left: &Const{Value: types.NewInt(l)}, Right: &Const{Value: types.NewInt(r)}}
		v, err := e.Eval(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v.Bool()
	}
	if !mk("=", 3, 3) || mk("=", 3, 4) || !mk("<", 1, 2) || !mk(">=", 2, 2) || !mk("<>", 1, 2) {
		t.Error("comparison table broken")
	}
}

func TestArithmetic(t *testing.T) {
	ctx := NewCtx(time.Now())
	eval := func(op string, l, r types.Datum) types.Datum {
		v, err := (&BinOp{Op: op, Left: &Const{Value: l}, Right: &Const{Value: r}}).Eval(ctx, nil)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return v
	}
	if v := eval("+", types.NewInt(2), types.NewInt(3)); v.Int() != 5 {
		t.Error("int add")
	}
	if v := eval("/", types.NewInt(7), types.NewInt(2)); v.Int() != 3 {
		t.Error("int div truncates")
	}
	if v := eval("/", types.NewFloat(7), types.NewInt(2)); v.Float() != 3.5 {
		t.Error("mixed div is float")
	}
	if v := eval("%", types.NewInt(7), types.NewInt(3)); v.Int() != 1 {
		t.Error("mod")
	}
	// Division by zero errors.
	if _, err := (&BinOp{Op: "/", Left: &Const{Value: types.NewInt(1)}, Right: &Const{Value: types.NewInt(0)}}).Eval(ctx, nil); err == nil {
		t.Error("div by zero must error")
	}
}

func TestTimestampArithmetic(t *testing.T) {
	ctx := NewCtx(time.Now())
	t0 := time.Unix(100, 0)
	t1 := time.Unix(160, 0)
	diff, err := (&BinOp{Op: "-", Left: &Const{Value: types.NewTime(t1)}, Right: &Const{Value: types.NewTime(t0)}}).Eval(ctx, nil)
	if err != nil || diff.Int() != int64(60*time.Second) {
		t.Fatalf("ts-ts = %v, %v", diff, err)
	}
	plus, err := (&BinOp{Op: "+", Left: &Const{Value: types.NewTime(t0)}, Right: &Const{Value: types.NewInt(int64(time.Minute))}}).Eval(ctx, nil)
	if err != nil || !plus.Time().Equal(t0.Add(time.Minute)) {
		t.Fatalf("ts+int = %v, %v", plus, err)
	}
}

func TestTernaryLogic(t *testing.T) {
	ctx := NewCtx(time.Now())
	null := &Const{Value: types.Null}
	tru := &Const{Value: types.NewBool(true)}
	fls := &Const{Value: types.NewBool(false)}

	v, _ := (&BinOp{Op: "AND", Left: fls, Right: null}).Eval(ctx, nil)
	if v.IsNull() || v.Bool() {
		t.Error("false AND NULL = false")
	}
	v, _ = (&BinOp{Op: "AND", Left: tru, Right: null}).Eval(ctx, nil)
	if !v.IsNull() {
		t.Error("true AND NULL = NULL")
	}
	v, _ = (&BinOp{Op: "OR", Left: tru, Right: null}).Eval(ctx, nil)
	if v.IsNull() || !v.Bool() {
		t.Error("true OR NULL = true")
	}
	v, _ = (&BinOp{Op: "OR", Left: fls, Right: null}).Eval(ctx, nil)
	if !v.IsNull() {
		t.Error("false OR NULL = NULL")
	}
	v, _ = (&BinOp{Op: "=", Left: null, Right: null}).Eval(ctx, nil)
	if !v.IsNull() {
		t.Error("NULL = NULL is NULL")
	}
	v, _ = (&Not{Child: null}).Eval(ctx, nil)
	if !v.IsNull() {
		t.Error("NOT NULL is NULL")
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_y%", false},
		{"", "%", true},
		{"abc", "%%c", true},
		{"abc", "_", false},
	}
	ctx := NewCtx(time.Now())
	for _, c := range cases {
		e := &BinOp{Op: "LIKE", Left: &Const{Value: types.NewString(c.s)}, Right: &Const{Value: types.NewString(c.p)}}
		v, err := e.Eval(ctx, nil)
		if err != nil || v.Bool() != c.want {
			t.Errorf("LIKE(%q, %q) = %v, %v; want %v", c.s, c.p, v, err, c.want)
		}
	}
}

func TestInListAndBetween(t *testing.T) {
	ctx := NewCtx(time.Now())
	in := &InListExpr{
		Child: &Const{Value: types.NewInt(2)},
		List:  []Expr{&Const{Value: types.NewInt(1)}, &Const{Value: types.NewInt(2)}},
	}
	v, _ := in.Eval(ctx, nil)
	if !v.Bool() {
		t.Error("2 IN (1,2)")
	}
	in.Child = &Const{Value: types.NewInt(9)}
	v, _ = in.Eval(ctx, nil)
	if v.Bool() {
		t.Error("9 IN (1,2) must be false")
	}
	// NOT IN with NULL in list is NULL when no match.
	in.Not = true
	in.List = append(in.List, &Const{Value: types.Null})
	v, _ = in.Eval(ctx, nil)
	if !v.IsNull() {
		t.Error("9 NOT IN (1,2,NULL) is NULL")
	}
	btw := &BetweenExpr{
		Child: &Const{Value: types.NewInt(5)},
		Lo:    &Const{Value: types.NewInt(1)},
		Hi:    &Const{Value: types.NewInt(10)},
	}
	v, _ = btw.Eval(ctx, nil)
	if !v.Bool() {
		t.Error("5 BETWEEN 1 AND 10")
	}
}

func TestFunctions(t *testing.T) {
	ctx := NewCtx(time.Unix(42, 0))
	eval := func(name string, args ...Expr) types.Datum {
		v, err := (&Func{Name: name, Args: args}).Eval(ctx, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	if v := eval("now"); !v.Time().Equal(time.Unix(42, 0)) {
		t.Error("now() should use ctx clock")
	}
	if v := eval("abs", &Const{Value: types.NewInt(-7)}); v.Int() != 7 {
		t.Error("abs")
	}
	if v := eval("upper", &Const{Value: types.NewString("ab")}); v.Str() != "AB" {
		t.Error("upper")
	}
	if v := eval("length", &Const{Value: types.NewString("abc")}); v.Int() != 3 {
		t.Error("length")
	}
	if v := eval("coalesce", &Const{Value: types.Null}, &Const{Value: types.NewInt(4)}); v.Int() != 4 {
		t.Error("coalesce")
	}
	if v := eval("floor", &Const{Value: types.NewFloat(2.7)}); v.Int() != 2 {
		t.Error("floor")
	}
	if v := eval("ceil", &Const{Value: types.NewFloat(2.1)}); v.Int() != 3 {
		t.Error("ceil")
	}
	if v := eval("greatest", &Const{Value: types.NewInt(1)}, &Const{Value: types.NewInt(9)}); v.Int() != 9 {
		t.Error("greatest")
	}
	if v := eval("nullif", &Const{Value: types.NewInt(3)}, &Const{Value: types.NewInt(3)}); !v.IsNull() {
		t.Error("nullif equal -> NULL")
	}
	if _, err := (&Func{Name: "frobnicate"}).Eval(ctx, nil); err == nil {
		t.Error("unknown function must fail")
	}
}

func TestFilterProject(t *testing.T) {
	src := NewValues(schema2("a", "b"), []types.Row{intRow(1, 10), intRow(2, 20), intRow(3, 30)})
	f := &Filter{Child: src, Pred: &BinOp{Op: ">", Left: &ColRef{Index: 0}, Right: &Const{Value: types.NewInt(1)}}}
	p := &Project{
		Child: f,
		Exprs: []Expr{&BinOp{Op: "+", Left: &ColRef{Index: 0}, Right: &ColRef{Index: 1}}},
		Out:   types.NewSchema(types.Column{Name: "s", Kind: types.KindInt}),
	}
	rows := collect(t, p)
	if len(rows) != 2 || rows[0][0].Int() != 22 || rows[1][0].Int() != 33 {
		t.Errorf("rows = %v", rows)
	}
}

func TestHashJoinInner(t *testing.T) {
	left := NewValues(schema2("a", "b"), []types.Row{intRow(1, 10), intRow(2, 20), intRow(3, 30)})
	right := NewValues(schema2("c", "d"), []types.Row{intRow(2, 200), intRow(3, 300), intRow(3, 301), intRow(9, 900)})
	j := &HashJoin{
		Type: InnerJoin, Left: left, Right: right,
		LeftKeys:  []Expr{&ColRef{Index: 0}},
		RightKeys: []Expr{&ColRef{Index: 0}},
	}
	rows := collect(t, j)
	if len(rows) != 3 {
		t.Fatalf("join rows = %d: %v", len(rows), rows)
	}
	for _, r := range rows {
		if r[0].Int() != r[2].Int() {
			t.Errorf("join key mismatch: %v", r)
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	left := NewValues(schema2("a", "b"), []types.Row{intRow(1, 10), intRow(2, 20)})
	right := NewValues(schema2("c", "d"), []types.Row{intRow(2, 200)})
	j := &HashJoin{
		Type: LeftJoin, Left: left, Right: right,
		LeftKeys:  []Expr{&ColRef{Index: 0}},
		RightKeys: []Expr{&ColRef{Index: 0}},
	}
	rows := collect(t, j)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	var unmatched types.Row
	for _, r := range rows {
		if r[0].Int() == 1 {
			unmatched = r
		}
	}
	if unmatched == nil || !unmatched[2].IsNull() || !unmatched[3].IsNull() {
		t.Errorf("left outer null-extension broken: %v", unmatched)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := NewValues(schema2("a", "b"), []types.Row{{types.Null, types.NewInt(1)}})
	right := NewValues(schema2("c", "d"), []types.Row{{types.Null, types.NewInt(2)}})
	j := &HashJoin{
		Type: InnerJoin, Left: left, Right: right,
		LeftKeys:  []Expr{&ColRef{Index: 0}},
		RightKeys: []Expr{&ColRef{Index: 0}},
	}
	if rows := collect(t, j); len(rows) != 0 {
		t.Errorf("NULL keys must not join: %v", rows)
	}
}

func TestNestedLoopCrossAndNonEqui(t *testing.T) {
	left := NewValues(schema2("a", "b"), []types.Row{intRow(1, 0), intRow(5, 0)})
	right := NewValues(schema2("c", "d"), []types.Row{intRow(3, 0), intRow(4, 0)})
	cross := &NestedLoopJoin{Type: CrossJoin, Left: left, Right: right}
	if rows := collect(t, cross); len(rows) != 4 {
		t.Errorf("cross join rows = %d", len(rows))
	}
	left2 := NewValues(schema2("a", "b"), []types.Row{intRow(1, 0), intRow(5, 0)})
	right2 := NewValues(schema2("c", "d"), []types.Row{intRow(3, 0), intRow(4, 0)})
	nl := &NestedLoopJoin{
		Type: InnerJoin, Left: left2, Right: right2,
		On: &BinOp{Op: "<", Left: &ColRef{Index: 0}, Right: &ColRef{Index: 2}},
	}
	rows := collect(t, nl)
	if len(rows) != 2 { // 1<3, 1<4
		t.Errorf("non-equi join rows = %v", rows)
	}
}

func TestAggGrouped(t *testing.T) {
	src := NewValues(schema2("g", "v"), []types.Row{
		intRow(1, 10), intRow(1, 20), intRow(2, 5), {types.NewInt(2), types.Null},
	})
	out := types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "cnt", Kind: types.KindInt},
		types.Column{Name: "sum", Kind: types.KindInt},
		types.Column{Name: "avg", Kind: types.KindFloat},
		types.Column{Name: "min", Kind: types.KindInt},
		types.Column{Name: "max", Kind: types.KindInt},
	)
	a := &Agg{
		Child:   src,
		GroupBy: []Expr{&ColRef{Index: 0}},
		Aggs: []AggSpec{
			{Kind: AggCountStar},
			{Kind: AggSum, Arg: &ColRef{Index: 1}},
			{Kind: AggAvg, Arg: &ColRef{Index: 1}},
			{Kind: AggMin, Arg: &ColRef{Index: 1}},
			{Kind: AggMax, Arg: &ColRef{Index: 1}},
		},
		Out: out,
	}
	rows := collect(t, a)
	if len(rows) != 2 {
		t.Fatalf("groups = %v", rows)
	}
	byG := map[int64]types.Row{}
	for _, r := range rows {
		byG[r[0].Int()] = r
	}
	g1 := byG[1]
	if g1[1].Int() != 2 || g1[2].Int() != 30 || g1[3].Float() != 15 || g1[4].Int() != 10 || g1[5].Int() != 20 {
		t.Errorf("group 1 = %v", g1)
	}
	g2 := byG[2]
	// count(*) counts the NULL row; sum/min/max skip it.
	if g2[1].Int() != 2 || g2[2].Int() != 5 || g2[4].Int() != 5 {
		t.Errorf("group 2 = %v", g2)
	}
}

func TestAggNoGroupsEmptyInput(t *testing.T) {
	src := NewValues(schema2("g", "v"), nil)
	a := &Agg{
		Child: src,
		Aggs:  []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: &ColRef{Index: 1}}},
		Out:   schema2("cnt", "sum"),
	}
	rows := collect(t, a)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty agg = %v", rows[0])
	}
	// Grouped agg over empty input emits nothing.
	src2 := NewValues(schema2("g", "v"), nil)
	a2 := &Agg{Child: src2, GroupBy: []Expr{&ColRef{Index: 0}}, Aggs: []AggSpec{{Kind: AggCountStar}}, Out: schema2("g", "cnt")}
	if rows := collect(t, a2); len(rows) != 0 {
		t.Errorf("grouped empty agg = %v", rows)
	}
}

func TestAggDistinct(t *testing.T) {
	src := NewValues(schema2("g", "v"), []types.Row{intRow(1, 5), intRow(1, 5), intRow(1, 7)})
	a := &Agg{
		Child: src,
		Aggs:  []AggSpec{{Kind: AggCount, Arg: &ColRef{Index: 1}, Distinct: true}, {Kind: AggSum, Arg: &ColRef{Index: 1}, Distinct: true}},
		Out:   schema2("cnt", "sum"),
	}
	rows := collect(t, a)
	if rows[0][0].Int() != 2 || rows[0][1].Int() != 12 {
		t.Errorf("distinct agg = %v", rows[0])
	}
}

func TestSortLimitDistinct(t *testing.T) {
	src := NewValues(schema2("a", "b"), []types.Row{intRow(3, 1), intRow(1, 2), intRow(2, 3), intRow(1, 4)})
	s := &Sort{Child: src, Keys: []SortKey{{Expr: &ColRef{Index: 0}}, {Expr: &ColRef{Index: 1}, Desc: true}}}
	rows := collect(t, s)
	want := [][2]int64{{1, 4}, {1, 2}, {2, 3}, {3, 1}}
	for i, w := range want {
		if rows[i][0].Int() != w[0] || rows[i][1].Int() != w[1] {
			t.Fatalf("sorted[%d] = %v, want %v", i, rows[i], w)
		}
	}
	src2 := NewValues(schema2("a", "b"), []types.Row{intRow(1, 1), intRow(2, 2), intRow(3, 3), intRow(4, 4)})
	l := &Limit{Child: src2, Count: 2, Offset: 1}
	rows = collect(t, l)
	if len(rows) != 2 || rows[0][0].Int() != 2 || rows[1][0].Int() != 3 {
		t.Errorf("limit rows = %v", rows)
	}
	src3 := NewValues(schema2("a", "b"), []types.Row{intRow(1, 1), intRow(1, 1), intRow(2, 2)})
	d := &Distinct{Child: src3}
	if rows := collect(t, d); len(rows) != 2 {
		t.Errorf("distinct rows = %v", rows)
	}
}

func TestSubplanScalar(t *testing.T) {
	ctx := NewCtx(time.Now())
	sub := &Subplan{
		Plan: NewValues(types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}), []types.Row{intRow(42)}),
		Mode: SubplanScalar,
	}
	v, err := sub.Eval(ctx, nil)
	if err != nil || v.Int() != 42 {
		t.Fatal(err, v)
	}
	// Zero rows -> NULL.
	sub2 := &Subplan{Plan: NewValues(schema2("x", "y").Project([]int{0}), nil), Mode: SubplanScalar}
	v, err = sub2.Eval(ctx, nil)
	if err != nil || !v.IsNull() {
		t.Fatal("empty scalar subquery should be NULL", err, v)
	}
	// Two rows -> error.
	sub3 := &Subplan{
		Plan: NewValues(types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}), []types.Row{intRow(1), intRow(2)}),
		Mode: SubplanScalar,
	}
	if _, err := sub3.Eval(ctx, nil); err == nil {
		t.Error("multi-row scalar subquery must error")
	}
}

func TestSubplanCorrelatedOuterRef(t *testing.T) {
	// Subplan filters an inner table by the outer row's value: for outer
	// row (k), returns k*10 from the inner Values.
	inner := NewValues(schema2("k", "v"), []types.Row{intRow(1, 10), intRow(2, 20), intRow(3, 30)})
	subPlan := &Project{
		Child: &Filter{
			Child: inner,
			Pred:  &BinOp{Op: "=", Left: &ColRef{Index: 0}, Right: &OuterRef{Up: 1, Index: 0}},
		},
		Exprs: []Expr{&ColRef{Index: 1}},
		Out:   types.NewSchema(types.Column{Name: "v", Kind: types.KindInt}),
	}
	sub := &Subplan{Plan: subPlan, Mode: SubplanScalar, Correlated: true}

	ctx := NewCtx(time.Now())
	for k := int64(1); k <= 3; k++ {
		v, err := sub.Eval(ctx, intRow(k))
		if err != nil || v.Int() != k*10 {
			t.Fatalf("correlated subquery for k=%d: %v, %v", k, v, err)
		}
	}
	if len(ctx.OuterRows) != 0 {
		t.Error("outer row stack leaked")
	}
}

func TestSubplanInAny(t *testing.T) {
	ctx := NewCtx(time.Now())
	sub := &Subplan{
		Plan:   NewValues(types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}), []types.Row{intRow(1), intRow(2)}),
		Mode:   SubplanInAny,
		Needle: &Const{Value: types.NewInt(2)},
	}
	v, err := sub.Eval(ctx, nil)
	if err != nil || !v.Bool() {
		t.Fatal("2 IN (1,2) via subplan", err, v)
	}
}

func TestUncorrelatedSubplanCaches(t *testing.T) {
	opens := 0
	src := NewSource("s", types.NewSchema(types.Column{Name: "x", Kind: types.KindInt}), func(emit func(types.Row) bool) {
		opens++
		emit(intRow(7))
	})
	sub := &Subplan{Plan: src, Mode: SubplanScalar, Correlated: false}
	ctx := NewCtx(time.Now())
	for i := 0; i < 5; i++ {
		if v, err := sub.Eval(ctx, nil); err != nil || v.Int() != 7 {
			t.Fatal(err, v)
		}
	}
	if opens != 1 {
		t.Errorf("uncorrelated subplan executed %d times, want 1", opens)
	}
}

func TestCountedTracksRows(t *testing.T) {
	src := NewValues(schema2("a", "b"), []types.Row{intRow(1, 1), intRow(2, 2), intRow(3, 3)})
	c := &Counted{Child: src, StepText: "SCAN(T)", EstimatedRows: 100}
	rows := collect(t, c)
	if len(rows) != 3 || c.ActualRows != 3 {
		t.Errorf("counted = %d, rows = %d", c.ActualRows, len(rows))
	}
	// Re-open resets.
	rows = collect(t, c)
	if c.ActualRows != 3 {
		t.Errorf("after reopen counted = %d", c.ActualRows)
	}
}

func TestCaseWhen(t *testing.T) {
	ctx := NewCtx(time.Now())
	searched := &CaseWhen{
		Whens: []Expr{&BinOp{Op: ">", Left: &ColRef{Index: 0}, Right: &Const{Value: types.NewInt(5)}}},
		Thens: []Expr{&Const{Value: types.NewString("big")}},
		Else:  &Const{Value: types.NewString("small")},
	}
	v, _ := searched.Eval(ctx, intRow(10))
	if v.Str() != "big" {
		t.Error("searched case")
	}
	v, _ = searched.Eval(ctx, intRow(1))
	if v.Str() != "small" {
		t.Error("searched case else")
	}
	operand := &CaseWhen{
		Operand: &ColRef{Index: 0},
		Whens:   []Expr{&Const{Value: types.NewInt(1)}},
		Thens:   []Expr{&Const{Value: types.NewString("one")}},
	}
	v, _ = operand.Eval(ctx, intRow(2))
	if !v.IsNull() {
		t.Error("operand case no-match without else is NULL")
	}
}

func TestSourceReopens(t *testing.T) {
	calls := 0
	s := NewSource("s", schema2("a", "b"), func(emit func(types.Row) bool) {
		calls++
		emit(intRow(int64(calls), 0))
	})
	ctx := NewCtx(time.Now())
	for i := 1; i <= 3; i++ {
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		r, err := s.Next(ctx)
		if err != nil || r[0].Int() != int64(i) {
			t.Fatalf("reopen %d: %v %v", i, r, err)
		}
		if _, err := s.Next(ctx); err != io.EOF {
			t.Fatal("want EOF")
		}
		s.Close()
	}
}
