package exec

import (
	"io"
	"testing"
	"time"

	"repro/internal/types"
)

// TestExprCanonicalStrings pins the canonical rendering of every compiled
// expression node — the learning optimizer's step keys are built from
// these strings, so any change here silently invalidates stored plans.
func TestExprCanonicalStrings(t *testing.T) {
	colA := &ColRef{Index: 0, Name: "T.A"}
	colAnon := &ColRef{Index: 2}
	outer := &OuterRef{Up: 1, Index: 3, Name: "O.X"}
	outerAnon := &OuterRef{Up: 2, Index: 1}
	cases := []struct {
		e    Expr
		want string
	}{
		{&Const{Value: types.NewInt(5)}, "5"},
		{&Const{Value: types.NewString("s")}, "'s'"},
		{colA, "T.A"},
		{colAnon, "$2"},
		{outer, "O.X"},
		{outerAnon, "outer(2,$1)"},
		{&BinOp{Op: ">", Left: colA, Right: &Const{Value: types.NewInt(10)}}, "(T.A > 10)"},
		{&Not{Child: colA}, "(NOT T.A)"},
		{&Neg{Child: colA}, "(-T.A)"},
		{&IsNullExpr{Child: colA}, "(T.A IS NULL)"},
		{&IsNullExpr{Child: colA, Not: true}, "(T.A IS NOT NULL)"},
		{&InListExpr{Child: colA, List: []Expr{&Const{Value: types.NewInt(1)}, &Const{Value: types.NewInt(2)}}}, "(T.A IN (1,2))"},
		{&InListExpr{Child: colA, Not: true, List: []Expr{&Const{Value: types.NewInt(1)}}}, "(T.A NOT IN (1))"},
		{&BetweenExpr{Child: colA, Lo: &Const{Value: types.NewInt(1)}, Hi: &Const{Value: types.NewInt(9)}}, "(T.A BETWEEN 1 AND 9)"},
		{&BetweenExpr{Child: colA, Not: true, Lo: &Const{Value: types.NewInt(1)}, Hi: &Const{Value: types.NewInt(9)}}, "(T.A NOT BETWEEN 1 AND 9)"},
		{&Func{Name: "abs", Args: []Expr{colA}}, "abs(T.A)"},
		{&CaseWhen{Operand: colA, Whens: []Expr{&Const{Value: types.NewInt(1)}}, Thens: []Expr{&Const{Value: types.NewString("one")}}, Else: &Const{Value: types.Null}},
			"CASE T.A WHEN 1 THEN 'one' ELSE NULL END"},
		{&Subplan{}, "(subquery)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestNotNegErrors(t *testing.T) {
	ctx := NewCtx(time.Now())
	if _, err := (&Not{Child: &Const{Value: types.NewInt(1)}}).Eval(ctx, nil); err == nil {
		t.Error("NOT over int must fail")
	}
	if _, err := (&Neg{Child: &Const{Value: types.NewString("x")}}).Eval(ctx, nil); err == nil {
		t.Error("negating a string must fail")
	}
	if v, err := (&Neg{Child: &Const{Value: types.NewFloat(2.5)}}).Eval(ctx, nil); err != nil || v.Float() != -2.5 {
		t.Errorf("neg float = %v, %v", v, err)
	}
	if v, err := (&Neg{Child: &Const{Value: types.Null}}).Eval(ctx, nil); err != nil || !v.IsNull() {
		t.Errorf("neg null = %v, %v", v, err)
	}
}

func TestOuterRefErrors(t *testing.T) {
	ctx := NewCtx(time.Now())
	o := &OuterRef{Up: 1, Index: 0}
	if _, err := o.Eval(ctx, nil); err == nil {
		t.Error("outer ref with empty stack must fail")
	}
	ctx.OuterRows = append(ctx.OuterRows, types.Row{types.NewInt(9)})
	if v, err := o.Eval(ctx, nil); err != nil || v.Int() != 9 {
		t.Errorf("outer ref = %v, %v", v, err)
	}
	bad := &OuterRef{Up: 1, Index: 5}
	if _, err := bad.Eval(ctx, nil); err == nil {
		t.Error("out-of-range outer index must fail")
	}
}

func TestTimeArithErrors(t *testing.T) {
	ctx := NewCtx(time.Now())
	ts := &Const{Value: types.NewTime(time.Unix(0, 0))}
	str := &Const{Value: types.NewString("x")}
	if _, err := (&BinOp{Op: "*", Left: ts, Right: ts}).Eval(ctx, nil); err == nil {
		t.Error("ts * ts must fail")
	}
	if _, err := (&BinOp{Op: "+", Left: ts, Right: str}).Eval(ctx, nil); err == nil {
		t.Error("ts + string must fail")
	}
	// int + ts commutes.
	v, err := (&BinOp{Op: "+", Left: &Const{Value: types.NewInt(int64(time.Second))}, Right: ts}).Eval(ctx, nil)
	if err != nil || v.Time().Unix() != 1 {
		t.Errorf("int+ts = %v, %v", v, err)
	}
}

func TestWalkExprAndPartitionPure(t *testing.T) {
	e := &BinOp{Op: "AND",
		Left:  &BetweenExpr{Child: &ColRef{Index: 0}, Lo: &Const{Value: types.NewInt(1)}, Hi: &Const{Value: types.NewInt(2)}},
		Right: &Func{Name: "abs", Args: []Expr{&Neg{Child: &ColRef{Index: 1}}}},
	}
	n := 0
	WalkExpr(e, func(Expr) bool { n++; return true })
	if n != 8 {
		t.Errorf("walk visited %d nodes, want 8", n)
	}
	if !IsPartitionPure(e) {
		t.Error("pure expr misclassified")
	}
	if IsPartitionPure(&BinOp{Op: "=", Left: &ColRef{Index: 0}, Right: &OuterRef{Up: 1}}) {
		t.Error("outer ref must not be partition-pure")
	}
	if IsPartitionPure(&Subplan{}) {
		t.Error("subplan must not be partition-pure")
	}
	// Early-exit visitor.
	n = 0
	WalkExpr(e, func(Expr) bool { n++; return false })
	if n != 1 {
		t.Errorf("early exit visited %d", n)
	}
}

func TestMaterialRefSharing(t *testing.T) {
	opens := 0
	src := NewSource("s", schema2("a", "b"), func(emit func(types.Row) bool) {
		opens++
		emit(intRow(1, 2))
		emit(intRow(3, 4))
	})
	state := NewMatState(src)
	r1 := &MaterialRef{State: state, Out: schema2("a", "b")}
	r2 := &MaterialRef{State: state, Out: schema2("a", "b")}
	ctx := NewCtx(time.Now())
	rows1, err := Collect(ctx, r1)
	if err != nil || len(rows1) != 2 {
		t.Fatal(err, rows1)
	}
	rows2, err := Collect(ctx, r2)
	if err != nil || len(rows2) != 2 {
		t.Fatal(err, rows2)
	}
	if opens != 1 {
		t.Errorf("shared material executed %d times, want 1", opens)
	}
	// The cache lasts one execution: re-opened under a new Ctx (a prepared
	// plan's next run) the body executes again.
	Collect(NewCtx(time.Now()), r1)
	if opens != 2 {
		t.Errorf("under a new Ctx, executions = %d, want 2", opens)
	}
	if r1.Schema().Len() != 2 {
		t.Error("schema lost")
	}
}

func TestConcatOperator(t *testing.T) {
	ctx := NewCtx(time.Now())
	a := NewValues(schema2("x", "y"), []types.Row{intRow(1, 1)})
	b := NewValues(schema2("x", "y"), []types.Row{intRow(2, 2), intRow(3, 3)})
	c := &Concat{Children: []Operator{a, b}, Out: schema2("x", "y")}
	rows, err := Collect(ctx, c)
	if err != nil || len(rows) != 3 {
		t.Fatal(err, rows)
	}
	if rows[0][0].Int() != 1 || rows[2][0].Int() != 3 {
		t.Errorf("order = %v", rows)
	}
	// Empty concat.
	empty := &Concat{Out: schema2("x", "y")}
	if err := empty.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Next(ctx); err != io.EOF {
		t.Error("empty concat should EOF")
	}
	empty.Close()
}

func TestLikeEdgeCases(t *testing.T) {
	ctx := NewCtx(time.Now())
	eval := func(s, p string) types.Datum {
		v, err := (&BinOp{Op: "LIKE", Left: &Const{Value: types.NewString(s)}, Right: &Const{Value: types.NewString(p)}}).Eval(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !eval("", "").Bool() {
		t.Error("empty LIKE empty")
	}
	if eval("a", "").Bool() {
		t.Error("'a' LIKE '' must be false")
	}
	if !eval("abc", "a_c").Bool() {
		t.Error("underscore")
	}
	if _, err := (&BinOp{Op: "LIKE", Left: &Const{Value: types.NewInt(1)}, Right: &Const{Value: types.NewString("%")}}).Eval(ctx, nil); err == nil {
		t.Error("LIKE over int must fail")
	}
}

func TestConcatOperatorStringAndArith(t *testing.T) {
	ctx := NewCtx(time.Now())
	v, err := (&BinOp{Op: "||", Left: &Const{Value: types.NewString("a")}, Right: &Const{Value: types.NewInt(1)}}).Eval(ctx, nil)
	if err != nil || v.Str() != "a1" {
		t.Errorf("|| = %v, %v", v, err)
	}
	// String + string works as concat.
	v, err = (&BinOp{Op: "+", Left: &Const{Value: types.NewString("a")}, Right: &Const{Value: types.NewString("b")}}).Eval(ctx, nil)
	if err != nil || v.Str() != "ab" {
		t.Errorf("string + string = %v, %v", v, err)
	}
	// Unknown operator errors.
	if _, err := (&BinOp{Op: "??", Left: &Const{Value: types.NewInt(1)}, Right: &Const{Value: types.NewInt(1)}}).Eval(ctx, nil); err == nil {
		t.Error("unknown op must fail")
	}
}
