package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestSplitTerms: the one reading of a pushed predicate the key probe, the
// zone maps and the vector kernels share — which conjuncts are `column op
// value`, how they are normalized, and which values resolve.
func TestSplitTerms(t *testing.T) {
	col := func(i int) Expr { return &ColRef{Index: i, Name: fmt.Sprintf("c%d", i)} }
	lit := func(v int64) Expr { return &Const{Value: types.NewInt(v)} }
	bin := func(op string, l, r Expr) Expr { return &BinOp{Op: op, Left: l, Right: r} }
	pred := bin("AND",
		bin("AND", bin("=", col(0), &Param{Index: 0}), bin(">", lit(9), col(1))),
		bin("AND",
			bin("AND", &BetweenExpr{Child: col(2), Lo: &Neg{Child: &Param{Index: 1}}, Hi: lit(7)}, &InListExpr{Child: col(3), List: []Expr{lit(1), &Param{Index: 2}}}),
			bin("AND",
				bin("OR", bin("=", col(0), lit(1)), bin("=", col(0), lit(2))),
				bin("AND", &InListExpr{Child: col(3), List: []Expr{lit(1)}, Not: true},
					bin("AND", bin("=", col(4), col(5)), bin("<", bin("+", col(4), lit(1)), lit(3)))))))
	terms, rest := SplitTerms(pred)
	var got []string
	for _, tm := range terms {
		vals := make([]string, len(tm.Vals))
		for i, v := range tm.Vals {
			vals[i] = v.String()
		}
		got = append(got, fmt.Sprintf("c%d %s %s", tm.Col, tm.Op, strings.Join(vals, ",")))
	}
	want := []string{"c0 = $1", "c1 < 9", "c2 >= (-$2)", "c2 <= 7", "c3 IN 1,$3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("terms = %q, want %q", got, want)
	}
	if terms[2].Conj != terms[3].Conj {
		t.Error("the two terms of a BETWEEN name different conjuncts")
	}
	wantRest := "(((((c0 = 1) OR (c0 = 2)) AND (c3 NOT IN (1))) AND (c4 = c5)) AND ((c4 + 1) < 3))"
	if rest == nil || rest.String() != wantRest {
		t.Errorf("rest = %v, want %s", rest, wantRest)
	}
	if terms, rest := SplitTerms(nil); terms != nil || rest != nil {
		t.Errorf("SplitTerms(nil) = %v, %v", terms, rest)
	}

	// Resolution is per execution, against the column's kind.
	ctx := &Ctx{Params: []types.Datum{types.NewInt(5), types.NewFloat(2.5), types.Null}}
	if v, ok := terms[0].Resolve(ctx, types.KindInt, nil); !ok || fmt.Sprint(v) != "[5]" {
		t.Errorf("c0 = $1 resolves to %v, %v", v, ok)
	}
	if v, ok := terms[2].Resolve(ctx, types.KindInt, nil); !ok || fmt.Sprint(v) != "[-2.5]" {
		t.Errorf("c2 >= -$2 resolves to %v, %v (a DOUBLE orders against a BIGINT column)", v, ok)
	}
	if _, ok := terms[0].Resolve(ctx, types.KindString, nil); ok {
		t.Error("a BIGINT value resolved against a TEXT column")
	}
	if _, ok := terms[4].Resolve(ctx, types.KindInt, nil); ok {
		t.Error("an IN list holding NULL resolved")
	}
	if _, ok := terms[0].Resolve(&Ctx{}, types.KindInt, nil); ok {
		t.Error("an unbound parameter resolved")
	}
}
