package cluster

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/exec"
	"repro/internal/types"
)

var kernelOps = []string{"=", "<>", "<", "<=", ">", ">="}

// kernelConsts are the values the kernels are tested against: each of a
// few BIGINT extremes as a BIGINT and as a DOUBLE, then DOUBLE-only values.
func kernelConsts() []types.Datum {
	var out []types.Datum
	for _, v := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 1<<53 - 1, 1 << 53, 1<<53 + 1} {
		out = append(out, types.NewInt(v), types.NewFloat(float64(v)))
	}
	for _, f := range []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 2.5} {
		out = append(out, types.NewFloat(f))
	}
	return out
}

// kernelVectors returns a BIGINT and a DOUBLE vector holding NULLs, NaN,
// the constants' neighbourhoods and the extremes of each kind.
func kernelVectors() []*colstore.Vector {
	iv := &colstore.Vector{Kind: types.KindInt}
	fv := &colstore.Vector{Kind: types.KindFloat}
	for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, 3,
		1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, math.MaxInt64 - 1, math.MaxInt64} {
		iv.Ints = append(iv.Ints, v)
	}
	for _, f := range []float64{math.Inf(-1), -math.MaxFloat64, -(1 << 63), -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2, 2.5, 3, 1<<53 - 1, 1 << 53, 1<<53 + 2,
		1 << 63, math.MaxFloat64, math.Inf(1), math.NaN(), -math.NaN()} {
		fv.Floats = append(fv.Floats, f)
	}
	// Two NULLs last, over values many kernels would keep.
	iv.Ints = append(iv.Ints, 0, math.MaxInt64)
	fv.Floats = append(fv.Floats, 0, math.NaN())
	for _, v := range []*colstore.Vector{iv, fv} {
		v.Nulls = make([]bool, v.Len())
		v.Nulls[v.Len()-1], v.Nulls[v.Len()-2] = true, true
	}
	return []*colstore.Vector{iv, fv}
}

// checkKernel applies the kernel of the conjunction of terms (each a
// comparison of the vector's column with a value) to vec and compares its
// selection with exec.EvalBool of the conjunction, row by row.
func checkKernel(t *testing.T, vec *colstore.Vector, terms []exec.Expr) {
	t.Helper()
	ctx := exec.NewCtx(time.Unix(0, 0))
	var kernels []vecKernel
	var pred exec.Expr
	for _, e := range terms {
		b := e.(*exec.BinOp)
		kernels = andKernel(kernels, vecKernelOf(0, vec.Kind, b.Op, b.Right.(*exec.Const).Value))
		pred = exec.And(pred, e)
	}
	n := vec.Len()
	sel := make([]bool, n)
	for i := range sel {
		sel[i] = true
	}
	b := &colstore.Batch{Cols: []*colstore.Vector{vec}, N: n}
	for i := range kernels {
		if err := kernels[i].apply(b, sel); err != nil {
			t.Fatalf("%v: %v", pred, err)
		}
	}
	for i := range sel {
		want, err := exec.EvalBool(pred, ctx, types.Row{vec.DatumAt(i)})
		if err != nil {
			t.Fatalf("%v: %v", pred, err)
		}
		if sel[i] != want {
			t.Fatalf("%v over %v: kernel keeps %v, EvalBool says %v", pred, vec.DatumAt(i), sel[i], want)
		}
	}
}

func term(op string, v types.Datum) exec.Expr {
	return &exec.BinOp{Op: op, Left: &exec.ColRef{Index: 0}, Right: &exec.Const{Value: v}}
}

// TestVecKernelsMatchEvalBool: every operator over BIGINT and DOUBLE
// extremes, 2^53 ± 1, ±0, ±Inf, NaN and 2.5 selects, on a BIGINT and on a
// DOUBLE vector, exactly the rows exec.EvalBool of its conjunct keeps; so
// does every pair of terms on one column, which the ranges of intersect,
// among them pairs that intersect to nothing and to one value.
func TestVecKernelsMatchEvalBool(t *testing.T) {
	consts := kernelConsts()
	for _, vec := range kernelVectors() {
		kinds := map[string]int{}
		for _, op := range kernelOps {
			for _, c := range consts {
				checkKernel(t, vec, []exec.Expr{term(op, c)})
			}
		}
		for _, op1 := range kernelOps {
			for _, c1 := range consts {
				for _, op2 := range kernelOps {
					for _, c2 := range consts {
						checkKernel(t, vec, []exec.Expr{term(op1, c1), term(op2, c2)})
						k := andKernel([]vecKernel{vecKernelOf(0, vec.Kind, op1, c1)}, vecKernelOf(0, vec.Kind, op2, c2))
						switch {
						case op1 == "<>" || op2 == "<>":
							kinds["two kernels"] += len(k) - 1
						case len(k) != 1:
							t.Fatalf("%s %v AND %s %v: %d kernels, want the ranges intersected", op1, c1, op2, c2, len(k))
						case vec.Kind == types.KindInt && k[0].lo > k[0].hi, vec.Kind == types.KindFloat && k[0].flo > k[0].fhi && !k[0].nan:
							kinds["empty"]++
						case vec.Kind == types.KindInt && k[0].lo == k[0].hi, vec.Kind == types.KindFloat && k[0].flo == k[0].fhi:
							kinds["one value"]++
						}
					}
				}
			}
		}
		for _, kind := range []string{"two kernels", "empty", "one value"} {
			if kinds[kind] == 0 {
				t.Errorf("%s vector: no pair of terms gave %s", vec.Kind, kind)
			}
		}
	}
	// Two terms that meet in one value, and two that miss each other.
	for _, vec := range kernelVectors() {
		checkKernel(t, vec, []exec.Expr{term(">=", types.NewInt(1<<53)), term("<=", types.NewFloat(1<<53))})
		checkKernel(t, vec, []exec.Expr{term(">", types.NewInt(1<<53)), term("<", types.NewInt(1<<53+2))})
		checkKernel(t, vec, []exec.Expr{term(">=", types.NewInt(3)), term("<", types.NewInt(3))})
		checkKernel(t, vec, []exec.Expr{term(">", types.NewFloat(2.5)), term("<", types.NewInt(3))})
	}
}

// FuzzVecKernel checks kernels against exec.EvalBool as the test above
// does, for one or two terms over vectors of arbitrary values. Each input
// value is nine bytes: a NULL flag, then the bits of a BIGINT or a DOUBLE;
// a second term is there when op2 < 12. A kernel's loop has no branch on a
// value for the fuzzer to steer by, so the seeds put each constant and its
// two neighbours in the column, under every operator, alone and beside a
// second term on the same constant.
func FuzzVecKernel(f *testing.F) {
	for _, c := range kernelConsts() {
		cf := c.Float()
		ci, isInt := c.IntValue()
		bits := math.Float64bits(cf)
		if isInt {
			bits = uint64(ci)
		} else if cf >= -(1<<63) && cf < 1<<63 {
			ci = int64(cf)
		}
		for _, floatCol := range []bool{false, true} {
			vals := [3]uint64{uint64(ci - 1), uint64(ci), uint64(ci + 1)}
			if floatCol {
				below, above := math.Nextafter(cf, math.Inf(-1)), math.Nextafter(cf, math.Inf(1))
				vals = [3]uint64{math.Float64bits(below), math.Float64bits(cf), math.Float64bits(above)}
			}
			var data []byte
			for _, x := range vals {
				data = binary.LittleEndian.AppendUint64(append(data, 0), x)
			}
			for op := range kernelOps {
				for _, op2 := range []int{op + 3, 255} {
					f.Add(floatCol, uint8(op), !isInt, bits, uint8(op2), !isInt, bits, data)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, floatCol bool, op1 uint8, float1 bool, bits1 uint64, op2 uint8, float2 bool, bits2 uint64, data []byte) {
		vec := &colstore.Vector{Kind: types.KindInt}
		if floatCol {
			vec.Kind = types.KindFloat
		}
		for ; len(data) >= 9; data = data[9:] {
			bits := binary.LittleEndian.Uint64(data[1:9])
			vec.Nulls = append(vec.Nulls, data[0]&1 == 1)
			if floatCol {
				vec.Floats = append(vec.Floats, math.Float64frombits(bits))
			} else {
				vec.Ints = append(vec.Ints, int64(bits))
			}
		}
		value := func(isFloat bool, bits uint64) types.Datum {
			if isFloat {
				return types.NewFloat(math.Float64frombits(bits))
			}
			return types.NewInt(int64(bits))
		}
		terms := []exec.Expr{term(kernelOps[int(op1)%len(kernelOps)], value(float1, bits1))}
		if op2 < 2*uint8(len(kernelOps)) {
			terms = append(terms, term(kernelOps[int(op2)%len(kernelOps)], value(float2, bits2)))
		}
		checkKernel(t, vec, terms)
	})
}
