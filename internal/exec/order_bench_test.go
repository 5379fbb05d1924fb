package exec

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/types"
)

// orderBenchShapes are ORDER BY shapes over benchRows' columns (u, a, b, s):
// u is a unique BIGINT, a takes 10 values, b is unique, s is a string whose
// first 8 bytes every row shares. Only "unique" is settled by the first
// key's 64-bit prefix alone; the others tie on it for most pairs.
var orderBenchShapes = []struct {
	name string
	keys []SortKey
}{
	{"unique", []SortKey{{Expr: &ColRef{Index: 0}}}},
	{"tied10", []SortKey{{Expr: &ColRef{Index: 1}}}},
	{"tied10+tiebreak", []SortKey{{Expr: &ColRef{Index: 1}}, {Expr: &ColRef{Index: 2}, Desc: true}}},
	{"tied10expr+tiebreak", []SortKey{{Expr: &BinOp{Op: "+", Left: &ColRef{Index: 1}, Right: &Const{Value: types.NewInt(1)}}}, {Expr: &ColRef{Index: 2}}}},
	{"sharedprefix", []SortKey{{Expr: &ColRef{Index: 3}}}},
	{"upper(sharedprefix)", []SortKey{{Expr: &Func{Name: "upper", Args: []Expr{&ColRef{Index: 3}}}}}},
}

func benchRows(n int) []types.Row {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(perm[i])),
			types.NewInt(int64(rng.Intn(10))),
			types.NewInt(int64(perm[(i+1)%n])),
			types.NewString(fmt.Sprintf("customer_%06d", perm[(i+7)%n])),
		}
	}
	return rows
}

func drainBench(b *testing.B, ctx *Ctx, op Operator) {
	if err := op.Open(ctx); err != nil {
		b.Fatal(err)
	}
	for {
		if _, err := op.Next(ctx); err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
	}
	op.Close()
}

var benchSchema = types.NewSchema(types.Column{Name: "u"}, types.Column{Name: "a"}, types.Column{Name: "b"}, types.Column{Name: "s"})

// BenchmarkOrderBy times Sort, a LIMIT 100 TopN, and an ORDER BY over four
// fragments merged by an ordered Exchange, over 4 096 rows per shape.
func BenchmarkOrderBy(b *testing.B) {
	const n = 4096
	rows := benchRows(n)
	ctx := NewCtx(time.Unix(0, 0))
	for _, sh := range orderBenchShapes {
		b.Run("sort/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainBench(b, ctx, &Sort{Child: NewValues(benchSchema, rows), Keys: sh.keys})
			}
		})
		b.Run("topn100/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainBench(b, ctx, &TopN{Child: NewValues(benchSchema, rows), Keys: sh.keys, Limit: 100})
			}
		})
		b.Run("frags4/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			plan := func() ([]Fragment, error) {
				out := make([]Fragment, 4)
				for f := range out {
					part := rows[f*n/4 : (f+1)*n/4]
					out[f] = func(ctx *Ctx, emit func(types.Row) bool) error {
						for _, r := range part {
							emit(r)
						}
						return nil
					}
				}
				return out, nil
			}
			for i := 0; i < b.N; i++ {
				ex := NewParallelSource("t", benchSchema, 1, plan)
				ex.Order = sh.keys
				drainBench(b, ctx, ex)
			}
		})
	}
}
