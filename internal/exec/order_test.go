package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// orderRows builds rows (num, str, seq): num mixes BIGINT and DOUBLE values
// that tie across kinds, −0, NaN, BIGINTs float64 cannot tell apart, and
// NULLs; str holds strings that share their first 8 bytes or carry NULs;
// seq is the row's position, so every output order can be checked exactly.
func orderRows(n int, seed int64) []types.Row {
	rng := rand.New(rand.NewSource(seed))
	nums := []types.Datum{
		types.Null, types.NewInt(3), types.NewFloat(3), types.NewFloat(2.5), types.NewInt(-1),
		types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.NaN()),
		types.NewFloat(math.Inf(-1)), types.NewInt(1<<53 + 1), types.NewInt(1 << 53), types.NewFloat(1 << 53),
	}
	strs := []types.Datum{
		types.Null, types.NewString(""), types.NewString("\x00"), types.NewString("abcdefgh"),
		types.NewString("abcdefgh\x00"), types.NewString("abcdefgh1"), types.NewString("abcdefgh2"), types.NewString("b"),
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{nums[rng.Intn(len(nums))], strs[rng.Intn(len(strs))], types.NewInt(int64(i))}
	}
	return rows
}

// prefixRows returns key sets shaped for the radix pass over order
// prefixes, as rows (key, NULL, seq): prefixes that differ only in their
// top byte (one-byte strings, NULL among them), only in their bottom byte
// or two (strings sharing 7 or 6 bytes, so each value is repeated), or not
// at all (BIGINTs above 2^60 that a
// DOUBLE cannot tell apart, and strings sharing 8 bytes: every pass is
// skipped and Compare orders them all), and negative and positive BIGINTs
// and DOUBLEs mixed, NULL among them.
func prefixRows(n int, seed int64) map[string][]types.Row {
	rng := rand.New(rand.NewSource(seed))
	gen := map[string]func() types.Datum{
		"top byte": func() types.Datum {
			if rng.Intn(10) == 0 {
				return types.Null
			}
			return types.NewString(string(rune('a' + rng.Intn(20))))
		},
		"bottom byte": func() types.Datum { return types.NewString("abcdefg" + string(rune('a'+rng.Intn(20)))) },
		"bottom two bytes": func() types.Datum {
			return types.NewString("abcdef" + string(rune('a'+rng.Intn(3))) + string(rune('a'+rng.Intn(3))))
		},
		"no byte": func() types.Datum { return types.NewInt(1<<60 + int64(rng.Intn(40))) },
		"no byte, strings": func() types.Datum {
			return types.NewString("abcdefgh" + string(rune('a'+rng.Intn(20))))
		},
		"signed numbers": func() types.Datum {
			switch rng.Intn(4) {
			case 0:
				return types.Null
			case 1:
				return types.NewFloat(rng.NormFloat64() * 1e6)
			}
			return types.NewInt(rng.Int63n(2_000_001) - 1_000_000)
		},
	}
	sets := map[string][]types.Row{}
	for name, next := range gen {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{next(), types.Null, types.NewInt(int64(i))}
		}
		sets[name] = rows
	}
	return sets
}

var orderKeyCases = [][]SortKey{
	{{Expr: &ColRef{Index: 0}}},
	{{Expr: &ColRef{Index: 0}, Desc: true}},
	{{Expr: &ColRef{Index: 1}}},
	{{Expr: &ColRef{Index: 1}, Desc: true}, {Expr: &ColRef{Index: 0}}},
	{{Expr: &ColRef{Index: 0}}, {Expr: &ColRef{Index: 1}, Desc: true}},
}

// stableReference sorts rows the way Sort did before prefixes: a stable
// sort calling types.Compare on every key of every pair.
func stableReference(rows []types.Row, keys []SortKey) []types.Row {
	out := append([]types.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		for _, k := range keys {
			c := types.MustCompare(out[i][k.Expr.(*ColRef).Index], out[j][k.Expr.(*ColRef).Index])
			if c != 0 {
				return c < 0 != k.Desc
			}
		}
		return false
	})
	return out
}

func seqs(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%d ", r[2].Int())
	}
	return sb.String()
}

// TestSortMatchesStableReference: the prefix comparator orders exactly as a
// stable sort on types.Compare does, ties and all.
func TestSortMatchesStableReference(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "n"}, types.Column{Name: "s"}, types.Column{Name: "seq"})
	for _, n := range []int{0, 1, 2, 17, 500} {
		rows := orderRows(n, int64(n))
		for ki, keys := range orderKeyCases {
			want := seqs(stableReference(rows, keys))
			if got := seqs(collect(t, &Sort{Child: NewValues(schema, rows), Keys: keys})); got != want {
				t.Fatalf("n=%d keys=%d: Sort\n got %s\nwant %s", n, ki, got, want)
			}
			for _, limit := range []int64{1, 5, int64(n)} {
				w := seqs(stableReference(rows, keys)[:min(int(limit), n)])
				if got := seqs(collect(t, &TopN{Child: NewValues(schema, rows), Keys: keys, Limit: limit})); got != w {
					t.Fatalf("n=%d keys=%d limit=%d: TopN\n got %s\nwant %s", n, ki, limit, got, w)
				}
			}
		}
	}
	for name, rows := range prefixRows(700, 9) {
		for _, desc := range []bool{false, true} {
			keys := []SortKey{{Expr: &ColRef{Index: 0}, Desc: desc}}
			want := seqs(stableReference(rows, keys))
			if got := seqs(collect(t, &Sort{Child: NewValues(schema, rows), Keys: keys})); got != want {
				t.Fatalf("%s desc=%v: Sort\n got %s\nwant %s", name, desc, got, want)
			}
		}
	}
}

// splitFragments cuts rows into k contiguous fragments.
func splitFragments(rows []types.Row, k int) []Fragment {
	frags := make([]Fragment, k)
	for f := range frags {
		part := rows[f*len(rows)/k : (f+1)*len(rows)/k]
		frags[f] = func(_ *Ctx, emit func(types.Row) bool) error {
			for _, r := range part {
				if !emit(r) {
					return nil
				}
			}
			return nil
		}
	}
	return frags
}

// TestOrderedExchangeMatchesStableSort: merging the sorted fragments gives
// exactly a stable sort of their concatenation — ties to the lower fragment
// — at every fragment count and degree, the sequential path included.
func TestOrderedExchangeMatchesStableSort(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "n"}, types.Column{Name: "s"}, types.Column{Name: "seq"})
	rows := orderRows(300, 5)
	for ki, keys := range orderKeyCases {
		want := seqs(stableReference(rows, keys))
		for _, k := range []int{1, 2, 3, 5, 8} {
			for _, degree := range []int{1, 2, 4} {
				ex := NewParallelSource("t", schema, degree, func() ([]Fragment, error) { return splitFragments(rows, k), nil })
				ex.Order = keys
				if got := seqs(collect(t, ex)); got != want {
					t.Fatalf("keys=%d frags=%d degree=%d:\n got %s\nwant %s", ki, k, degree, got, want)
				}
			}
		}
	}

	for name, rows := range prefixRows(900, 10) {
		for _, desc := range []bool{false, true} {
			keys := []SortKey{{Expr: &ColRef{Index: 0}, Desc: desc}}
			want := seqs(stableReference(rows, keys))
			for _, degree := range []int{1, 4} {
				ex := NewParallelSource("t", schema, degree, func() ([]Fragment, error) { return splitFragments(rows, 3), nil })
				ex.Order = keys
				if got := seqs(collect(t, ex)); got != want {
					t.Fatalf("%s desc=%v degree=%d:\n got %s\nwant %s", name, desc, degree, got, want)
				}
			}
		}
	}

	// Statements of very different sizes, ordered and not, run at once and
	// reopen their Exchanges, so they pass the pool's runs, entries and
	// outputs among themselves; each still matches.
	var wg sync.WaitGroup
	for i, n := range []int{40, 300, 1100, 6000} {
		for _, keys := range [][]SortKey{nil, orderKeyCases[i%len(orderKeyCases)]} {
			rows := orderRows(n, int64(i))
			want := seqs(rows)
			if keys != nil {
				want = seqs(stableReference(rows, keys))
			}
			ex := NewParallelSource("t", schema, 4, func() ([]Fragment, error) { return splitFragments(rows, 4), nil })
			ex.Order = keys
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 6; rep++ {
					got, err := Collect(NewCtx(time.Unix(0, 0)), ex)
					if err != nil {
						t.Errorf("concurrent %d rows ordered=%v, run %d: %v", n, keys != nil, rep, err)
						return
					}
					if seqs(got) != want {
						t.Errorf("concurrent %d rows ordered=%v, run %d: order differs from the reference", n, keys != nil, rep)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

// TestOrderIncomparableKindsFails: a first key mixing kinds Compare cannot
// order fails with Compare's error from Sort, TopN and the ordered
// Exchange — also when every fragment is of one kind, so only the merge
// meets the mix, and when NULLs sit between the kinds.
func TestOrderIncomparableKindsFails(t *testing.T) {
	schema := schema2("k", "seq")
	row := func(k types.Datum, seq int64) types.Row { return types.Row{k, types.NewInt(seq)} }
	rows := []types.Row{
		row(types.Null, 0), row(types.NewInt(2), 1), row(types.NewInt(1), 2),
		row(types.Null, 3), row(types.NewString("a"), 4), row(types.NewString("b"), 5),
	}
	for _, desc := range []bool{false, true} {
		keys := []SortKey{{Expr: &ColRef{Index: 0}, Desc: desc}}
		ops := map[string]func() Operator{
			"sort": func() Operator { return &Sort{Child: NewValues(schema, rows), Keys: keys} },
			"topn": func() Operator { return &TopN{Child: NewValues(schema, rows), Keys: keys, Limit: 4} },
		}
		for _, degree := range []int{1, 2} {
			for _, k := range []int{1, 2, 3} {
				ops[fmt.Sprintf("exchange degree=%d frags=%d", degree, k)] = func() Operator {
					ex := NewParallelSource("t", schema, degree, func() ([]Fragment, error) { return splitFragments(rows, k), nil })
					ex.Order = keys
					return ex
				}
			}
		}
		for name, op := range ops {
			if _, err := Collect(NewCtx(time.Unix(0, 0)), op()); err == nil || !strings.HasPrefix(err.Error(), "types: cannot compare") {
				t.Errorf("desc=%v %s: err = %v, want types: cannot compare", desc, name, err)
			}
		}
	}
}

// TestSortAllocationCeiling: Sort allocates a constant number of objects
// (the collected rows, their entries, the full keys of the longest run of
// tied prefixes and the sorted rows), not one per row. The keys here tie on
// their prefix for most pairs.
func TestSortAllocationCeiling(t *testing.T) {
	ctx := NewCtx(time.Unix(0, 0))
	schema := types.NewSchema(types.Column{Name: "n"}, types.Column{Name: "s"}, types.Column{Name: "seq"})
	allocs := func(n int) float64 {
		rows := orderRows(n, 1)
		s := &Sort{Child: NewValues(schema, rows), Keys: orderKeyCases[3]}
		return testing.AllocsPerRun(20, func() {
			if err := s.Open(ctx); err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
	}
	// Four objects, and room for a stray one the runtime makes meanwhile.
	if small, large := allocs(64), allocs(8192); large > 5 {
		t.Errorf("Sort allocates %v objects over 8192 rows, %v over 64; want the same few", large, small)
	}
}

// TestTopNHeapAllocationCeiling: once the heap is full, offering it a row
// allocates nothing, whether the row is kept or not.
func TestTopNHeapAllocationCeiling(t *testing.T) {
	rows := orderRows(4096, 2)
	for ki, keys := range orderKeyCases {
		h := NewTopNHeap(NewCtx(time.Unix(0, 0)), keys, 10)
		i := 0
		push := func() {
			if err := h.Push(rows[i%len(rows)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for !h.Full() {
			push()
		}
		if a := testing.AllocsPerRun(len(rows), push); a != 0 {
			t.Errorf("keys=%d: Push allocates %v objects per row", ki, a)
		}
	}
}

// TestCollectSizedThroughProjectAndCounted: Project and Counted report
// their child's row count, so collecting a projected scan sizes its result
// once instead of growing it by doubling.
func TestCollectSizedThroughProjectAndCounted(t *testing.T) {
	rows := orderRows(1000, 3)
	schema := types.NewSchema(types.Column{Name: "n"}, types.Column{Name: "s"}, types.Column{Name: "seq"})
	op := &Project{Child: &Counted{Child: NewValues(schema, rows)}, Exprs: []Expr{&ColRef{Index: 2}}, Out: schema2("seq", "")}
	if got := collect(t, op); len(got) != len(rows) || cap(got) != len(rows) {
		t.Errorf("collected %d rows into a slice of cap %d, want %d", len(got), cap(got), len(rows))
	}
	if n := (&Project{Child: &Filter{Child: NewValues(schema, rows)}}).RowCount(); n != -1 {
		t.Errorf("Project over a Filter reports %d rows, want -1 (unknown)", n)
	}
}

// countedExpr counts its evaluations.
type countedExpr struct {
	Expr
	n *atomic.Int64
}

func (c countedExpr) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	c.n.Add(1)
	return c.Expr.Eval(ctx, row)
}

// TestTiedKeysEvaluatedOncePerRow: where prefixes tie — a 10-value first
// key with a tiebreak, strings sharing their first 8 bytes — a key
// expression is evaluated a bounded number of times per row (the prefix
// pass, then once when the row first ties), never once per comparison:
// TopN evaluates each row's keys once, Sort at most twice, the ordered
// Exchange at most three times (each fragment's sort, then the merge's
// head).
func TestTiedKeysEvaluatedOncePerRow(t *testing.T) {
	const n = 2000
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i * 7 % 10)), types.NewString(fmt.Sprintf("customer_%05d", i*7919%n)), types.NewInt(int64(i))}
	}
	schema := types.NewSchema(types.Column{Name: "a"}, types.Column{Name: "s"}, types.Column{Name: "seq"})
	var evals atomic.Int64
	count := func(i int) Expr { return countedExpr{&ColRef{Index: i}, &evals} }
	shapes := map[string][]SortKey{
		"tied+tiebreak": {{Expr: count(0)}, {Expr: count(1), Desc: true}},
		"sharedprefix":  {{Expr: count(1)}},
	}
	for name, keys := range shapes {
		ops := map[string]func() Operator{
			"sort":    func() Operator { return &Sort{Child: NewValues(schema, rows), Keys: keys} },
			"topn":    func() Operator { return &TopN{Child: NewValues(schema, rows), Keys: keys, Limit: 50} },
			"topnAll": func() Operator { return &TopN{Child: NewValues(schema, rows), Keys: keys, Limit: n} },
			"exchange": func() Operator {
				ex := NewParallelSource("t", schema, 2, func() ([]Fragment, error) { return splitFragments(rows, 4), nil })
				ex.Order = keys
				return ex
			},
		}
		for opName, op := range ops {
			evals.Store(0)
			if _, err := Collect(NewCtx(time.Unix(0, 0)), op()); err != nil {
				t.Fatal(err)
			}
			per := map[string]int{"sort": 2, "topn": 1, "topnAll": 1, "exchange": 3}[opName]
			if got, max := evals.Load(), int64(per*n*len(keys)); got > max {
				t.Errorf("%s %s: %d key evaluations over %d rows, want ≤ %d", name, opName, got, n, max)
			}
		}
	}
}
