package exec

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// lcgRows builds a deterministic pseudo-random row set (a, b) with plenty
// of duplicate keys, so TopN tie-breaking is actually exercised.
func lcgRows(n int) []types.Row {
	rows := make([]types.Row, n)
	x := int64(12345)
	for i := range rows {
		x = (x*1103515245 + 12347) % (1 << 31)
		rows[i] = intRow(x%17, int64(i)) // a in [0,17): heavy ties; b unique
	}
	return rows
}

// sortLimit is the reference plan TopN replaces: stable Sort then Limit.
func sortLimit(t *testing.T, rows []types.Row, keys []SortKey, limit int64) []types.Row {
	t.Helper()
	return collect(t, &Limit{
		Child: &Sort{Child: NewValues(schema2("a", "b"), rows), Keys: keys},
		Count: limit,
	})
}

func rowsEqual(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestTopNHeapRejectsOnlyRowsPushDrops: a full heap that rows it Rejects
// never reach keeps exactly the rows, in exactly the order, of one every row
// is pushed to — over BIGINTs above 2^53 whose order prefixes tie in runs,
// NULLs, both directions and every limit around the data size — and it does
// turn rows away.
func TestTopNHeapRejectsOnlyRowsPushDrops(t *testing.T) {
	rows := make([]types.Row, 300)
	x := int64(12345)
	for i := range rows {
		x = (x*1103515245 + 12347) % (1 << 31)
		rows[i] = intRow(1<<60+x%1000-500, int64(i))
		if x%23 == 0 {
			rows[i][0] = types.Null
		}
	}
	for _, keys := range [][]SortKey{
		{{Expr: &ColRef{Index: 0}}},
		{{Expr: &ColRef{Index: 0}, Desc: true}},
		{{Expr: &ColRef{Index: 0}, Desc: true}, {Expr: &ColRef{Index: 1}, Desc: true}},
	} {
		for _, limit := range []int64{0, 1, 7, 50, 299, 300} {
			ctx := NewCtx(time.Unix(0, 0))
			all, some := NewTopNHeap(ctx, keys, limit), NewTopNHeap(ctx, keys, limit)
			rejected := 0
			for _, r := range rows {
				if err := all.Push(r); err != nil {
					t.Fatal(err)
				}
				if some.Rejects(r[0]) {
					rejected++
					continue
				}
				if err := some.Push(r); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("desc=%v keys=%d limit=%d", keys[0].Desc, len(keys), limit)
			rowsEqual(t, label, some.ArrivalRows(), all.ArrivalRows())
			if limit < 50 && rejected < len(rows)/2 {
				t.Errorf("%s: %d of %d rows rejected", label, rejected, len(rows))
			}
		}
	}
}

// TestTopNMatchesSortLimit: the bounded-heap operator must be
// byte-identical to the stable Sort+Limit plan it replaces, including
// tie-breaking (first-arrived wins), for every limit around the data size.
func TestTopNMatchesSortLimit(t *testing.T) {
	rows := lcgRows(200)
	keyCases := [][]SortKey{
		{{Expr: &ColRef{Index: 0}}},
		{{Expr: &ColRef{Index: 0}, Desc: true}},
		{{Expr: &ColRef{Index: 0}, Desc: true}, {Expr: &ColRef{Index: 1}}},
	}
	for ki, keys := range keyCases {
		for _, limit := range []int64{0, 1, 7, 50, 199, 200, 500} {
			topn := collect(t, &TopN{Child: NewValues(schema2("a", "b"), rows), Keys: keys, Limit: limit})
			want := sortLimit(t, rows, keys, limit)
			rowsEqual(t, fmt.Sprintf("keys=%d limit=%d", ki, limit), topn, want)
		}
	}
}

// TestTopNBareLimit: with no sort keys the operator degenerates to LIMIT —
// the first K rows in arrival order, and the heap reports Full so a
// streaming caller can stop early.
func TestTopNBareLimit(t *testing.T) {
	rows := lcgRows(40)
	got := collect(t, &TopN{Child: NewValues(schema2("a", "b"), rows), Limit: 5})
	rowsEqual(t, "bare limit", got, rows[:5])

	h := NewTopNHeap(NewCtx(time.Unix(0, 0)), nil, 3)
	for i, r := range rows {
		if h.Full() != (i >= 3) {
			t.Fatalf("Full() = %v after %d pushes", h.Full(), i)
		}
		if err := h.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	sorted, err := h.SortedRows()
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "bare-limit heap", sorted, rows[:3])
}

// TestTopNFragmentMergeDeterministic is the distributed-claim test: split
// one row stream into k fragments, run each through its own bounded heap,
// ship survivors in arrival order, and sort and merge them in an ordered
// Exchange under a Limit, as the planner does above a pushed ORDER BY. At every split factor
// and degree the result must be byte-identical to TopN over the unsplit
// stream — the invariant that lets the DN drop and order rows without the
// CN noticing, ties included.
func TestTopNFragmentMergeDeterministic(t *testing.T) {
	all := lcgRows(240)
	keys := []SortKey{{Expr: &ColRef{Index: 0}, Desc: true}} // ties on a galore
	const limit = 10
	want := collect(t, &TopN{Child: NewValues(schema2("a", "b"), all), Keys: keys, Limit: limit})

	for _, frags := range []int{1, 2, 4, 16} {
		per := len(all) / frags
		var shipped atomic.Int64
		plan := func() ([]Fragment, error) {
			out := make([]Fragment, frags)
			for f := range out {
				part := all[f*per : (f+1)*per]
				out[f] = func(ctx *Ctx, emit func(types.Row) bool) error {
					h := NewTopNHeap(ctx, keys, limit)
					for _, r := range part {
						if err := h.Push(r); err != nil {
							return err
						}
					}
					for _, r := range h.ArrivalRows() {
						shipped.Add(1)
						emit(r)
					}
					return nil
				}
			}
			return out, nil
		}
		for _, degree := range []int{1, 4} {
			shipped.Store(0)
			ex := NewParallelSource("t", schema2("a", "b"), degree, plan)
			ex.Order = keys
			got := collect(t, &Limit{Child: ex, Count: limit})
			rowsEqual(t, fmt.Sprintf("frags=%d degree=%d", frags, degree), got, want)
			if n := shipped.Load(); n > int64(frags*limit) {
				t.Fatalf("frags=%d shipped %d rows, heap bound is %d", frags, n, frags*limit)
			}
		}
	}
}
