package exec

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// rangeFragments builds n fragments, fragment i emitting rows
// (i, 0), (i, 1), ..., (i, perFrag-1).
func rangeFragments(n, perFrag int) []Fragment {
	frags := make([]Fragment, n)
	for i := range frags {
		i := i
		frags[i] = func(_ *Ctx, emit func(types.Row) bool) error {
			for j := 0; j < perFrag; j++ {
				if !emit(intRow(int64(i), int64(j))) {
					return nil
				}
			}
			return nil
		}
	}
	return frags
}

func TestExchangeOrderedMatchesSequential(t *testing.T) {
	schema := schema2("frag", "seq")
	for _, degree := range []int{1, 2, 4, 16} {
		ex := NewParallelSource("t", schema, degree, func() ([]Fragment, error) {
			return rangeFragments(5, 7), nil
		})
		rows := collect(t, ex)
		if len(rows) != 35 {
			t.Fatalf("degree %d: got %d rows", degree, len(rows))
		}
		// Ordered merge: fragment order then emission order, at any degree.
		for k, r := range rows {
			if r[0].Int() != int64(k/7) || r[1].Int() != int64(k%7) {
				t.Fatalf("degree %d: row %d = %v", degree, k, r)
			}
		}
	}
}

func TestExchangeReopen(t *testing.T) {
	ex := NewParallelSource("t", schema2("a", "b"), 4, func() ([]Fragment, error) {
		return rangeFragments(3, 4), nil
	})
	first := collect(t, ex)
	second := collect(t, ex)
	if len(first) != 12 || len(second) != 12 {
		t.Fatalf("reopen changed row count: %d then %d", len(first), len(second))
	}
}

func TestExchangePlanError(t *testing.T) {
	wantErr := errors.New("catalog: no such table")
	ex := NewParallelSource("t", schema2("a", "b"), 4, func() ([]Fragment, error) {
		return nil, wantErr
	})
	if err := ex.Open(NewCtx(time.Unix(0, 0))); !errors.Is(err, wantErr) {
		t.Fatalf("Open error = %v, want %v", err, wantErr)
	}
}

// TestExchangeFragmentErrorCancelsSiblings: one
// failing fragment must cancel the others (their emit returns false) and
// Open must surface exactly that error after joining every worker — no
// deadlock, no goroutine leak past Close.
func TestExchangeFragmentErrorCancelsSiblings(t *testing.T) {
	wantErr := errors.New("dn2: snapshot unavailable")
	var emitted atomic.Int64
	ex := NewParallelSource("t", schema2("a", "b"), 4, func() ([]Fragment, error) {
		frags := make([]Fragment, 8)
		for i := range frags {
			i := i
			frags[i] = func(_ *Ctx, emit func(types.Row) bool) error {
				if i == 2 {
					return wantErr
				}
				// Emit until cancellation propagates.
				for j := 0; j < 1_000_000; j++ {
					emitted.Add(1)
					if !emit(intRow(int64(i), int64(j))) {
						return nil
					}
				}
				return nil
			}
		}
		return frags, nil
	})
	err := ex.Open(NewCtx(time.Unix(0, 0)))
	if !errors.Is(err, wantErr) {
		t.Fatalf("Open error = %v, want %v", err, wantErr)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	// Cancellation is advisory, but siblings must have stopped well short
	// of their full output (8M rows if nothing canceled).
	if n := emitted.Load(); n >= 7_000_000 {
		t.Fatalf("siblings were not canceled: %d rows emitted", n)
	}
}

func TestExchangeFragmentPanicBecomesError(t *testing.T) {
	ex := NewParallelSource("t", schema2("a", "b"), 4, func() ([]Fragment, error) {
		frags := rangeFragments(4, 10)
		frags[1] = func(_ *Ctx, _ func(types.Row) bool) error {
			panic("index out of range on dn1")
		}
		return frags, nil
	})
	err := ex.Open(NewCtx(time.Unix(0, 0)))
	if err == nil {
		t.Fatal("panicking fragment must surface an error")
	}
	if msg := fmt.Sprint(err); msg == "" || !containsAll(msg, "panicked", "dn1") {
		t.Fatalf("unhelpful panic error: %v", err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestExchangeSequentialInlinePath(t *testing.T) {
	// Degree 1 must not spawn workers: fragments run on the caller's
	// goroutine, observable through an unsynchronized local variable.
	calls := 0
	ex := NewParallelSource("t", schema2("a", "b"), 1, func() ([]Fragment, error) {
		frags := make([]Fragment, 3)
		for i := range frags {
			i := i
			frags[i] = func(_ *Ctx, emit func(types.Row) bool) error {
				calls++ // safe only if inline
				emit(intRow(int64(i), 0))
				return nil
			}
		}
		return frags, nil
	})
	rows := collect(t, ex)
	if len(rows) != 3 || calls != 3 {
		t.Fatalf("rows=%d calls=%d", len(rows), calls)
	}
}

// TestExchangeAllocationCeiling: a 4-fragment Exchange at degree 4 sizes
// its runs, their sort entries and its output once or borrows them, so an
// Open/Close over 4 × 4096 rows allocates no more objects than one over
// 4 × 64 rows, plus a few: under -race a pool drops a quarter of what it
// is given.
func TestExchangeAllocationCeiling(t *testing.T) {
	ctx := NewCtx(time.Unix(0, 0))
	for _, ordered := range []bool{false, true} {
		allocs := func(per int) float64 {
			rows := make([]types.Row, 4*per)
			for i := range rows {
				rows[i] = intRow(int64(i%per), int64(i))
			}
			ex := NewParallelSource("t", schema2("a", "seq"), 4, func() ([]Fragment, error) { return splitFragments(rows, 4), nil })
			if ordered {
				ex.Order = []SortKey{{Expr: &ColRef{Index: 1}, Desc: true}}
			}
			return testing.AllocsPerRun(100, func() {
				if err := ex.Open(ctx); err != nil {
					t.Fatal(err)
				}
				ex.Close()
			})
		}
		if small, large := allocs(64), allocs(4096); large > small+8 {
			t.Errorf("ordered=%v: Open/Close allocates %v objects over 4×4096 rows, %v over 4×64", ordered, large, small)
		}
	}
}

// TestExchangeReleasesRows: once an Exchange is closed, neither it nor the
// buffers it gave back to the pool keep any row it produced alive.
func TestExchangeReleasesRows(t *testing.T) {
	const frags, per = 4, 300
	ctx := NewCtx(time.Unix(0, 0))
	for _, degree := range []int{1, 4} {
		for _, ordered := range []bool{false, true} {
			var freed atomic.Int64
			ex := NewParallelSource("t", schema2("frag", "seq"), degree, func() ([]Fragment, error) {
				fs := make([]Fragment, frags)
				for i := range fs {
					fs[i] = func(_ *Ctx, emit func(types.Row) bool) error {
						for j := 0; j < per; j++ {
							r := intRow(int64(i), int64(j))
							runtime.SetFinalizer(&r[0], func(*types.Datum) { freed.Add(1) })
							if !emit(r) {
								return nil
							}
						}
						return nil
					}
				}
				return fs, nil
			})
			if ordered {
				ex.Order = []SortKey{{Expr: &ColRef{Index: 1}, Desc: true}}
			}
			if err := ex.Open(ctx); err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				if _, err := ex.Next(ctx); err == io.EOF {
					if n != frags*per {
						t.Fatalf("got %d rows, want %d", n, frags*per)
					}
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
			ex.Close()
			// Hold what the pool kept: a GC empties a pool, which would
			// free rows a pooled buffer pinned.
			var held []any
			for b := bufPool.Get(); b != nil; b = bufPool.Get() {
				held = append(held, b)
			}
			runtime.GC()
			runtime.GC()
			for deadline := time.Now().Add(5 * time.Second); freed.Load() < frags*per && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := freed.Load(); n != frags*per {
				t.Errorf("degree=%d ordered=%v: %d of %d rows freed after Close", degree, ordered, n, frags*per)
			}
			runtime.KeepAlive(ex)
			for _, b := range held {
				bufPool.Put(b)
			}
		}
	}
}
