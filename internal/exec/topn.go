package exec

import (
	"io"

	"repro/internal/types"
)

// topnItem is one candidate row inside a TopNHeap: the row, its evaluated
// sort-key datums, and its arrival sequence number (for stable tie-breaks).
type topnItem struct {
	row types.Row
	key []types.Datum
	seq int64
}

// TopNHeap accumulates the top `limit` rows under `keys` with ties broken
// by arrival order (earlier wins), so the kept set — and its order — is
// exactly what a stable Sort followed by a Limit would produce. It is the
// shared bounded accumulator behind the CN-side TopN operator and the
// DN-side fragment TopN pushdown: a max-heap of size ≤ limit whose root is
// the worst row currently kept, so each additional row costs O(log limit)
// instead of materializing the full input.
//
// With no keys the heap degenerates to "first `limit` rows by arrival",
// which is what a bare LIMIT keeps; callers can then stop feeding it as
// soon as Full reports true.
type TopNHeap struct {
	keys  []SortKey
	limit int64
	ctx   *Ctx
	items []topnItem
	next  int64
}

// NewTopNHeap returns an empty accumulator keeping the top `limit` rows.
// ctx is used to evaluate the key expressions against each pushed row.
func NewTopNHeap(ctx *Ctx, keys []SortKey, limit int64) *TopNHeap {
	return &TopNHeap{keys: keys, limit: limit, ctx: ctx}
}

// less reports whether a orders strictly before b: by the sort keys first
// (respecting Desc), then by arrival sequence — the same comparator a
// stable Sort induces. Comparison errors propagate like Sort's.
func (h *TopNHeap) less(a, b *topnItem) (bool, error) {
	for k, key := range h.keys {
		c, err := types.Compare(a.key[k], b.key[k])
		if err != nil {
			return false, err
		}
		if c != 0 {
			if key.Desc {
				return c > 0, nil
			}
			return c < 0, nil
		}
	}
	return a.seq < b.seq, nil
}

// Push offers one row to the accumulator. The row is retained by reference;
// callers must not mutate it afterwards.
func (h *TopNHeap) Push(row types.Row) error {
	if h.limit <= 0 {
		return nil
	}
	it := topnItem{row: row, seq: h.next}
	h.next++
	if len(h.keys) > 0 {
		it.key = make([]types.Datum, len(h.keys))
		for k, key := range h.keys {
			v, err := key.Expr.Eval(h.ctx, row)
			if err != nil {
				return err
			}
			it.key[k] = v
		}
	}
	if int64(len(h.items)) < h.limit {
		h.items = append(h.items, it)
		return h.siftUp(len(h.items) - 1)
	}
	// Heap full: the new row displaces the current worst only if it orders
	// strictly before it. Ties keep the incumbent (earlier arrival).
	better, err := h.less(&it, &h.items[0])
	if err != nil || !better {
		return err
	}
	h.items[0] = it
	return h.siftDown(0)
}

// Full reports whether the heap holds `limit` rows. With no sort keys a
// full heap can never improve (later arrivals always lose ties), so
// callers may stop scanning.
func (h *TopNHeap) Full() bool { return int64(len(h.items)) >= h.limit }

// Len returns the number of rows currently kept.
func (h *TopNHeap) Len() int { return len(h.items) }

// siftUp restores the max-heap property (parent orders after child) from
// leaf i upward.
func (h *TopNHeap) siftUp(i int) error {
	for i > 0 {
		p := (i - 1) / 2
		parentFirst, err := h.less(&h.items[p], &h.items[i])
		if err != nil {
			return err
		}
		if !parentFirst { // parent orders after child: heap order holds
			return nil
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
	return nil
}

// siftDown restores the max-heap property from node i downward.
func (h *TopNHeap) siftDown(i int) error {
	n := len(h.items)
	for {
		worst := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c >= n {
				continue
			}
			after, err := h.less(&h.items[worst], &h.items[c])
			if err != nil {
				return err
			}
			if after { // child orders after current worst
				worst = c
			}
		}
		if worst == i {
			return nil
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// SortedRows returns the kept rows in ascending sort order (keys, then
// arrival) — the order a stable Sort + Limit would emit them in.
func (h *TopNHeap) SortedRows() ([]types.Row, error) {
	items := append([]topnItem(nil), h.items...)
	var cmpErr error
	sortItems(items, func(a, b *topnItem) bool {
		less, err := h.less(a, b)
		if err != nil && cmpErr == nil {
			cmpErr = err
		}
		return less
	})
	if cmpErr != nil {
		return nil, cmpErr
	}
	rows := make([]types.Row, len(items))
	for i, it := range items {
		rows[i] = it.row
	}
	return rows, nil
}

// ArrivalRows returns the kept rows in their original arrival order. DN
// fragments ship in this order so the CN-side merge sees the same relative
// sequence it would without pushdown, keeping merged output byte-identical
// at every parallel degree.
func (h *TopNHeap) ArrivalRows() ([]types.Row, error) {
	items := append([]topnItem(nil), h.items...)
	sortItems(items, func(a, b *topnItem) bool { return a.seq < b.seq })
	rows := make([]types.Row, len(items))
	for i, it := range items {
		rows[i] = it.row
	}
	return rows, nil
}

// sortItems is an insertion sort over the (≤ limit, typically tiny) kept
// set; stable by construction.
func sortItems(items []topnItem, less func(a, b *topnItem) bool) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && less(&items[j], &items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

// TopN is the bounded ORDER BY + LIMIT operator: it keeps only the top
// Limit rows of its input (under Keys, ties by arrival) and emits them in
// sorted order. It replaces Sort+Limit pairs in the planner; output is
// row-for-row identical to a stable Sort followed by a Limit, while
// memory stays O(Limit) instead of O(input).
type TopN struct {
	Child Operator
	Keys  []SortKey
	Limit int64

	rowCursor
}

// Schema implements Operator.
func (t *TopN) Schema() *types.Schema { return t.Child.Schema() }

// Open implements Operator.
func (t *TopN) Open(ctx *Ctx) error {
	if err := t.Child.Open(ctx); err != nil {
		return err
	}
	h := NewTopNHeap(ctx, t.Keys, t.Limit)
	for {
		row, err := t.Child.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := h.Push(row); err != nil {
			return err
		}
		if len(t.Keys) == 0 && h.Full() {
			break // bare LIMIT: later rows always lose ties
		}
	}
	rows, err := h.SortedRows()
	if err != nil {
		return err
	}
	t.reset(rows)
	return nil
}

// Close implements Operator.
func (t *TopN) Close() error {
	t.reset(nil)
	return t.Child.Close()
}
