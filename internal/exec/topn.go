package exec

import (
	"cmp"
	"io"
	"slices"

	"repro/internal/types"
)

// topnItem is one candidate row inside a TopNHeap: the row as the
// comparator ranks it, and its arrival sequence number (for stable
// tie-breaks).
type topnItem struct {
	ranked
	seq int64
}

// TopNHeap accumulates the top `limit` rows under `keys` with ties broken
// by arrival order (earlier wins), so the kept set — and its order — is
// exactly what a stable Sort followed by a Limit would produce. It is the
// shared bounded accumulator behind the CN-side TopN operator and the
// DN-side fragment TopN pushdown: a max-heap of size ≤ limit whose root is
// the worst row currently kept, so each additional row costs O(log limit)
// instead of materializing the full input. It ranks rows with Sort's
// comparator (keyOrder): an item keeps its row, its prefix and a slot of
// the comparator's slab holding its full keys, read only when two prefixes
// tie. An item takes the slot of the row it displaces, so a full heap keeps
// limit+1 slots, evaluated once per row offered.
//
// With no keys the heap degenerates to "first `limit` rows by arrival",
// which is what a bare LIMIT keeps; callers can then stop feeding it as
// soon as Full reports true.
type TopNHeap struct {
	order keyOrder
	limit int64
	items []topnItem
	next  int64
	spare int // the slot a row offered to the full heap loads its keys into
}

// NewTopNHeap returns an empty accumulator keeping the top `limit` rows.
// ctx is used to evaluate the key expressions against each pushed row.
func NewTopNHeap(ctx *Ctx, keys []SortKey, limit int64) *TopNHeap {
	return &TopNHeap{order: keyOrder{keys: keys, ctx: ctx}, limit: limit, spare: int(limit)}
}

// less reports whether a orders strictly before b: by the sort keys first
// (respecting Desc), then by arrival sequence — the same order a stable
// Sort induces. Comparison errors propagate like Sort's.
func (h *TopNHeap) less(a, b *topnItem) (bool, error) {
	c, err := h.order.compare(&a.ranked, &b.ranked)
	if c == 0 {
		return a.seq < b.seq, err
	}
	return c < 0, err
}

// Push offers one row to the accumulator. The row is retained by reference;
// callers must not mutate it afterwards. Its keys are evaluated once, into
// the slot it would take; a row that is not kept costs no allocation.
func (h *TopNHeap) Push(row types.Row) error {
	if h.limit <= 0 {
		return nil
	}
	full := int64(len(h.items)) >= h.limit
	it := topnItem{ranked{row: row, slot: len(h.items), loaded: true}, h.next}
	if full {
		it.slot = h.spare
	}
	h.next++
	var err error
	if it.prefix, err = h.order.prefix(row, it.slot); err != nil {
		return err
	}
	if !full {
		h.items = append(h.items, it)
		return h.siftUp(len(h.items) - 1)
	}
	// Heap full: the new row displaces the current worst only if it orders
	// strictly before it. Ties keep the incumbent (earlier arrival).
	better, err := h.less(&it, &h.items[0])
	if err != nil || !better {
		return err
	}
	h.spare = h.items[0].slot
	h.items[0] = it
	return h.siftDown(0, len(h.items))
}

// Rejects reports whether the heap, full, would turn away any row whose
// first key is first, without the row being built: first's order prefix
// (complemented for DESC) is strictly greater than the worst kept row's.
// Compare(a, b) < 0 implies prefix(a) ≤ prefix(b) (DESIGN 26), so such a
// row orders strictly after every kept row. A tied prefix is not enough:
// the row must go to Push and its full keys. Skipping the row instead of
// pushing it is exact only when its keys could neither fail to evaluate nor
// bring a second kind family to the first key — bare columns of one type.
func (h *TopNHeap) Rejects(first types.Datum) bool {
	if !h.Full() || len(h.order.keys) == 0 {
		return false
	}
	if len(h.items) == 0 {
		return true // LIMIT 0 keeps nothing
	}
	p, _ := types.OrderPrefix(first)
	if h.order.keys[0].Desc {
		p = ^p
	}
	return p > h.items[0].prefix
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

// siftDown restores the max-heap property of the first n items from node i
// downward.
func (h *TopNHeap) siftDown(i, n int) error {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
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
// arrival) — the order a stable Sort + Limit would emit them in. It
// heapsorts the items where they sit — the worst goes last, and so on —
// so it is the heap's last call.
func (h *TopNHeap) SortedRows() ([]types.Row, error) {
	for n := len(h.items) - 1; n > 0; n-- {
		h.items[0], h.items[n] = h.items[n], h.items[0]
		if err := h.siftDown(0, n); err != nil {
			return nil, err
		}
	}
	return h.rows(), nil
}

// ArrivalRows returns the kept rows in their arrival order, the heap's last
// call. A DN fragment ships them so: its Exchange run is then in scan order,
// as without a heap, and the Exchange's one sort of the run orders them.
func (h *TopNHeap) ArrivalRows() []types.Row {
	slices.SortFunc(h.items, func(a, b topnItem) int { return cmp.Compare(a.seq, b.seq) })
	return h.rows()
}

func (h *TopNHeap) rows() []types.Row {
	rows := make([]types.Row, len(h.items))
	for i, it := range h.items {
		rows[i] = it.row
	}
	return rows
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
