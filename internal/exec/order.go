package exec

import (
	"cmp"
	"slices"

	"repro/internal/types"
)

// keyOrder is the one ORDER BY comparator: Sort, TopNHeap and an ordered
// Exchange's merge all rank rows through it. A row is ranked by its first
// key's 64-bit order prefix (types.OrderPrefix, complemented for DESC);
// only when two prefixes tie are full keys compared, with types.Compare, on
// copies held in slots of a scratch slab: a tied row's keys are evaluated
// into a slot once, not per comparison (a TopNHeap fills each item's slot
// as it is pushed). The caller breaks a full tie by arrival, so every order
// it induces is a stable sort.
//
// The gain rests on the first key's prefixes being mostly distinct: a
// unique or high-cardinality BIGINT, DOUBLE or TIMESTAMP, or strings that
// differ within 8 bytes. Where they tie — a low-cardinality first key, a
// tiebreak column, strings sharing their first 8 bytes — the tied rows cost
// what every row cost a plain key sort: one evaluation of each key, and
// Compare on the stored datums (BenchmarkOrderBy measures both kinds).
//
// A prefix decides only between values of one kind family (or NULL). The
// first non-NULL first key of a second family fails the order at once, with
// the error Compare gives that pair — the error a comparison sort of the
// same rows would meet, since two such values must end up side by side.
type keyOrder struct {
	keys  []SortKey
	ctx   *Ctx
	fam   types.Family // the first key's non-NULL family, once one is seen
	first types.Datum  // the first key's first non-NULL value

	vals []types.Datum // full keys by slot, len(keys) per slot
}

// sortEntry is one row's place in a sort: its order prefix and its position
// in the input, which breaks ties.
type sortEntry struct {
	prefix uint64
	pos    int
}

// ranked is a row the heap or the merge ranks: its prefix, and the slot
// holding its full keys — a heap item's loaded as it is pushed, a merge
// head's the first time a prefix tie needs them.
type ranked struct {
	row    types.Row
	prefix uint64
	slot   int
	loaded bool
}

// note records v, a first key of family f, and fails when f is a second
// non-NULL family.
func (o *keyOrder) note(v types.Datum, f types.Family) error {
	switch {
	case f == types.FamilyNull:
	case o.fam == types.FamilyNull:
		o.fam, o.first = f, v
	case o.fam != f:
		_, err := types.Compare(o.first, v)
		return err
	}
	return nil
}

// prefix returns row's order prefix. Every key is evaluated, so an
// expression error surfaces whether or not the row ties; with s ≥ 0 the
// keys are kept in slot s.
func (o *keyOrder) prefix(row types.Row, s int) (uint64, error) {
	n := len(o.keys)
	if s >= 0 && (s+1)*n > len(o.vals) {
		o.reserve(max(s+1, 2*len(o.vals)/n, 4))
	}
	var p uint64
	for k, key := range o.keys {
		v, err := key.Expr.Eval(o.ctx, row)
		if err != nil {
			return 0, err
		}
		if s >= 0 {
			o.vals[s*n+k] = v
		}
		if k > 0 {
			continue
		}
		var f types.Family
		p, f = types.OrderPrefix(v)
		if err := o.note(v, f); err != nil {
			return 0, err
		}
		if key.Desc {
			p = ^p
		}
	}
	return p, nil
}

// reserve grows the slab to hold slots slots.
func (o *keyOrder) reserve(slots int) {
	if n := slots * len(o.keys); n > len(o.vals) {
		o.vals = append(o.vals, make([]types.Datum, n-len(o.vals))...)
	}
}

// compareSlots orders the full keys loaded in slots a and b.
func (o *keyOrder) compareSlots(a, b int) (int, error) {
	n := len(o.keys)
	for k, key := range o.keys {
		c, err := types.Compare(o.vals[a*n+k], o.vals[b*n+k])
		if err != nil || c != 0 {
			if key.Desc {
				c = -c
			}
			return c, err
		}
	}
	return 0, nil
}

// compare orders a and b: negative when a sorts first, 0 on a full tie.
func (o *keyOrder) compare(a, b *ranked) (int, error) {
	if a.prefix != b.prefix {
		return cmp.Compare(a.prefix, b.prefix), nil
	}
	for _, r := range [2]*ranked{a, b} {
		if !r.loaded {
			if _, err := o.prefix(r.row, r.slot); err != nil {
				return 0, err
			}
			r.loaded = true
		}
	}
	return o.compareSlots(a.slot, b.slot)
}

// sort returns rows' entries in key order, ties by position, in ents, one
// per row; rows is not moved. The entries are sorted on their prefixes
// alone, then each run of tied prefixes on its rows' full keys and
// positions, so the first sort need not keep ties in order.
func (o *keyOrder) sort(rows []types.Row, ents []sortEntry) ([]sortEntry, error) {
	for i, r := range rows {
		p, err := o.prefix(r, -1)
		if err != nil {
			return nil, err
		}
		ents[i] = sortEntry{p, i}
	}
	radixSort(ents, 56)
	longest := 0
	for i, j := 0, 0; i < len(ents); i = j {
		j = tieEnd(ents, i)
		longest = max(longest, j-i)
	}
	if longest < 2 {
		return ents, nil
	}
	o.reserve(longest)
	for i, j := 0, 0; i < len(ents); i = j {
		if j = tieEnd(ents, i); j-i > 1 {
			if err := o.sortTies(rows, ents[i:j]); err != nil {
				return nil, err
			}
		}
	}
	return ents, nil
}

// radixSort sorts ents on their prefixes in place, from the byte at shift
// down: an American flag sort. It counts the entries per value of the
// byte, swaps each entry into its value's bucket and sorts each bucket on
// the next byte; a byte every entry shares costs one counting pass and no
// move, and a bucket of a few entries is insertion-sorted. No loop makes a
// call per entry, where a comparison sort makes n log n comparator calls,
// and no second buffer is needed. Entries of one prefix end up in no
// particular order.
func radixSort(ents []sortEntry, shift uint) {
	var next, end [256]int32
	for {
		if len(ents) <= 32 {
			for i := 1; i < len(ents); i++ {
				for j := i; j > 0 && ents[j].prefix < ents[j-1].prefix; j-- {
					ents[j], ents[j-1] = ents[j-1], ents[j]
				}
			}
			return
		}
		end = [256]int32{}
		for _, e := range ents {
			end[byte(e.prefix>>shift)]++
		}
		if int(end[byte(ents[0].prefix>>shift)]) < len(ents) {
			break
		}
		if shift == 0 {
			return
		}
		shift -= 8
	}
	var sum int32
	for d, n := range end {
		next[d], sum = sum, sum+n
		end[d] = sum
	}
	for d := range next {
		for next[d] < end[d] {
			e := ents[next[d]]
			for b := byte(e.prefix >> shift); int(b) != d; b = byte(e.prefix >> shift) {
				ents[next[b]], e = e, ents[next[b]]
				next[b]++
			}
			ents[next[d]] = e
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	lo := int32(0)
	for _, hi := range end {
		if hi-lo > 1 {
			radixSort(ents[lo:hi], shift-8)
		}
		lo = hi
	}
}

// tieEnd returns the end of the run of entries whose prefix is ents[i]'s.
func tieEnd(ents []sortEntry, i int) int {
	j := i + 1
	for j < len(ents) && ents[j].prefix == ents[i].prefix {
		j++
	}
	return j
}

// sortTies orders run, entries with one prefix, by their rows' full keys,
// ties by position. Row j's keys go to slot j, and while the run is sorted
// each entry's prefix field holds its slot.
func (o *keyOrder) sortTies(rows []types.Row, run []sortEntry) error {
	p := run[0].prefix
	for j := range run {
		if _, err := o.prefix(rows[run[j].pos], j); err != nil {
			return err
		}
		run[j].prefix = uint64(j)
	}
	var sortErr error
	slices.SortFunc(run, func(a, b sortEntry) int {
		c, err := o.compareSlots(int(a.prefix), int(b.prefix))
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for j := range run {
		run[j].prefix = p
	}
	return sortErr
}

// sortRun is one fragment's share of an Exchange: its rows, as they
// arrived, and, ordered, their entries in key order, its first key's first
// non-NULL value and the merge's place in the entries.
type sortRun struct {
	rows  []types.Row
	ents  []sortEntry
	first types.Datum
	next  int
}

// merge appends the runs' rows to out in key order, ties to the lower run:
// exactly a stable sort of the runs' concatenation. A loser tree over the
// run heads ranks them (run f's head loads its keys into slot f); each row
// output costs log2(len(runs)) comparisons. The runs are left intact.
func (o *keyOrder) merge(runs []sortRun, out []types.Row) ([]types.Row, error) {
	k := len(runs)
	if k == 0 {
		return out, nil
	}
	heads := make([]ranked, k)
	for _, r := range runs {
		_, fam := types.OrderPrefix(r.first)
		if err := o.note(r.first, fam); err != nil {
			return out, err
		}
	}
	done := func(f int) bool { return runs[f].next == len(runs[f].ents) }
	// head makes run f's next entry its head.
	head := func(f int) {
		if r := &runs[f]; !done(f) {
			e := r.ents[r.next]
			heads[f] = ranked{row: r.rows[e.pos], prefix: e.prefix, slot: f}
		}
	}
	// before reports whether run a's head sorts before run b's; an
	// exhausted run sorts last.
	before := func(a, b int) (bool, error) {
		switch {
		case done(a):
			return false, nil
		case done(b):
			return true, nil
		}
		c, err := o.compare(&heads[a], &heads[b])
		if c == 0 {
			return a < b, err
		}
		return c < 0, err
	}
	// Run f's leaf is node f+k, node n's parent n/2. replay carries run w
	// up from its leaf: at each node the head that sorts first goes on and
	// the other stays as the node's loser. While the tree is built, a node
	// still empty keeps w until its other subtree's winner arrives.
	loser := make([]int, k) // loser[n]: the run that lost at inner node n (1 ≤ n < k)
	for n := range loser {
		loser[n] = -1
	}
	replay := func(w int) (int, error) {
		for n := (w + k) / 2; n >= 1; n /= 2 {
			if loser[n] < 0 {
				loser[n] = w
				return -1, nil
			}
			first, err := before(loser[n], w)
			if err != nil {
				return -1, err
			}
			if first {
				loser[n], w = w, loser[n]
			}
		}
		return w, nil
	}
	win := -1
	for f := range runs {
		head(f)
		w, err := replay(f)
		if err != nil {
			return out, err
		}
		win = max(win, w)
	}
	var err error
	for err == nil && !done(win) {
		out = append(out, heads[win].row)
		runs[win].next++
		head(win)
		win, err = replay(win)
	}
	return out, err
}
