package plan

// Greedy, statistics-free join ordering for comma-list FROM clauses
// (janus-datalog's "greedy beats optimal" observation; the Cambridge
// Report's microsecond-budget planning). Instead of folding FROM items
// left-to-right, the planner scores every candidate pair by pattern shape —
// equi-key count between the two sides, base cardinality from the catalog,
// and pushed-predicate selectivity (already folded into each leaf's
// estimate by planBaseTable, including NDP-pushed filters) — and joins the
// cheapest pair each round. No maintained statistics are required: the
// score degrades gracefully to pure shape (key count + default
// cardinalities) when Stats are absent. Ordering is deterministic (strict
// improvement keeps the first-scanned pair) and bounded by a count of scored
// pairs; past the budget the remaining items fold in list order.

import (
	"repro/internal/exec"
	"repro/internal/sqlx"
)

const (
	// greedyMinItems is the smallest FROM list worth reordering; a two-item
	// list is only oriented (probe the larger side, build the smaller).
	greedyMinItems = 3
	// greedyMaxItems bounds the O(n²) pair scoring; larger lists fold
	// left-to-right like the pre-greedy planner.
	greedyMaxItems = 64
	// greedyMaxPairs bounds the pairs one FROM list scores: a round is
	// scored only if it fits in what is left; from the first round that
	// does not, the remaining items join in list order. A count, not a
	// clock, so the join order depends on the statement alone, never on
	// machine load. It is one round over the largest list
	// (greedyMaxItems), 2 016 pairs; a 6-table chain scores 35.
	greedyMaxPairs = greedyMaxItems * (greedyMaxItems - 1) / 2
)

// joinLeaf is one planned FROM item awaiting join-order selection.
type joinLeaf struct {
	op    exec.Operator
	scope *Scope
}

// foldJoinList joins the planned FROM items into a single operator. The
// greedy heuristic: precompute cross-leaf equi-key counts once, then each
// round score every candidate pair with estimateJoin (leaf estimates carry
// base cardinality × pushed-predicate selectivity, so an NDP-filtered fact
// table scores small) and join the cheapest. Every pair, at any list
// length, is oriented the larger side as probe (left) and the smaller as
// build (right). The output scope is restored to the written FROM order
// with a column-permuting projection when the join order differs, so
// SELECT * stays stable; projection pushdown sees through it.
func (pc *pctx) foldJoinList(leaves []joinLeaf, conjuncts []sqlx.Expr) (exec.Operator, *Scope, []sqlx.Expr, error) {
	if len(leaves) == 0 {
		return nil, &Scope{}, conjuncts, nil
	}

	type entry struct {
		op    exec.Operator
		scope *Scope
		order []int // leaf indexes in this entry's scope-concatenation order
	}
	entries := make([]*entry, len(leaves))
	for i := range leaves {
		entries[i] = &entry{op: leaves[i].op, scope: leaves[i].scope, order: []int{i}}
	}

	greedy := len(entries) >= greedyMinItems && len(entries) <= greedyMaxItems

	// Cross-leaf equi-key counts, computed once; the key count between two
	// merged entries is the sum over their leaf pairs. The equi-conjunct
	// shape check (binary =, no subquery) runs once per conjunct, not once
	// per pair — the subquery walk is the expensive part.
	var leafKeys [][]int
	if greedy {
		var eligible []*sqlx.BinaryOp
		for _, c := range conjuncts {
			if pc.consumed[c] {
				continue
			}
			if bo, ok := c.(*sqlx.BinaryOp); ok && bo.Op == sqlx.OpEq && !containsSubquery(c) {
				eligible = append(eligible, bo)
			}
		}
		leafKeys = make([][]int, len(leaves))
		for i := range leaves {
			leafKeys[i] = make([]int, len(leaves))
		}
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				n := countLeafEquiKeys(leaves[i].scope, leaves[j].scope, eligible)
				leafKeys[i][j], leafKeys[j][i] = n, n
			}
		}
	}
	pairKeys := func(a, b *entry) int {
		n := 0
		for _, la := range a.order {
			for _, lb := range b.order {
				n += leafKeys[la][lb]
			}
		}
		return n
	}
	estOf := func(e *entry) float64 {
		_, est := pc.stepOf(e.op)
		return est
	}

	// scoring stays on while every round so far fit the pair budget.
	scoring := greedy
	for len(entries) > 1 {
		ai, bi := 0, 1
		round := len(entries) * (len(entries) - 1) / 2
		scoring = scoring && pc.pairsScored+round <= greedyMaxPairs
		if scoring {
			pc.pairsScored += round
			best := -1.0
			for i := 0; i < len(entries); i++ {
				for j := i + 1; j < len(entries); j++ {
					s := pc.estimateJoin(estOf(entries[i]), estOf(entries[j]), pairKeys(entries[i], entries[j]))
					if best < 0 || s < best {
						best, ai, bi = s, i, j
					}
				}
			}
		}
		a, b := entries[ai], entries[bi]
		if ea, eb := estOf(a), estOf(b); ea > 0 && eb > ea {
			// Probe with the larger side; build the hash table on the
			// smaller. Ties and unknown estimates keep the written order.
			a, b = b, a
		}
		op, scope, rest, err := pc.joinPair(a.op, a.scope, b.op, b.scope, nil, exec.InnerJoin, conjuncts)
		if err != nil {
			return nil, nil, nil, err
		}
		conjuncts = rest
		merged := &entry{op: op, scope: scope, order: append(append([]int(nil), a.order...), b.order...)}
		entries[ai] = merged
		entries = append(entries[:bi], entries[bi+1:]...)
	}

	final := entries[0]
	op, scope := final.op, final.scope
	if !orderIsIdentity(final.order) {
		op, scope = restoreFromOrder(op, final.order, leaves)
	}
	return op, scope, conjuncts, nil
}

// orderIsIdentity reports whether the leaf order is 0,1,2,...
func orderIsIdentity(order []int) bool {
	for i, l := range order {
		if l != i {
			return false
		}
	}
	return true
}

// restoreFromOrder permutes a greedily-ordered join output back to the
// written FROM order with a projection, so downstream passes (SELECT *,
// unqualified resolution order) see the same scope the left-to-right
// planner produced.
func restoreFromOrder(op exec.Operator, order []int, leaves []joinLeaf) (exec.Operator, *Scope) {
	// Start position of each leaf in the current (greedy) concatenation.
	start := make([]int, len(leaves))
	pos := 0
	for _, l := range order {
		start[l] = pos
		pos += len(leaves[l].scope.Cols)
	}
	out := &Scope{}
	var exprs []exec.Expr
	for l := range leaves {
		for c, col := range leaves[l].scope.Cols {
			exprs = append(exprs, &exec.ColRef{Index: start[l] + c, Name: col.Canon})
			out.Cols = append(out.Cols, col)
		}
	}
	return &exec.Project{Child: op, Exprs: exprs, Out: out.schema()}, out
}

// countLeafEquiKeys counts the pre-filtered equi-conjuncts whose two sides
// split across the given scopes — the same recognition joinPair uses to
// extract hash-join keys, minus compilation.
func countLeafEquiKeys(a, b *Scope, eligible []*sqlx.BinaryOp) int {
	n := 0
	for _, bo := range eligible {
		if (resolvableIn(bo.Left, a) && resolvableIn(bo.Right, b)) ||
			(resolvableIn(bo.Right, a) && resolvableIn(bo.Left, b)) {
			n++
		}
	}
	return n
}
