package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
)

// TestFragmentTopNAllocationCeiling is a ceiling on what a pushed ORDER BY
// … LIMIT allocates per scanned row: each DN's full heap turns a row away by
// its key vector before building it, so only rows that beat the heap's worst
// kept row are materialized. Over keys in scrambled order that is about
// limit × ln(rows) per fragment; growing the table fourfold may add only
// those few rows and per-segment scan state — not a row per scanned row.
func TestFragmentTopNAllocationCeiling(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	c.ParallelDegree = 1
	mustExec(t, s, "CREATE TABLE tf (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	const rows = 4 * 4 * colstore.SegmentRows // 32 768 rows per DN at full size: four sealed segments
	insert := func(lo, hi int) {
		for ; lo < hi; lo += 1024 {
			var vals []string
			for i := lo; i < min(lo+1024, hi); i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*7919%rows)) // a permutation of 0..rows-1
			}
			mustExec(t, s, "INSERT INTO tf VALUES "+strings.Join(vals, ", "))
		}
	}
	const q = "SELECT k, v FROM tf ORDER BY v DESC LIMIT 10"
	allocs := func(n int) float64 {
		want := make([]int, n)
		for i := range want {
			want[i] = i * 7919 % rows
		}
		sort.Sort(sort.Reverse(sort.IntSlice(want)))
		res := mustExec(t, s, q)
		for i, r := range res.Rows {
			if v := r[1].Int(); v != int64(want[i]) || r[0].Int()*7919%rows != v {
				t.Fatalf("%s over %d rows: row %d is %v, want v = %d", q, n, i, r, want[i])
			}
		}
		if len(res.Rows) != 10 {
			t.Fatalf("%s: %d rows", q, len(res.Rows))
		}
		return testing.AllocsPerRun(20, func() { mustExec(t, s, q) })
	}
	insert(0, rows/4)
	small := allocs(rows / 4)
	insert(rows/4, rows)
	large := allocs(rows)
	// Three times as many rows again: building each would add at least as many
	// allocations.
	const ceiling = 256
	if large-small >= ceiling {
		t.Errorf("allocations grew from %.0f to %.0f (+%.0f) with the table, want < +%d", small, large, large-small, ceiling)
	}
	t.Logf("allocs per query: %.0f at %d rows, %.0f at %d", small, rows/4, large, rows)
}
