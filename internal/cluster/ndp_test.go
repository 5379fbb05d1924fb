package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/sqlx"
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

// TestProjectedScanAllocationCeiling is a ceiling on what an ORDER BY over a
// bare scan allocates per shipped row. Its select list is bare columns, so
// the planner folds the projection into the scan: the data node builds each
// survivor once, in the output row's shape, and no coordinator Project
// copies it. Four times the rows may add one object per added row, plus a
// constant — a second object per row (a table-width row and its projected
// copy) would double the growth.
func TestProjectedScanAllocationCeiling(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	c.ParallelDegree = 1
	mustExec(t, s, "CREATE TABLE tp (k BIGINT, v BIGINT, w BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	stmt, err := sqlx.Parse("SELECT v, k FROM tp ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 8 * colstore.SegmentRows
	insert := func(lo, hi int) {
		for ; lo < hi; lo += 1024 {
			var vals []string
			for i := lo; i < min(lo+1024, hi); i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, i*7919%rows, i))
			}
			mustExec(t, s, "INSERT INTO tp VALUES "+strings.Join(vals, ", "))
		}
	}
	allocs := func(n int) float64 {
		res, err := s.ExecStmt(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n {
			t.Fatalf("%d rows, want %d", len(res.Rows), n)
		}
		for i, r := range res.Rows {
			if len(r) != 2 || i > 0 && r[0].Int() <= res.Rows[i-1][0].Int() || r[1].Int()*7919%rows != r[0].Int() {
				t.Fatalf("over %d rows: row %d is %v", n, i, r)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := s.ExecStmt(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	insert(0, rows/4)
	small := allocs(rows / 4)
	insert(rows/4, rows)
	large := allocs(rows)
	const slack = 256
	if added := float64(rows - rows/4); large-small > added+slack {
		t.Errorf("allocations grew from %.0f to %.0f (+%.0f) over %.0f added rows, want at most one per row + %d", small, large, large-small, added, slack)
	}
	t.Logf("allocs per query: %.0f at %d rows, %.0f at %d", small, rows/4, large, rows)
}
