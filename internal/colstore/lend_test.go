package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/txnkit"
	"repro/internal/types"
)

// Tests for values that are borrowed, not copied: the delta buffer is
// columnar from the first insert, scans lend sub-slices of segment and delta
// vectors, and nothing a reader does may reach back into what it was lent.

// cloneColumns deep-copies a segment's columns, every payload array included.
func cloneColumns(s *Segment) []column {
	out := make([]column, len(s.cols))
	for c, col := range s.cols {
		out[c] = col
		out[c].Ints = append([]int64(nil), col.Ints...)
		out[c].Floats = append([]float64(nil), col.Floats...)
		out[c].Strs = append([]string(nil), col.Strs...)
		out[c].Bools = append([]bool(nil), col.Bools...)
		out[c].Nulls = append([]bool(nil), col.Nulls...)
		out[c].runVals = append([]int64(nil), col.runVals...)
		out[c].runStarts = append([]int32(nil), col.runStarts...)
		out[c].dict = append([]string(nil), col.dict...)
		out[c].indexes = append([]uint32(nil), col.indexes...)
	}
	return out
}

// sameColumns compares payloads by value (nil and empty are one).
func sameColumns(a, b []column) bool {
	norm := func(cols []column) []column { return cloneColumns(&Segment{cols: cols}) }
	return reflect.DeepEqual(norm(a), norm(b))
}

// TestRowAtLeavesSegmentIntact: rowAt walks a plain → RLE → dict → plain
// schema with one scratch vector. Were that scratch ever handed a lent plain
// array, the next encoded column would decode into the segment itself.
func TestRowAtLeavesSegmentIntact(t *testing.T) {
	txm := txnkit.NewTxnManager()
	tbl := NewTable("r", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "run", Kind: types.KindInt},
		types.Column{Name: "tag", Kind: types.KindString},
		types.Column{Name: "f", Kind: types.KindFloat},
	), txm)
	const n = 3000
	want := make([]types.Row, n)
	xid := txm.Begin()
	for i := range want {
		want[i] = types.Row{
			types.NewInt(int64(i*7919) % 10007), // no runs: plain
			types.NewInt(int64(i / 250)),        // long runs: RLE
			types.NewString(fmt.Sprintf("t%d", i%5)),
			types.NewFloat(float64(i) / 8),
		}
		if i%97 == 0 {
			want[i][i%4] = types.Null
		}
		if err := tbl.Insert(xid, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := txm.Commit(xid); err != nil {
		t.Fatal(err)
	}
	check := func(seg *Segment, encodings ...string) {
		t.Helper()
		for c, enc := range encodings {
			if got := seg.Encoding(c); got != enc {
				t.Fatalf("column %d is %s, want %s", c, got, enc)
			}
		}
		before := cloneColumns(seg)
		for pass := 0; pass < 2; pass++ {
			for i := range want {
				if got := seg.rowAt(i); got.String() != want[i].String() {
					t.Fatalf("pass %d row %d = %v, want %v", pass, i, got, want[i])
				}
			}
		}
		if !sameColumns(before, seg.cols) {
			t.Fatal("reading rows changed the segment")
		}
	}
	check(tbl.delta, "plain", "plain", "plain", "plain")
	tbl.Flush()
	check(tbl.segments[0], "plain", "rle", "dict", "plain")
}

// TestRLEBatchDecodeMatchesWholeSegment: a batch's decode starts at the run
// holding its first row (binary search over run starts), and must equal the
// same rows of a whole-segment decode, NULL runs included.
func TestRLEBatchDecodeMatchesWholeSegment(t *testing.T) {
	txm := txnkit.NewTxnManager()
	tbl := NewTable("r", types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}), txm)
	rng := rand.New(rand.NewSource(24))
	xid := txm.Begin()
	var model []types.Datum
	for len(model) < SegmentRows {
		v := types.NewInt(int64(rng.Intn(9)) - 4)
		if rng.Intn(6) == 0 {
			v = types.Null
		}
		for k := 1 + rng.Intn(700); k > 0 && len(model) < SegmentRows; k-- {
			model = append(model, v)
			if err := tbl.Insert(xid, types.Row{v}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tbl.SegmentCount() != 1 || tbl.segments[0].Encoding(0) != "rle" {
		t.Fatalf("want one RLE segment, have %d segments", tbl.SegmentCount())
	}
	col := &tbl.segments[0].cols[0]
	var wholeScratch, partScratch Vector
	whole := col.view(0, SegmentRows, &wholeScratch)
	for i, want := range model {
		if got := whole.DatumAt(i); got.String() != want.String() {
			t.Fatalf("whole decode row %d = %v, want %v", i, got, want)
		}
	}
	ranges := [][2]int{{0, 1}, {SegmentRows - 1, SegmentRows}, {1023, 1025}, {5, 4099}}
	for lo := 0; lo < SegmentRows; lo += BatchSize {
		ranges = append(ranges, [2]int{lo, lo + BatchSize})
	}
	for i := 0; i < 200; i++ {
		lo := rng.Intn(SegmentRows)
		ranges = append(ranges, [2]int{lo, lo + 1 + rng.Intn(SegmentRows-lo)})
	}
	for _, r := range ranges {
		part := col.view(r[0], r[1], &partScratch)
		if !reflect.DeepEqual(part.Ints, whole.Ints[r[0]:r[1]]) || !reflect.DeepEqual(part.Nulls, whole.Nulls[r[0]:r[1]]) {
			t.Fatalf("decode of [%d, %d) differs from the whole segment's rows", r[0], r[1])
		}
	}
}

// scanCost returns objects and bytes allocated by one dense scan of tbl.
func scanCost(tbl *Table, snap *txnkit.Snapshot) (objects, bytes float64, batches int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var sum int64
	scan := func() {
		batches = 0
		tbl.ScanBatches(0, snap, nil, func(b *Batch) bool {
			batches++
			sum += b.Cols[0].Ints[b.N-1]
			return true
		})
	}
	objects = testing.AllocsPerRun(10, scan)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / 10, batches
}

// TestColumnarScanAllocationCeiling pins what a dense scan allocates: its
// per-scan state and nothing per batch or per row — over sealed plain
// segments and over the delta buffer alike.
func TestColumnarScanAllocationCeiling(t *testing.T) {
	build := func(rows int, flush bool) (*Table, txnkit.Snapshot) {
		txm := txnkit.NewTxnManager()
		tbl := NewTable("a", types.NewSchema(
			types.Column{Name: "a", Kind: types.KindInt},
			types.Column{Name: "b", Kind: types.KindInt},
			types.Column{Name: "c", Kind: types.KindInt},
		), txm)
		xid := txm.Begin()
		for i := 0; i < rows; i++ {
			v := types.NewInt(int64(i*7919) % 100003)
			if err := tbl.Insert(xid, types.Row{v, v, v}); err != nil {
				t.Fatal(err)
			}
		}
		if err := txm.Commit(xid); err != nil {
			t.Fatal(err)
		}
		if flush {
			tbl.Flush()
		}
		return tbl, txm.LocalSnapshot()
	}
	for _, c := range []struct {
		name         string
		small, large int
		sealed       bool
	}{
		{"sealed plain segments", SegmentRows, 3 * SegmentRows, true},
		{"delta buffer", 1024, 4096, false},
	} {
		small, snapS := build(c.small, c.sealed)
		large, snapL := build(c.large, c.sealed)
		if c.sealed && (large.SegmentCount() != 3 || large.segments[0].Encoding(0) != "plain") {
			t.Fatalf("%s: want 3 plain segments, have %d", c.name, large.SegmentCount())
		}
		if !c.sealed && (large.SegmentCount() != 0 || large.DeltaLen() != c.large) {
			t.Fatalf("%s: want %d delta rows only", c.name, c.large)
		}
		objS, bytesS, _ := scanCost(small, &snapS)
		objL, bytesL, batches := scanCost(large, &snapL)
		t.Logf("%s: %d rows %.0f objects %.0f B; %d rows %.0f objects %.0f B in %d batches",
			c.name, c.small, objS, bytesS, c.large, objL, bytesL, batches)
		// One byte per extra row would add thousands; a stray runtime
		// allocation during the ten timed scans adds a few.
		if objL != objS || bytesL-bytesS > 64 {
			t.Errorf("%s: a scan of %d rows allocates %.0f objects / %.0f B, of %d rows %.0f / %.0f: something grows with the rows",
				c.name, c.small, objS, bytesS, c.large, objL, bytesL)
		}
		if objL > 4 || bytesL/float64(batches) >= 1024 {
			t.Errorf("%s: %.0f objects, %.0f B per batch; ceilings 4 and 1 KB", c.name, objL, bytesL/float64(batches))
		}
	}
}

// modelRow is the plain-Go side of TestDeltaScanMatchesRowModel: what was
// inserted, by whom, and who deleted it.
type modelRow struct {
	row        types.Row
	xmin, xmax txnkit.XID
}

// TestDeltaScanMatchesRowModel drives the columnar delta buffer and a row
// model with the same seeded stream — NULLs in every kind, rows of open and
// aborted transactions, tombstones either side of a mid-stream seal — and
// compares ScanBatchesWhere with the model for random column subsets and a
// pruning keep.
func TestDeltaScanMatchesRowModel(t *testing.T) {
	txm := txnkit.NewTxnManager()
	schema := types.NewSchema(
		types.Column{Name: "i", Kind: types.KindInt},
		types.Column{Name: "f", Kind: types.KindFloat},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "b", Kind: types.KindBool},
		types.Column{Name: "t", Kind: types.KindTime},
		types.Column{Name: "j", Kind: types.KindInt},
	)
	tbl := NewTable("d", schema, txm)
	tbl.EnableTombstones()
	rng := rand.New(rand.NewSource(7))
	var model []*modelRow
	// Rows are unique (column i is a counter), so a delete names one victim.
	insert := func(xid txnkit.XID) {
		n := int64(len(model))
		row := types.Row{
			types.NewInt(n),
			types.NewFloat(float64(rng.Intn(50)) / 4),
			types.NewString(fmt.Sprintf("s%d", rng.Intn(12))),
			types.NewBool(rng.Intn(2) == 0),
			types.NewTime(time.Unix(1_700_000_000+int64(rng.Intn(3)), 0)),
			types.NewInt(int64(rng.Intn(4))),
		}
		for c := 1; c < len(row); c++ {
			if rng.Intn(9) == 0 {
				row[c] = types.Null
			}
		}
		if err := tbl.Insert(xid, row); err != nil {
			t.Fatal(err)
		}
		model = append(model, &modelRow{row: row, xmin: xid})
	}
	visible := func(snap *txnkit.Snapshot, m *modelRow) bool {
		return refVisible(txm, snap, 0, m.xmin, m.xmax)
	}
	deleteSome := func(k int) {
		for ; k > 0; k-- {
			xid := txm.Begin()
			snap := txm.LocalSnapshot()
			m := model[rng.Intn(len(model))]
			if m.xmax != 0 || !visible(&snap, m) { // a stamped row has left the delete index, aborted deleter or not
				_ = txm.Abort(xid)
				continue
			}
			if err := tbl.DeleteMatching(xid, &snap, m.row); err != nil {
				t.Fatal(err)
			}
			m.xmax = xid
			if rng.Intn(5) == 0 {
				_ = txm.Abort(xid) // an aborted delete leaves the row visible
			} else if err := txm.Commit(xid); err != nil {
				t.Fatal(err)
			}
		}
	}
	var open []txnkit.XID
	phase := func(rows int) {
		for rows > 0 {
			xid := txm.Begin()
			k := 1 + rng.Intn(40)
			for ; k > 0 && rows > 0; k, rows = k-1, rows-1 {
				insert(xid)
			}
			switch rng.Intn(8) {
			case 0:
				open = append(open, xid) // stays uncommitted
			case 1:
				_ = txm.Abort(xid)
			default:
				if err := txm.Commit(xid); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A first all-visible stretch (dense batches), then the mix.
	xid := txm.Begin()
	for i := 0; i < 2*BatchSize; i++ {
		insert(xid)
	}
	if err := txm.Commit(xid); err != nil {
		t.Fatal(err)
	}
	dense, sparse := 0, 0
	compare := func(when string) {
		t.Helper()
		snap := txm.LocalSnapshot()
		for trial := 0; trial < 6; trial++ {
			cols := rng.Perm(schema.Len())[:1+rng.Intn(schema.Len())]
			var keep func(*Segment) bool
			pruned := map[*Segment]bool{}
			if trial%2 == 1 {
				keep = func(s *Segment) bool {
					_, max, ok := s.ColRange(0)
					if ok && max.Int() < int64(SegmentRows) {
						pruned[s] = true
						return false
					}
					return true
				}
			}
			var want []string
			for at, m := range model {
				inPruned := keep != nil && tbl.SegmentCount() > 0 && at < SegmentRows
				if visible(&snap, m) && !inPruned {
					proj := make(types.Row, len(cols))
					for v, c := range cols {
						proj[v] = m.row[c]
					}
					want = append(want, proj.String())
				}
			}
			var got []string
			tbl.ScanBatchesWhere(0, &snap, cols, keep, func(b *Batch) bool {
				if b.N <= 0 || b.N > BatchSize {
					t.Fatalf("%s: batch of %d rows", when, b.N)
				}
				lent := false
				for v, c := range cols {
					if b.Cols[v].Len() != b.N || b.Cols[v].Kind != schema.Columns[c].Kind {
						t.Fatalf("%s: column %d has %d values of %v, batch has %d", when, c, b.Cols[v].Len(), b.Cols[v].Kind, b.N)
					}
					lent = lent || lentFrom(tbl, b.Cols[v])
				}
				if lent {
					dense++
				} else {
					sparse++
				}
				for i := 0; i < b.N; i++ {
					got = append(got, b.Row(i).String())
				}
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, columns %v, keep %v: scan returns %d rows, model %d (or they differ)", when, cols, keep != nil, len(got), len(want))
			}
			if keep != nil && tbl.SegmentCount() > 0 && len(pruned) == 0 {
				t.Fatalf("%s: keep pruned nothing", when)
			}
		}
	}
	compare("dense delta")
	phase(3000)
	deleteSome(300)
	compare("delta with open, aborted and deleted rows")
	phase(SegmentRows) // seals mid-stream
	if tbl.SegmentCount() != 1 {
		t.Fatalf("segments = %d, want 1", tbl.SegmentCount())
	}
	deleteSome(600) // victims on both sides of the seal
	compare("one sealed segment plus delta")
	for _, x := range open {
		if err := txm.Commit(x); err != nil {
			t.Fatal(err)
		}
	}
	compare("open transactions committed")
	if dense == 0 || sparse == 0 {
		t.Errorf("dense (lent) batches %d, sparse (gathered) batches %d: both paths must be hit", dense, sparse)
	}
}

// within reports whether inner starts inside outer's array.
func within[T any](inner, outer []T) bool {
	if len(inner) == 0 || cap(outer) == 0 {
		return false
	}
	p, base := uintptr(unsafe.Pointer(unsafe.SliceData(inner))), uintptr(unsafe.Pointer(unsafe.SliceData(outer)))
	return p >= base && p < base+uintptr(cap(outer))*unsafe.Sizeof(inner[0])
}

// lentFrom reports whether v's payload lies inside one of tbl's own column
// arrays — a borrowed view, not a copy.
func lentFrom(tbl *Table, v *Vector) bool {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	for si := 0; si <= len(tbl.segments); si++ {
		for c := range tbl.segLocked(si).cols {
			col := &tbl.segLocked(si).cols[c]
			if within(v.Ints, col.Ints) || within(v.Floats, col.Floats) || within(v.Strs, col.Strs) || within(v.Bools, col.Bools) {
				return true
			}
		}
	}
	return false
}

// TestLentVectorsSurviveSealsAndDeletes: two scanners read what they were
// lent — checking every batch against the values the rows were built from —
// while a writer inserts through two seals and an HTAP-style apply stream
// deletes behind it. Run with -race: a lent array must never be written.
func TestLentVectorsSurviveSealsAndDeletes(t *testing.T) {
	txm := txnkit.NewTxnManager()
	tbl := NewTable("l", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "run", Kind: types.KindInt},
		types.Column{Name: "tag", Kind: types.KindString},
		types.Column{Name: "f", Kind: types.KindFloat},
	), txm)
	tbl.EnableTombstones()
	rowOf := func(id int64) types.Row {
		return types.Row{types.NewInt(id), types.NewInt(id / 300), types.NewString(fmt.Sprintf("t%d", id%7)), types.NewFloat(float64(id) / 2)}
	}
	const total = 2*SegmentRows + 500
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := txm.LocalSnapshot()
				last := int64(-1)
				tbl.ScanBatches(0, &snap, nil, func(b *Batch) bool {
					for i := 0; i < b.N; i++ {
						id := b.Cols[0].Ints[i]
						if want := rowOf(id); id <= last || b.Row(i).String() != want.String() {
							t.Errorf("scanned %v after id %d, want %v", b.Row(i), last, want)
							return false
						}
						last = id
					}
					return true
				})
			}
		}()
	}
	for id := int64(0); id < total; id++ {
		xid := txm.Begin()
		if err := tbl.Insert(xid, rowOf(id)); err != nil {
			t.Fatal(err)
		}
		if id%3 == 2 { // the apply stream: delete an older row in the same transaction
			snap := txm.LocalSnapshot()
			if err := tbl.DeleteMatching(xid, &snap, rowOf(id/3*2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txm.Commit(xid); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	snap := txm.LocalSnapshot()
	if got, want := tbl.VisibleCount(0, &snap), total-total/3; got != want || tbl.SegmentCount() != 2 {
		t.Errorf("visible = %d in %d segments, want %d in 2", got, tbl.SegmentCount(), want)
	}
}
