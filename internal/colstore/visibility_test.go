package colstore

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/txnkit"
	"repro/internal/types"
)

// refVisible is MVCC visibility by definition, one tuple at a time — the
// reference a scan's per-scan txnkit.Reader must reproduce: the inserter is
// self, or committed and admitted by snap; the deleter (if any) is neither.
func refVisible(txm *txnkit.TxnManager, snap *txnkit.Snapshot, self, xmin, xmax txnkit.XID) bool {
	settled := func(x txnkit.XID) bool {
		if x == self && x != 0 {
			return true
		}
		return snap.XIDVisible(x) && txm.Status(x) == txnkit.StatusCommitted
	}
	return settled(xmin) && (xmax == 0 || !settled(xmax))
}

// TestScanMatchesRowAtATimeVisibility: one sealed segment, and the delta
// buffer behind it, mix runs from a committed, an aborted and a
// still-active inserter; on the delta-merge table, with tombstones from
// committed, aborted and active deleters. Every reader — none, the active
// inserter, an active deleter — must scan exactly the rows refVisible
// admits, row for row. The runs include the shapes a scan that settles a run
// of one insert stamp at a time can get wrong: runs straddling a batch
// boundary and the seal, and one-row runs between two long runs; the
// tombstones include the first and last rows of visible runs. Last, the
// same scans race a writer that appends runs to the delta buffer, across a
// seal, and on the delta-merge table stamps tombstones.
func TestScanMatchesRowAtATimeVisibility(t *testing.T) {
	for _, tombstones := range []bool{false, true} {
		t.Run(map[bool]string{false: "append-only", true: "delta-merge"}[tombstones], func(t *testing.T) {
			txm := txnkit.NewTxnManager()
			tbl := NewTable("v", types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}), txm)
			if tombstones {
				tbl.EnableTombstones()
			}
			committed, aborted, active := txm.Begin(), txm.Begin(), txm.Begin()
			inserters := []txnkit.XID{committed, aborted, active}
			var xmins []txnkit.XID
			const rows = SegmentRows + 2000
			for id := 0; id < rows; id++ {
				x := inserters[(id/97+id/1000)%3] // runs of uneven length
				switch {
				case id >= BatchSize-34 && id < BatchSize+36, id >= SegmentRows-92 && id < SegmentRows+150:
					x = committed // one run across a batch boundary, one across the seal
				case id == 3050: // inside an aborted run
					x = committed
				case id == 3250: // inside a committed run
					x = active
				}
				if err := tbl.Insert(x, types.Row{types.NewInt(int64(id))}); err != nil {
					t.Fatal(err)
				}
				xmins = append(xmins, x)
			}
			if err := txm.Commit(committed); err != nil {
				t.Fatal(err)
			}
			if err := txm.Abort(aborted); err != nil {
				t.Fatal(err)
			}
			if tbl.SegmentCount() != 1 || tbl.DeltaLen() != rows-SegmentRows {
				t.Fatalf("want one segment and a delta buffer, have %d segments and %d delta rows", tbl.SegmentCount(), tbl.DeltaLen())
			}
			// The first deleter stamps the first and last rows of visible
			// runs — the two across a boundary, the halves either side of
			// the one-row run at 3250 — and the rows either side of a batch
			// boundary and the seal. The others take the committed rows of a
			// stretch each, either side of the seal; the stretches overlap,
			// so a later deleter skips rows an earlier one already stamped.
			xmaxs := make([]txnkit.XID, rows)
			var deleters [][2]int
			if tombstones {
				deleters = [][2]int{{0, rows}, {100, 900}, {700, 2500}, {SegmentRows - 300, SegmentRows + 400}, {SegmentRows + 1000, rows}}
			}
			openDeleter := txm.Begin()
			edges := []int{BatchSize - 34, BatchSize, BatchSize + 35, 3201, 3249, 3251, 3297, SegmentRows - 92, SegmentRows - 1, SegmentRows, SegmentRows + 149}
			for d, span := range deleters {
				xid := txm.Begin()
				if d == 4 {
					xid = openDeleter
				}
				snap := txm.LocalSnapshot()
				for id := span[0]; id < span[1]; id++ {
					stamp := id%5 != 0
					if d == 0 {
						stamp = slices.Contains(edges, id)
					}
					if xmins[id] != committed || xmaxs[id] != 0 || !stamp {
						continue
					}
					if err := tbl.DeleteMatching(xid, &snap, types.Row{types.NewInt(int64(id))}); err != nil {
						t.Fatalf("deleter %d, row %d: %v", d, id, err)
					}
					xmaxs[id] = xid
				}
				switch d {
				case 2:
					_ = txm.Abort(xid)
				case 4:
				default:
					if err := txm.Commit(xid); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := txm.LocalSnapshot()
			check := func(when string) {
				for _, self := range []txnkit.XID{0, active, openDeleter} {
					var want, got []int64
					for id := 0; id < rows; id++ {
						if refVisible(txm, &snap, self, xmins[id], xmaxs[id]) {
							want = append(want, int64(id))
						}
					}
					tbl.ScanBatches(self, &snap, nil, func(b *Batch) bool {
						got = append(got, b.Cols[0].Ints[:b.N]...)
						return true
					})
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, reader %d: scan returns %d rows, the definition %d (or they differ)", when, self, len(got), len(want))
					}
				}
			}
			check("settled")

			// A writer appends runs of committed rows, and on the delta-merge
			// table stamps tombstones on rows of both kinds, while the scans
			// run. None of its transactions is in snap, so every scan must
			// still see exactly what it saw before.
			var live []int // rows the writer may delete: committed, never stamped
			for id := 0; tombstones && id < rows; id += 7 {
				if xmins[id] == committed && xmaxs[id] == 0 {
					live = append(live, id)
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for w := 0; w < 8; w++ {
					xid := txm.Begin()
					wsnap := txm.LocalSnapshot()
					for i := 0; i < 900+w*37; i++ {
						if err := tbl.Insert(xid, types.Row{types.NewInt(int64(rows + w*1000 + i))}); err != nil {
							t.Error(err)
							return
						}
					}
					for _, id := range live[w*len(live)/8 : (w+1)*len(live)/8] {
						if err := tbl.DeleteMatching(xid, &wsnap, types.Row{types.NewInt(int64(id))}); err != nil {
							t.Error(err)
							return
						}
					}
					if err := txm.Commit(xid); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for racing := true; racing; {
				select {
				case <-done:
					racing = false
				default:
				}
				check("racing appends")
			}
			if tbl.SegmentCount() < 2 {
				t.Errorf("the writer's appends sealed no segment (%d segments, %d delta rows)", tbl.SegmentCount(), tbl.DeltaLen())
			}
		})
	}
}

// TestScanSettlesEachTransactionOnce pins the per-scan visibility reader by
// count: a scan of a table written by k inserting transactions in runs, and
// stamped by d deleters, reads the clog at most k + d times, whatever the
// number of rows.
func TestScanSettlesEachTransactionOnce(t *testing.T) {
	for _, rows := range []int{2000, 3*SegmentRows + 100} {
		txm := txnkit.NewTxnManager()
		tbl := NewTable("s", types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}), txm)
		tbl.EnableTombstones()
		const k, d = 8, 3
		for w := 0; w < k; w++ {
			xid := txm.Begin()
			for id := w * rows / k; id < (w+1)*rows/k; id++ {
				if err := tbl.Insert(xid, types.Row{types.NewInt(int64(id))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := txm.Commit(xid); err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < d; w++ {
			xid := txm.Begin()
			snap := txm.LocalSnapshot()
			lo := (2*w + 1) * rows / (2 * d)
			for id := lo; id < lo+rows/(4*d); id++ {
				if err := tbl.DeleteMatching(xid, &snap, types.Row{types.NewInt(int64(id))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := txm.Commit(xid); err != nil {
				t.Fatal(err)
			}
		}
		snap := txm.LocalSnapshot()
		before := txm.ClogReads()
		n := tbl.VisibleCount(0, &snap)
		if reads := txm.ClogReads() - before; reads > k+d {
			t.Errorf("a scan of %d rows (%d visible) by %d inserters and %d deleters read the clog %d times, ceiling %d", rows, n, k, d, reads, k+d)
		}
	}
}
