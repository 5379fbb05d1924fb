package colstore

import (
	"reflect"
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
// still-active inserter, with tombstones from committed, aborted and
// active deleters. Every reader — none, the active inserter, an active
// deleter — must scan exactly the rows refVisible admits, row for row.
func TestScanMatchesRowAtATimeVisibility(t *testing.T) {
	txm := txnkit.NewTxnManager()
	tbl := NewTable("v", types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}), txm)
	tbl.EnableTombstones()
	committed, aborted, active := txm.Begin(), txm.Begin(), txm.Begin()
	inserters := []txnkit.XID{committed, aborted, active}
	var xmins []txnkit.XID
	const rows = SegmentRows + 2000
	for id := 0; id < rows; id++ {
		x := inserters[(id/97+id/1000)%3] // runs of uneven length
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
	// Deleters take the committed rows of a stretch each, either side of
	// the seal; the stretches overlap, so a later deleter skips rows an
	// earlier one already stamped.
	xmaxs := make([]txnkit.XID, rows)
	var openDeleter txnkit.XID
	for d, span := range [][2]int{{100, 900}, {700, 2500}, {SegmentRows - 300, SegmentRows + 400}, {SegmentRows + 1000, rows}} {
		xid := txm.Begin()
		snap := txm.LocalSnapshot()
		for id := span[0]; id < span[1]; id++ {
			if xmins[id] != committed || xmaxs[id] != 0 || id%5 == 0 {
				continue
			}
			if err := tbl.DeleteMatching(xid, &snap, types.Row{types.NewInt(int64(id))}); err != nil {
				t.Fatalf("deleter %d, row %d: %v", d, id, err)
			}
			xmaxs[id] = xid
		}
		switch d {
		case 1:
			_ = txm.Abort(xid)
		case 3:
			openDeleter = xid
		default:
			if err := txm.Commit(xid); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := txm.LocalSnapshot()
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
			t.Errorf("reader %d: scan returns %d rows, the definition %d (or they differ)", self, len(got), len(want))
		}
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
