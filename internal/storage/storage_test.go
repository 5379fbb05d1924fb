package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/txnkit"
	"repro/internal/types"
)

func newTestTable(t *testing.T, pk bool) (*Table, *txnkit.TxnManager) {
	t.Helper()
	txm := txnkit.NewTxnManager()
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	)
	var pkCols []int
	if pk {
		pkCols = []int{0}
	}
	return NewTable("t", schema, pkCols, txm), txm
}

// run executes f inside a committed transaction.
func run(txm *txnkit.TxnManager, f func(xid txnkit.XID, snap *txnkit.Snapshot) error) error {
	xid := txm.Begin()
	snap := txm.LocalSnapshot()
	if err := f(xid, &snap); err != nil {
		txm.Abort(xid)
		return err
	}
	return txm.Commit(xid)
}

func insertRows(t *testing.T, tbl *Table, txm *txnkit.TxnManager, n int) {
	t.Helper()
	err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		for i := 0; i < n; i++ {
			if err := tbl.Insert(xid, snap, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("v%d", i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// del ends every visible tuple matching pred (nil: all) through Rewrite and
// returns the count.
func del(tbl *Table, xid txnkit.XID, snap *txnkit.Snapshot, pred func(types.Row) bool) (int, error) {
	return tbl.Rewrite(xid, snap, nil, matchOf(pred), nil)
}

func countVisible(tbl *Table, txm *txnkit.TxnManager) int {
	snap := txm.LocalSnapshot()
	return tbl.VisibleCount(0, &snap)
}

func TestInsertAndScan(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 10)
	if got := countVisible(tbl, txm); got != 10 {
		t.Errorf("visible = %d, want 10", got)
	}
}

func TestInsertTypeChecking(t *testing.T) {
	tbl, txm := newTestTable(t, false)
	err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		return tbl.Insert(xid, snap, types.Row{types.NewString("oops"), types.NewString("v")})
	})
	if err == nil {
		t.Error("type mismatch must fail")
	}
	err = run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		return tbl.Insert(xid, snap, types.Row{types.NewInt(1)})
	})
	if err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 3)
	err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		return tbl.Insert(xid, snap, types.Row{types.NewInt(1), types.NewString("dup")})
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("err = %v, want ErrDuplicateKey", err)
	}
	// Same key within one transaction also conflicts.
	err = run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		if err := tbl.Insert(xid, snap, types.Row{types.NewInt(100), types.NewString("a")}); err != nil {
			return err
		}
		return tbl.Insert(xid, snap, types.Row{types.NewInt(100), types.NewString("b")})
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("err = %v, want ErrDuplicateKey", err)
	}
	// Deleting then reinserting the same key is allowed.
	err = run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		if _, err := del(tbl, xid, snap, func(r types.Row) bool { return r[0].Int() == 2 }); err != nil {
			return err
		}
		return tbl.Insert(xid, snap, types.Row{types.NewInt(2), types.NewString("reborn")})
	})
	if err != nil {
		t.Errorf("delete+reinsert should succeed: %v", err)
	}
}

// TestUpdateEnforcesPrimaryKey: the loop that creates versions checks the
// key of every successor whose key columns changed, as Insert does.
func TestUpdateEnforcesPrimaryKey(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 3)
	contents := func() string {
		snap := txm.LocalSnapshot()
		var rows []string
		tbl.Scan(0, &snap, func(r types.Row) bool {
			rows = append(rows, r.String())
			return true
		})
		sort.Strings(rows)
		return strings.Join(rows, " ")
	}
	before := contents()
	idIs := func(id int64) func(types.Row) bool {
		return func(r types.Row) bool { return r[0].Int() == id }
	}
	setID := func(id int64) func(types.Row) (types.Row, error) {
		return func(r types.Row) (types.Row, error) {
			r[0] = types.NewInt(id)
			return r, nil
		}
	}

	// Moving row 0 onto row 1's key fails, and the aborted transaction
	// leaves the table as it was.
	err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		_, err := tbl.Update(xid, snap, idIs(0), setID(1))
		return err
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("UPDATE onto an existing key: err = %v, want ErrDuplicateKey", err)
	}
	if got := contents(); got != before {
		t.Fatalf("failed UPDATE changed the table:\n%s\nwant\n%s", got, before)
	}

	// A row may be assigned its own key, and non-key updates never check.
	err = run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		if n, err := tbl.Update(xid, snap, idIs(1), setID(1)); err != nil || n != 1 {
			return fmt.Errorf("own key: n=%d err=%v", n, err)
		}
		n, err := tbl.Update(xid, snap, nil, func(r types.Row) (types.Row, error) {
			r[1] = types.NewString("w")
			return r, nil
		})
		if err != nil || n != 3 {
			return fmt.Errorf("non-key update: n=%d err=%v", n, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A key freed by the same transaction's earlier delete may be taken; a
	// free key may be taken at any time.
	err = run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		if _, err := del(tbl, xid, snap, idIs(1)); err != nil {
			return err
		}
		if _, err := tbl.Update(xid, snap, idIs(0), setID(1)); err != nil {
			return err
		}
		_, err := tbl.Update(xid, snap, idIs(2), setID(7))
		return err
	})
	if err != nil {
		t.Fatalf("taking freed and free keys: %v", err)
	}
	if got, want := contents(), "(1, w) (7, w)"; got != want {
		t.Fatalf("table holds %s, want %s", got, want)
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 5)
	err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		n, err := tbl.Update(xid, snap,
			func(r types.Row) bool { return r[0].Int() == 3 },
			func(r types.Row) (types.Row, error) {
				r[1] = types.NewString("updated")
				return r, nil
			})
		if n != 1 {
			t.Errorf("updated %d rows, want 1", n)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := countVisible(tbl, txm); got != 5 {
		t.Errorf("visible = %d, want 5", got)
	}
	if tbl.VersionCount() != 6 {
		t.Errorf("versions = %d, want 6", tbl.VersionCount())
	}
	snap := txm.LocalSnapshot()
	found := false
	tbl.Scan(0, &snap, func(r types.Row) bool {
		if r[0].Int() == 3 {
			found = true
			if r[1].Str() != "updated" {
				t.Errorf("row 3 value = %q", r[1].Str())
			}
		}
		return true
	})
	if !found {
		t.Error("row 3 vanished")
	}
}

func TestDeleteHidesTuple(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 5)
	err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		n, err := del(tbl, xid, snap, func(r types.Row) bool { return r[0].Int()%2 == 0 })
		if n != 3 {
			t.Errorf("deleted %d, want 3", n)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := countVisible(tbl, txm); got != 2 {
		t.Errorf("visible = %d, want 2", got)
	}
}

func TestAbortRollsBackEverything(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 3)
	xid := txm.Begin()
	snap := txm.LocalSnapshot()
	tbl.Insert(xid, &snap, types.Row{types.NewInt(99), types.NewString("ghost")})
	del(tbl, xid, &snap, func(r types.Row) bool { return r[0].Int() == 0 })
	tbl.Update(xid, &snap, func(r types.Row) bool { return r[0].Int() == 1 },
		func(r types.Row) (types.Row, error) { r[1] = types.NewString("ghost2"); return r, nil })
	txm.Abort(xid)

	if got := countVisible(tbl, txm); got != 3 {
		t.Errorf("visible after abort = %d, want 3", got)
	}
	s := txm.LocalSnapshot()
	tbl.Scan(0, &s, func(r types.Row) bool {
		if v := r[1].Str(); v == "ghost" || v == "ghost2" {
			t.Errorf("aborted write %q is visible", v)
		}
		return true
	})
}

func TestWriteWriteConflict(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 1)

	t1 := txm.Begin()
	s1 := txm.LocalSnapshot()
	t2 := txm.Begin()
	s2 := txm.LocalSnapshot()

	if _, err := del(tbl, t1, &s1, nil); err != nil {
		t.Fatal(err)
	}
	_, err := del(tbl, t2, &s2, nil)
	if !errors.Is(err, ErrWriteConflict) {
		t.Errorf("err = %v, want ErrWriteConflict", err)
	}
	// After t1 aborts, t2 can take over.
	txm.Abort(t1)
	if _, err := del(tbl, t2, &s2, nil); err != nil {
		t.Errorf("takeover after abort failed: %v", err)
	}
	txm.Commit(t2)
}

// TestConcurrentInsertsOfOneKey: uniqueness is judged by commit status, not
// by the inserter's snapshot — of two transactions that cannot see each
// other's insert of a key, the second fails first-updater-wins, whether the
// first is still open or committed after the second's snapshot; once the
// first aborts the key is free, and a transaction may delete and re-insert a
// key of its own.
func TestConcurrentInsertsOfOneKey(t *testing.T) {
	row := func(id int64, v string) types.Row { return types.Row{types.NewInt(id), types.NewString(v)} }
	tbl, txm := newTestTable(t, true)
	a, b := txm.Begin(), txm.Begin()
	sa, sb := txm.LocalSnapshot(), txm.LocalSnapshot()
	if err := tbl.Insert(a, &sa, row(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(b, &sb, row(1, "b")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("insert of a key an open transaction inserted: err = %v, want ErrWriteConflict", err)
	}
	if err := txm.Commit(a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(b, &sb, row(1, "b")); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("insert of a key committed after the snapshot: err = %v, want ErrWriteConflict", err)
	}
	// A primary-key-changing UPDATE is held to the same rule.
	if err := tbl.Insert(b, &sb, row(2, "b")); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update(b, &sb, func(r types.Row) bool { return r[0].Int() == 2 }, func(r types.Row) (types.Row, error) {
		r[0] = types.NewInt(1)
		return r, nil
	}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("UPDATE onto a key committed after the snapshot: err = %v, want ErrWriteConflict", err)
	}
	txm.Abort(b)
	if got := countVisible(tbl, txm); got != 1 {
		t.Fatalf("visible = %d, want only a's row", got)
	}

	// After the first inserter aborts, the second's insert succeeds.
	c, d := txm.Begin(), txm.Begin()
	sc, sd := txm.LocalSnapshot(), txm.LocalSnapshot()
	if err := tbl.Insert(c, &sc, row(5, "c")); err != nil {
		t.Fatal(err)
	}
	txm.Abort(c)
	if err := tbl.Insert(d, &sd, row(5, "d")); err != nil {
		t.Fatalf("insert after the other inserter aborted: %v", err)
	}
	// Delete and re-insert of a key inside one transaction still works.
	if _, err := del(tbl, d, &sd, func(r types.Row) bool { return r[0].Int() == 1 }); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(d, &sd, row(1, "d")); err != nil {
		t.Fatalf("re-insert of a key deleted by the same transaction: %v", err)
	}
	txm.Commit(d)
	snap := txm.LocalSnapshot()
	var got []string
	tbl.Scan(0, &snap, func(r types.Row) bool { got = append(got, r.String()); return true })
	if want := "(5, d) (1, d)"; strings.Join(got, " ") != want {
		t.Fatalf("table holds %v, want %s", got, want)
	}
}

// TestScanSettlesEachTransactionOnce pins the per-scan visibility reader by
// count: a scan, and Rewrite's victim loop, over a heap written by k
// inserting transactions and stamped by d deleters read the clog at most
// k + d times, whatever the number of rows.
func TestScanSettlesEachTransactionOnce(t *testing.T) {
	for _, rows := range []int{100, 5000} {
		tbl, txm := newTestTable(t, true)
		const k, d = 5, 3
		for w := 0; w < k; w++ {
			err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
				for id := w * rows / k; id < (w+1)*rows/k; id++ {
					if err := tbl.Insert(xid, snap, types.Row{types.NewInt(int64(id)), types.NewString("v")}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < d; w++ {
			lo := int64((2*w + 1) * rows / (2 * d))
			err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
				_, err := del(tbl, xid, snap, func(r types.Row) bool { return r[0].Int() >= lo && r[0].Int() < lo+int64(rows/(4*d)) })
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		snap := txm.LocalSnapshot()
		before := txm.ClogReads()
		n := tbl.VisibleCount(0, &snap)
		if reads := txm.ClogReads() - before; reads > k+d {
			t.Errorf("a scan of %d versions (%d visible) read the clog %d times, ceiling %d", rows, n, reads, k+d)
		}
		xid := txm.Begin()
		before = txm.ClogReads()
		if _, err := del(tbl, xid, &snap, func(types.Row) bool { return false }); err != nil {
			t.Fatal(err)
		}
		if reads := txm.ClogReads() - before; reads > k+d {
			t.Errorf("a rewrite over %d versions read the clog %d times, ceiling %d", rows, reads, k+d)
		}
		txm.Abort(xid)
	}
}

func TestLookupEqUsesIndexAndFallback(t *testing.T) {
	tbl, txm := newTestTable(t, true) // pk index on col 0
	insertRows(t, tbl, txm, 100)
	snap := txm.LocalSnapshot()

	n := 0
	tbl.LookupEq(0, &snap, 0, types.NewInt(42), func(r types.Row) bool { n++; return true })
	if n != 1 {
		t.Errorf("indexed lookup found %d rows", n)
	}
	// Column 1 has no index: fallback full scan.
	n = 0
	tbl.LookupEq(0, &snap, 1, types.NewString("v7"), func(r types.Row) bool { n++; return true })
	if n != 1 {
		t.Errorf("fallback lookup found %d rows", n)
	}
}

func TestVacuumReclaimsDeadVersions(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 10)
	// Delete half, update two.
	err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		_, err := del(tbl, xid, snap, func(r types.Row) bool { return r[0].Int() < 5 })
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Aborted insert adds a dead version too.
	xid := txm.Begin()
	snap := txm.LocalSnapshot()
	tbl.Insert(xid, &snap, types.Row{types.NewInt(777), types.NewString("x")})
	txm.Abort(xid)

	before := tbl.VersionCount()
	horizon := txm.LocalSnapshot().Xmax
	removed := tbl.Vacuum(horizon)
	if removed != 6 { // 5 deleted + 1 aborted
		t.Errorf("vacuum removed %d, want 6", removed)
	}
	if tbl.VersionCount() != before-6 {
		t.Errorf("version count after vacuum = %d", tbl.VersionCount())
	}
	if got := countVisible(tbl, txm); got != 5 {
		t.Errorf("visible after vacuum = %d, want 5", got)
	}
	// Index still works after rebuild.
	s := txm.LocalSnapshot()
	n := 0
	tbl.LookupEq(0, &s, 0, types.NewInt(7), func(r types.Row) bool { n++; return true })
	if n != 1 {
		t.Errorf("index lookup after vacuum found %d", n)
	}
}

func TestSnapshotScanStability(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 5)
	oldSnap := txm.LocalSnapshot()
	insertRows2 := func(base int) {
		run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
			return tbl.Insert(xid, snap, types.Row{types.NewInt(int64(base)), types.NewString("late")})
		})
	}
	insertRows2(100)
	insertRows2(101)
	if got := tbl.VisibleCount(0, &oldSnap); got != 5 {
		t.Errorf("old snapshot sees %d rows, want 5", got)
	}
	if got := countVisible(tbl, txm); got != 7 {
		t.Errorf("new snapshot sees %d rows, want 7", got)
	}
}

// Property: after any sequence of committed inserts and deletes, the number
// of visible rows equals inserts minus deletes of distinct keys.
func TestVisibleCountProperty(t *testing.T) {
	f := func(ops []bool) bool {
		tbl, txm := newTestTable(t, false)
		live := 0
		key := 0
		for _, ins := range ops {
			if ins || live == 0 {
				k := key
				key++
				run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
					return tbl.Insert(xid, snap, types.Row{types.NewInt(int64(k)), types.NewString("p")})
				})
				live++
			} else {
				// Delete exactly one visible row (the smallest id).
				run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
					deleted := false
					_, err := del(tbl, xid, snap, func(r types.Row) bool {
						if deleted {
							return false
						}
						deleted = true
						return true
					})
					return err
				})
				live--
			}
		}
		return countVisible(tbl, txm) == live
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	tbl, txm := newTestTable(t, false)
	insertRows(t, tbl, txm, 100)
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 50; i++ {
				err = run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
					return tbl.Insert(xid, snap, types.Row{types.NewInt(int64(1000 + w*50 + i)), types.NewString("c")})
				})
				if err != nil {
					break
				}
			}
			done <- err
		}(w)
	}
	for r := 0; r < 4; r++ {
		go func() {
			for i := 0; i < 50; i++ {
				snap := txm.LocalSnapshot()
				n := tbl.VisibleCount(0, &snap)
				if n < 100 {
					done <- fmt.Errorf("reader saw %d rows, want >= 100", n)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := countVisible(tbl, txm); got != 300 {
		t.Errorf("final visible = %d, want 300", got)
	}
}

// TestKeyPathVisitsOnlyItsKey counts tuples: a scan, a rewrite and an
// insert's key check that are given the whole primary key examine that key's
// versions, not the heap; a key that does not fit the table walks it.
func TestKeyPathVisitsOnlyItsKey(t *testing.T) {
	const rows = 5000
	txm := txnkit.NewTxnManager()
	schema := types.NewSchema(
		types.Column{Name: "w", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	)
	tbl := NewTable("t", schema, []int{0, 1}, txm)
	if err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(xid, snap, types.Row{types.NewInt(int64(i / 10)), types.NewInt(int64(i % 10)), types.NewString("v")}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The load's own key checks stay on each row's key too: every probe of
	// the first 10 rows' warehouse used to walk the warehouse.
	if n := tbl.Visited(); n != 0 {
		t.Errorf("loading %d distinct keys examined %d tuples in key checks, want 0", rows, n)
	}

	key := types.Row{types.NewInt(123), types.NewInt(4)}
	visit := func(what string, most int64, f func(xid txnkit.XID, snap *txnkit.Snapshot) error) {
		t.Helper()
		before := tbl.Visited()
		if err := run(txm, f); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := tbl.Visited() - before; n > most {
			t.Errorf("%s examined %d tuples of %d, want at most %d", what, n, rows, most)
		}
	}
	found := 0
	visit("a keyed scan", 1, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		tbl.ScanKey(xid, snap, key, func(r types.Row) bool { found++; return true })
		return nil
	})
	// A DOUBLE that equals the BIGINT key hashes to the same posting list.
	visit("a keyed scan by an equal DOUBLE", 1, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		tbl.ScanKey(xid, snap, types.Row{types.NewFloat(123), types.NewFloat(4)}, func(r types.Row) bool { found++; return true })
		return nil
	})
	if found != 2 {
		t.Fatalf("keyed scans found the row %d times, want 2", found)
	}
	visit("a keyed rewrite", 1, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		n, err := tbl.Rewrite(xid, snap, key, nil, func(old types.Row) (types.Row, error) {
			row := old.Clone()
			row[2] = types.NewString("w")
			return row, nil
		})
		if err == nil && n != 1 {
			err = fmt.Errorf("rewrote %d rows, want 1", n)
		}
		return err
	})
	visit("the rewritten key's scan", 2, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		seen := 0
		tbl.ScanKey(xid, snap, key, func(r types.Row) bool { seen++; return true })
		if seen != 1 {
			return fmt.Errorf("saw %d visible versions, want 1", seen)
		}
		return nil
	})
	visit("a duplicate insert's key check", 2, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		if err := tbl.Insert(xid, snap, types.Row{key[0], key[1], types.NewString("dup")}); !errors.Is(err, ErrDuplicateKey) {
			return fmt.Errorf("duplicate insert: %v, want ErrDuplicateKey", err)
		}
		return nil
	})
	// Half a key is no key: the whole heap is the candidate list.
	before := tbl.Visited()
	snap := txm.LocalSnapshot()
	tbl.ScanKey(0, &snap, types.Row{types.NewInt(123)}, func(types.Row) bool { return true })
	if n := tbl.Visited() - before; n < rows {
		t.Errorf("a scan with half the key examined %d tuples, want the whole heap (%d)", n, rows)
	}
}

// TestKeyIndexSurvivesVacuumAndReap: both compact the heap, so every slot
// the index holds moves; keyed scans, rewrites and key checks must find the
// same rows afterwards.
func TestKeyIndexSurvivesVacuumAndReap(t *testing.T) {
	tbl, txm := newTestTable(t, true)
	insertRows(t, tbl, txm, 200)
	update := func(id int64, v string) {
		t.Helper()
		if err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
			_, err := tbl.Rewrite(xid, snap, types.Row{types.NewInt(id)}, nil, func(old types.Row) (types.Row, error) {
				return types.Row{old[0], types.NewString(v)}, nil
			})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < 200; id += 3 {
		update(id, "second")
	}
	check := func(when string) {
		t.Helper()
		snap := txm.LocalSnapshot()
		for id := int64(0); id < 200; id++ {
			var got []string
			tbl.ScanKey(0, &snap, types.Row{types.NewInt(id)}, func(r types.Row) bool {
				if r[0].Int() == id {
					got = append(got, r[1].Str())
				}
				return true
			})
			want := fmt.Sprintf("v%d", id)
			if id%3 == 0 {
				want = "second"
			}
			if id >= 150 && when == "after reap" {
				if len(got) != 0 {
					t.Fatalf("%s: reaped key %d still found: %v", when, id, got)
				}
				continue
			}
			if len(got) != 1 || got[0] != want {
				t.Fatalf("%s: key %d reads %v, want [%s]", when, id, got, want)
			}
		}
	}
	check("before")
	if n := tbl.Vacuum(txm.LocalSnapshot().Xmax); n == 0 {
		t.Fatal("vacuum reclaimed nothing")
	}
	check("after vacuum")
	if n := tbl.Reap(func(r types.Row) bool { return r[0].Int() >= 150 }); n == 0 {
		t.Fatal("reap removed nothing")
	}
	check("after reap")
	// Updates and key checks keep working against the rebuilt index.
	update(7, "third")
	if err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		return tbl.Insert(xid, snap, types.Row{types.NewInt(7), types.NewString("dup")})
	}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("insert of a live key after vacuum and reap: %v, want ErrDuplicateKey", err)
	}
	if err := run(txm, func(xid txnkit.XID, snap *txnkit.Snapshot) error {
		return tbl.Insert(xid, snap, types.Row{types.NewInt(160), types.NewString("back")})
	}); err != nil {
		t.Fatalf("insert of a reaped key: %v", err)
	}
}
