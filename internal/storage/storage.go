// Package storage implements the per-data-node row storage engine of the
// FI-MPPDB reproduction: an MVCC heap with PostgreSQL-style (xmin, xmax)
// tuple stamping, hash indexes, predicate scans and vacuum.
//
// Visibility is delegated to internal/txnkit so the same heap works under
// purely local snapshots (GTM-lite single-shard fast path) and merged
// snapshots (multi-shard transactions).
package storage

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/txnkit"
	"repro/internal/types"
)

// ErrWriteConflict is returned when a transaction tries to update or delete
// a tuple version already deleted by a concurrent (still unsettled)
// transaction. FI-MPPDB aborts and retries in this case (first-updater
// wins).
var ErrWriteConflict = errors.New("storage: write-write conflict")

// ErrDuplicateKey is returned on primary-key violations.
var ErrDuplicateKey = errors.New("storage: duplicate primary key")

// Tuple is one heap version.
type Tuple struct {
	Xmin txnkit.XID
	Xmax txnkit.XID
	Row  types.Row
}

// Table is an MVCC heap for one table partition on one data node.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema *types.Schema
	heap   []Tuple
	// indexes maps column position -> hash index (datum hash -> heap slots).
	// Index entries are never removed on update/delete; visibility filtering
	// happens at scan time and Vacuum rebuilds the index.
	indexes map[int]map[uint64][]int
	// pkCols are the primary-key column positions; empty means no PK.
	pkCols []int
	txm    *txnkit.TxnManager
}

// NewTable creates an empty heap bound to the node's transaction manager.
// pkCols may be nil.
func NewTable(name string, schema *types.Schema, pkCols []int, txm *txnkit.TxnManager) *Table {
	t := &Table{
		name:    name,
		schema:  schema,
		indexes: make(map[int]map[uint64][]int),
		pkCols:  pkCols,
		txm:     txm,
	}
	for _, c := range pkCols {
		t.indexes[c] = make(map[uint64][]int)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// CreateIndex adds a hash index on the column at position col, backfilling
// existing heap entries.
func (t *Table) CreateIndex(col int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return
	}
	idx := make(map[uint64][]int)
	for slot, tp := range t.heap {
		h := types.Hash(tp.Row[col])
		idx[h] = append(idx[h], slot)
	}
	t.indexes[col] = idx
}

// Insert appends a new tuple version owned by xid. The snapshot is used for
// primary-key uniqueness checking.
func (t *Table) Insert(xid txnkit.XID, snap *txnkit.Snapshot, row types.Row) error {
	row, err := t.schema.CheckRow(row)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkKeyLocked(xid, snap, row); err != nil {
		return err
	}
	t.appendLocked(Tuple{Xmin: xid, Row: row})
	return nil
}

func pkOf(row types.Row, pkCols []int) types.Row {
	out := make(types.Row, len(pkCols))
	for i, c := range pkCols {
		out[i] = row[c]
	}
	return out
}

// checkKeyLocked fails with ErrDuplicateKey if a tuple visible to (xid,
// snap) — own uncommitted inserts included — already carries row's primary
// key. Tables without a primary key always pass.
func (t *Table) checkKeyLocked(xid txnkit.XID, snap *txnkit.Snapshot, row types.Row) error {
	if len(t.pkCols) == 0 {
		return nil
	}
	c0 := t.pkCols[0]
	for _, s := range t.indexes[c0][types.Hash(row[c0])] {
		tp := &t.heap[s]
		if t.sameKey(tp.Row, row) && t.txm.TupleVisible(snap, xid, tp.Xmin, tp.Xmax) {
			return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.name, pkOf(row, t.pkCols))
		}
	}
	return nil
}

func (t *Table) sameKey(a, b types.Row) bool {
	for _, c := range t.pkCols {
		if !types.Equal(a[c], b[c]) {
			return false
		}
	}
	return true
}

func (t *Table) appendLocked(tp Tuple) {
	slot := len(t.heap)
	t.heap = append(t.heap, tp)
	for col, idx := range t.indexes {
		h := types.Hash(tp.Row[col])
		idx[h] = append(idx[h], slot)
	}
}

// Scan calls fn for every tuple version visible to (xid, snap). fn must not
// retain the row. Returning false stops the scan.
func (t *Table) Scan(xid txnkit.XID, snap *txnkit.Snapshot, fn func(row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range t.heap {
		tp := &t.heap[i]
		if t.txm.TupleVisible(snap, xid, tp.Xmin, tp.Xmax) {
			if !fn(tp.Row) {
				return
			}
		}
	}
}

// LookupEq scans only tuples whose indexed column col equals key, using the
// hash index when present and falling back to a full scan otherwise.
func (t *Table) LookupEq(xid txnkit.XID, snap *txnkit.Snapshot, col int, key types.Datum, fn func(row types.Row) bool) {
	t.mu.RLock()
	idx, ok := t.indexes[col]
	if !ok {
		t.mu.RUnlock()
		t.Scan(xid, snap, func(row types.Row) bool {
			if types.Equal(row[col], key) {
				return fn(row)
			}
			return true
		})
		return
	}
	defer t.mu.RUnlock()
	for _, s := range idx[types.Hash(key)] {
		tp := &t.heap[s]
		if !types.Equal(tp.Row[col], key) {
			continue // hash collision
		}
		if t.txm.TupleVisible(snap, xid, tp.Xmin, tp.Xmax) {
			if !fn(tp.Row) {
				return
			}
		}
	}
}

// Rewrite is the one loop that ends tuple versions and creates their
// successors: every tuple visible to (xid, snap) that match accepts (nil:
// all) gets xmax=xid, and the row change returns for it is appended as a new
// version. A nil change, or a nil row from it, deletes the victim. change
// must neither modify nor retain the row it is given. A successor whose
// primary-key columns differ from its victim's is checked for uniqueness
// exactly as Insert checks a new row. Any error stops the loop: the
// transaction has then written part of the statement and must abort. It
// returns the number of victims rewritten.
func (t *Table) Rewrite(xid txnkit.XID, snap *txnkit.Snapshot, match func(types.Row) (bool, error), change func(old types.Row) (types.Row, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Collect first: appending while iterating would rescan new versions.
	var victims []int
	for i := range t.heap {
		tp := &t.heap[i]
		if !t.txm.TupleVisible(snap, xid, tp.Xmin, tp.Xmax) {
			continue
		}
		if match != nil {
			ok, err := match(tp.Row)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
		}
		victims = append(victims, i)
	}
	n := 0
	for _, i := range victims {
		old := t.heap[i].Row
		if err := t.markDeletedLocked(&t.heap[i], xid); err != nil {
			return n, err
		}
		if change != nil {
			row, err := change(old)
			if err != nil {
				return n, err
			}
			if row != nil {
				if row, err = t.schema.CheckRow(row); err != nil {
					return n, err
				}
				if !t.sameKey(old, row) {
					if err = t.checkKeyLocked(xid, snap, row); err != nil {
						return n, err
					}
				}
				t.appendLocked(Tuple{Xmin: xid, Row: row})
			}
		}
		n++
	}
	return n, nil
}

// Update rewrites every visible tuple matching pred: the old version gets
// xmax=xid, a new version with set applied to a copy of the row is appended.
// It returns the number of updated tuples.
func (t *Table) Update(xid txnkit.XID, snap *txnkit.Snapshot, pred func(types.Row) bool, set func(types.Row) (types.Row, error)) (int, error) {
	return t.Rewrite(xid, snap, matchOf(pred), func(old types.Row) (types.Row, error) { return set(old.Clone()) })
}

// Delete stamps xmax=xid on every visible tuple matching pred and returns
// the count.
func (t *Table) Delete(xid txnkit.XID, snap *txnkit.Snapshot, pred func(types.Row) bool) (int, error) {
	return t.Rewrite(xid, snap, matchOf(pred), nil)
}

// matchOf adapts a predicate that cannot fail to Rewrite's match.
func matchOf(pred func(types.Row) bool) func(types.Row) (bool, error) {
	if pred == nil {
		return nil
	}
	return func(r types.Row) (bool, error) { return pred(r), nil }
}

// markDeletedLocked sets xmax, enforcing first-updater-wins: if another
// transaction already stamped xmax and has not aborted, that is a conflict.
func (t *Table) markDeletedLocked(tp *Tuple, xid txnkit.XID) error {
	if tp.Xmax != 0 && tp.Xmax != xid {
		switch t.txm.Status(tp.Xmax) {
		case txnkit.StatusAborted:
			// Previous deleter rolled back; we may take over the slot.
		default:
			return fmt.Errorf("%w: table %s tuple held by txn %d", ErrWriteConflict, t.name, tp.Xmax)
		}
	}
	tp.Xmax = xid
	return nil
}

// Vacuum removes versions that can never become visible again: inserted by
// an aborted txn, or deleted by a txn committed before horizon. It rebuilds
// the indexes and returns the number of versions reclaimed.
func (t *Table) Vacuum(horizon txnkit.XID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.heap[:0]
	removed := 0
	for _, tp := range t.heap {
		dead := false
		if t.txm.Status(tp.Xmin) == txnkit.StatusAborted {
			dead = true
		}
		if tp.Xmax != 0 && tp.Xmax < horizon && t.txm.Status(tp.Xmax) == txnkit.StatusCommitted {
			dead = true
		}
		if dead {
			removed++
			continue
		}
		kept = append(kept, tp)
	}
	t.heap = kept
	for col := range t.indexes {
		idx := make(map[uint64][]int)
		for slot, tp := range t.heap {
			h := types.Hash(tp.Row[col])
			idx[h] = append(idx[h], slot)
		}
		t.indexes[col] = idx
	}
	return removed
}

// UnsettledCount counts heap versions matching pred (nil = all) whose xmin
// or xmax belongs to a transaction that is still active or prepared. The
// rebalancer drains a bucket by polling this to zero: a complete snapshot
// of the bucket exists only once no stamp can still flip.
func (t *Table) UnsettledCount(pred func(types.Row) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	unsettled := func(x txnkit.XID) bool {
		if x == 0 {
			return false
		}
		st := t.txm.Status(x)
		return st == txnkit.StatusActive || st == txnkit.StatusPrepared
	}
	n := 0
	for i := range t.heap {
		tp := &t.heap[i]
		if pred != nil && !pred(tp.Row) {
			continue
		}
		if unsettled(tp.Xmin) || unsettled(tp.Xmax) {
			n++
		}
	}
	return n
}

// Reap physically removes every heap version matching pred, regardless of
// visibility, and rebuilds the indexes. It is the rebalancer's cleanup after
// a bucket cutover (retired source rows) or an aborted move (half-copied
// target rows): at those points the routing map guarantees no snapshot can
// reach the rows. It returns the number of versions removed.
func (t *Table) Reap(pred func(types.Row) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.heap[:0]
	removed := 0
	for _, tp := range t.heap {
		if pred(tp.Row) {
			removed++
			continue
		}
		kept = append(kept, tp)
	}
	if removed == 0 {
		return 0
	}
	t.heap = kept
	for col := range t.indexes {
		idx := make(map[uint64][]int)
		for slot, tp := range t.heap {
			h := types.Hash(tp.Row[col])
			idx[h] = append(idx[h], slot)
		}
		t.indexes[col] = idx
	}
	return removed
}

// VersionCount reports the raw number of heap versions (visible or not).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.heap)
}

// VisibleCount counts tuples visible to (xid, snap); convenience for tests
// and statistics collection.
func (t *Table) VisibleCount(xid txnkit.XID, snap *txnkit.Snapshot) int {
	n := 0
	t.Scan(xid, snap, func(types.Row) bool { n++; return true })
	return n
}
