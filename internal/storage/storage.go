// Package storage implements the per-data-node row storage engine of the
// FI-MPPDB reproduction: an MVCC heap with PostgreSQL-style (xmin, xmax)
// tuple stamping, a primary-key hash index, predicate scans and vacuum.
//
// Visibility is delegated to internal/txnkit so the same heap works under
// purely local snapshots (GTM-lite single-shard fast path) and merged
// snapshots (multi-shard transactions).
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	// pkCols are the primary-key column positions; empty means no PK.
	pkCols []int
	// pk is the primary-key index: the hash of a version's whole key (see
	// keyHash) -> the heap slots carrying it, in heap order. nil without a
	// PK. Entries are never removed on update/delete; visibility filtering
	// happens at scan time and Vacuum / Reap rebuild the index. A posting
	// list is a candidate list: a hash collision puts other keys on it, so
	// every reader re-checks what it is looking for.
	pk  map[uint64][]int
	txm *txnkit.TxnManager

	// visited counts the heap versions scans, rewrites and key checks have
	// examined — what an access path saves shows here, not in a clock.
	visited atomic.Int64
}

// NewTable creates an empty heap bound to the node's transaction manager.
// pkCols may be nil.
func NewTable(name string, schema *types.Schema, pkCols []int, txm *txnkit.TxnManager) *Table {
	t := &Table{name: name, schema: schema, pkCols: pkCols, txm: txm}
	if len(pkCols) > 0 {
		t.pk = make(map[uint64][]int)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

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

// keyHash hashes the key datums taken from row at cols (nil: row is the key
// itself): FNV-1a over their types.AppendKey bytes, so two keys Compare
// calls equal (BIGINT 5 and DOUBLE 5.0) hash alike.
func keyHash(row types.Row, cols []int) uint64 {
	var buf [64]byte
	b := buf[:0]
	if cols == nil {
		b = row.AppendKey(b)
	}
	for _, c := range cols {
		b = types.AppendKey(b, row[c])
	}
	h := uint64(14695981039346656037)
	for _, x := range b {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// pathLocked picks the access path of a scan or rewrite: the n heap slots to
// examine are slots[0:n] — the key index's candidates for key (one datum per
// primary-key column, in key order), in heap order — or, with nil slots,
// the whole heap: no key, or one this table cannot narrow by. Every examined
// version counts as visited.
func (t *Table) pathLocked(key types.Row) (slots []int, n int) {
	n = len(t.heap)
	if t.pk != nil && len(key) == len(t.pkCols) {
		slots = t.pk[keyHash(key, nil)]
		n = len(slots)
	}
	t.visited.Add(int64(n))
	return slots, n
}

// checkKeyLocked fails if a version already carrying row's primary key may
// still be live when xid commits. Uniqueness is judged by commit status, not
// by the snapshot alone — two transactions that cannot see each other's
// insert must not both commit the key. A version blocks unless its inserter
// aborted, or it was ended by xid itself or by a deleter that committed and
// snap admits. A blocking version xid can see, or inserted itself, fails
// with ErrDuplicateKey; one from a concurrent transaction (still unsettled,
// or committed after snap) fails with ErrWriteConflict, first-updater-wins.
// Tables without a primary key always pass.
func (t *Table) checkKeyLocked(xid txnkit.XID, snap *txnkit.Snapshot, row types.Row) error {
	if t.pk == nil {
		return nil
	}
	slots := t.pk[keyHash(row, t.pkCols)]
	t.visited.Add(int64(len(slots)))
	for _, s := range slots {
		tp := &t.heap[s]
		if !t.sameKey(tp.Row, row) {
			continue
		}
		ins := t.txm.Status(tp.Xmin)
		if ins == txnkit.StatusAborted {
			continue
		}
		if tp.Xmax != 0 && (tp.Xmax == xid || snap.XIDVisible(tp.Xmax) && t.txm.Status(tp.Xmax) == txnkit.StatusCommitted) {
			continue
		}
		if tp.Xmin == xid || snap.XIDVisible(tp.Xmin) && ins == txnkit.StatusCommitted {
			return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.name, pkOf(row, t.pkCols))
		}
		return fmt.Errorf("%w: table %s key %v held by txn %d", ErrWriteConflict, t.name, pkOf(row, t.pkCols), tp.Xmin)
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
	t.heap = append(t.heap, tp)
	t.indexLocked(len(t.heap) - 1)
}

// indexLocked enters heap slot's version into the key index.
func (t *Table) indexLocked(slot int) {
	if t.pk != nil {
		h := keyHash(t.heap[slot].Row, t.pkCols)
		t.pk[h] = append(t.pk[h], slot)
	}
}

// rebuildKeyLocked re-derives the key index after heap slots moved.
func (t *Table) rebuildKeyLocked() {
	if t.pk == nil {
		return
	}
	t.pk = make(map[uint64][]int, len(t.heap))
	for slot := range t.heap {
		t.indexLocked(slot)
	}
}

// Scan calls fn for every tuple version visible to (xid, snap). fn must not
// retain the row. Returning false stops the scan.
func (t *Table) Scan(xid txnkit.XID, snap *txnkit.Snapshot, fn func(row types.Row) bool) {
	t.ScanKey(xid, snap, nil, fn)
}

// ScanKey is Scan over an access path: with a whole primary key (one datum
// per key column, in key order) it visits only the versions the key index
// lists for it, in heap order — a superset of the versions carrying the
// key, so fn applies its own predicate exactly as under Scan; with a nil
// key, or on a table the key does not fit, it is Scan.
func (t *Table) ScanKey(xid txnkit.XID, snap *txnkit.Snapshot, key types.Row, fn func(row types.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	slots, n := t.pathLocked(key)
	vis := t.txm.Reader(snap, xid)
	for i := 0; i < n; i++ {
		tp := &t.heap[i]
		if slots != nil {
			tp = &t.heap[slots[i]]
		}
		if vis.Visible(tp.Xmin, tp.Xmax) {
			if !fn(tp.Row) {
				return
			}
		}
	}
}

// LookupEq scans only tuples whose column col equals key: through the key
// index when col is the whole primary key, by a full scan otherwise.
func (t *Table) LookupEq(xid txnkit.XID, snap *txnkit.Snapshot, col int, key types.Datum, fn func(row types.Row) bool) {
	var probe types.Row
	if len(t.pkCols) == 1 && t.pkCols[0] == col {
		probe = types.Row{key}
	}
	t.ScanKey(xid, snap, probe, func(row types.Row) bool {
		if types.Equal(row[col], key) {
			return fn(row)
		}
		return true
	})
}

// Rewrite is the one loop that ends tuple versions and creates their
// successors: every tuple visible to (xid, snap) that match accepts (nil:
// all) gets xmax=xid, and the row change returns for it is appended as a new
// version. key narrows where victims are looked for exactly as in ScanKey
// (nil: the whole heap); match still decides. A nil change, or a nil row
// from it, deletes the victim. change must neither modify nor retain the
// row it is given. A successor whose
// primary-key columns differ from its victim's is checked for uniqueness
// exactly as Insert checks a new row. Any error stops the loop: the
// transaction has then written part of the statement and must abort. It
// returns the number of victims rewritten.
func (t *Table) Rewrite(xid txnkit.XID, snap *txnkit.Snapshot, key types.Row, match func(types.Row) (bool, error), change func(old types.Row) (types.Row, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Collect first: appending while iterating would rescan new versions.
	slots, cand := t.pathLocked(key)
	var victims []int
	vis := t.txm.Reader(snap, xid)
	for j := 0; j < cand; j++ {
		i := j
		if slots != nil {
			i = slots[j]
		}
		tp := &t.heap[i]
		if !vis.Visible(tp.Xmin, tp.Xmax) {
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

// KeyOf returns row's primary key, one datum per key column in key order —
// the key Rewrite and ScanKey narrow by (empty without a primary key).
func (t *Table) KeyOf(row types.Row) types.Row { return pkOf(row, t.pkCols) }

// Update rewrites every visible tuple matching pred: the old version gets
// xmax=xid, a new version with set applied to a copy of the row is appended.
// It returns the number of updated tuples.
func (t *Table) Update(xid txnkit.XID, snap *txnkit.Snapshot, pred func(types.Row) bool, set func(types.Row) (types.Row, error)) (int, error) {
	return t.Rewrite(xid, snap, nil, matchOf(pred), func(old types.Row) (types.Row, error) { return set(old.Clone()) })
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
// the key index and returns the number of versions reclaimed.
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
	t.rebuildKeyLocked()
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
// visibility, and rebuilds the key index. It is the rebalancer's cleanup after
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
	t.rebuildKeyLocked()
	return removed
}

// Visited reports how many heap versions scans, rewrites and key checks have
// examined since the table was created.
func (t *Table) Visited() int64 { return t.visited.Load() }

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
