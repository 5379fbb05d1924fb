// Delta-merge mode: MVCC deletes on columnar tables via per-row xmax
// stamps. This backs the HTAP analytical replicas (internal/htap), which
// replay the primaries' commit-log stream — inserts append to the delta
// buffer, updates and deletes stamp the old row dead and (for updates)
// append the new version. Sealed segments stay physically immutable: a
// delete only flips the row's xmax word, which concurrent scans read
// atomically, so readers never block the apply loop.

package colstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/txnkit"
	"repro/internal/types"
)

// rowLoc addresses one physical row: segment index (or -1 for the open
// delta buffer) plus row offset.
type rowLoc struct {
	seg int
	idx int
}

// EnableTombstones switches the table into delta-merge mode: inserts are
// indexed by row value (types.Row.AppendKey) so DeleteMatching can locate
// victims in O(1), and rows gain atomically-stamped xmax delete markers. Must be
// called before the first insert; user-facing columnar tables never enable
// it, so their hot paths are unchanged.
func (t *Table) EnableTombstones() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mutable {
		return
	}
	if len(t.buf) > 0 || len(t.segments) > 0 {
		panic("colstore: EnableTombstones on non-empty table " + t.name)
	}
	t.mutable = true
	t.index = make(map[string][]rowLoc)
}

// indexAddLocked records a new physical row location.
func (t *Table) indexAddLocked(row types.Row, loc rowLoc) {
	k := string(row.AppendKey(nil))
	t.index[k] = append(t.index[k], loc)
}

// indexResealLocked repoints delta-buffer index entries at the segment the
// buffer was just sealed into (row offsets are preserved by seal).
func (t *Table) indexResealLocked(seg int) {
	for i, row := range t.buf {
		locs := t.index[string(row.AppendKey(nil))]
		for j := range locs {
			if locs[j].seg == -1 && locs[j].idx == i {
				locs[j].seg = seg
			}
		}
	}
}

// stampLocked sets the xmax of loc to xid and drops the row from the
// index. The store is atomic because scans read stamps without the table
// lock.
func (t *Table) stampLocked(key string, loc rowLoc, xid txnkit.XID) {
	if loc.seg == -1 {
		atomic.StoreUint64(&t.bufXmaxs[loc.idx], uint64(xid))
	} else {
		atomic.StoreUint64(&t.segments[loc.seg].xmaxs[loc.idx], uint64(xid))
	}
	t.tombstones.Add(1)
	locs := t.index[key]
	for j := range locs {
		if locs[j] == loc {
			locs[j] = locs[len(locs)-1]
			t.index[key] = locs[:len(locs)-1]
			break
		}
	}
	if len(t.index[key]) == 0 {
		delete(t.index, key)
	}
}

// xmaxLocked returns the current delete stamp of loc.
func (t *Table) xmaxLocked(loc rowLoc) txnkit.XID {
	if loc.seg == -1 {
		return txnkit.XID(atomic.LoadUint64(&t.bufXmaxs[loc.idx]))
	}
	return t.segments[loc.seg].xmaxAt(loc.idx)
}

// DeleteMatching stamps exactly one live instance of row dead under xid.
// The instance must be visible to (xid, snap); failing to find one means
// the replica has diverged from the commit-log stream it replays, which is
// returned as an error rather than silently ignored.
func (t *Table) DeleteMatching(xid txnkit.XID, snap *txnkit.Snapshot, row types.Row) error {
	row, err := t.schema.CheckRow(row)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.mutable {
		return fmt.Errorf("colstore: table %q is append-only", t.name)
	}
	key := string(row.AppendKey(nil))
	for _, loc := range t.index[key] {
		var xmin txnkit.XID
		if loc.seg == -1 {
			xmin = t.bufXmins[loc.idx]
		} else {
			xmin = t.segments[loc.seg].xmins[loc.idx]
		}
		if t.txm.TupleVisible(snap, xid, xmin, t.xmaxLocked(loc)) {
			t.stampLocked(key, loc, xid)
			return nil
		}
	}
	return fmt.Errorf("colstore: no live row matching delete in %q", t.name)
}

// DeleteWhere stamps every live row matching pred dead under xid and
// returns the count. Used for bucket reaps after live migration, where the
// primary drops a whole bucket's rows physically; the replica expresses
// the same removal as an MVCC delete.
func (t *Table) DeleteWhere(xid txnkit.XID, snap *txnkit.Snapshot, pred func(types.Row) bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.mutable {
		return 0
	}
	n := 0
	for si, seg := range t.segments {
		for i := range seg.xmins {
			loc := rowLoc{seg: si, idx: i}
			if !t.txm.TupleVisible(snap, xid, seg.xmins[i], t.xmaxLocked(loc)) {
				continue
			}
			row := seg.rowAt(t.schema, i)
			if pred(row) {
				t.stampLocked(string(row.AppendKey(nil)), loc, xid)
				n++
			}
		}
	}
	for i, row := range t.buf {
		loc := rowLoc{seg: -1, idx: i}
		if !t.txm.TupleVisible(snap, xid, t.bufXmins[i], t.xmaxLocked(loc)) {
			continue
		}
		if pred(row) {
			t.stampLocked(string(row.AppendKey(nil)), loc, xid)
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Table statistics (autopilot colstore.* metrics)
// ---------------------------------------------------------------------------

// TableStats summarizes one partition's physical state for observability:
// segment shape, delta backlog, tombstone load, and how far compression
// shrank the sealed data.
type TableStats struct {
	Segments    int64
	SegmentRows int64 // rows in sealed segments (including tombstoned)
	DeltaRows   int64 // rows still in the open delta buffer
	Tombstones  int64 // xmax stamps written (delta-merge tables only)
	// LogicalValues is SegmentRows × columns; CompressedValues is what the
	// chosen encodings physically store. Ratio > 1 means compression won.
	LogicalValues    int64
	CompressedValues int64
}

// Add accumulates other into s (aggregation across partitions).
func (s *TableStats) Add(other TableStats) {
	s.Segments += other.Segments
	s.SegmentRows += other.SegmentRows
	s.DeltaRows += other.DeltaRows
	s.Tombstones += other.Tombstones
	s.LogicalValues += other.LogicalValues
	s.CompressedValues += other.CompressedValues
}

// CompressionRatio returns logical/compressed values (1.0 when nothing is
// sealed yet).
func (s TableStats) CompressionRatio() float64 {
	if s.CompressedValues == 0 {
		return 1.0
	}
	return float64(s.LogicalValues) / float64(s.CompressedValues)
}

// Stats returns the partition's current physical statistics.
func (t *Table) Stats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TableStats{
		Segments:   int64(len(t.segments)),
		DeltaRows:  int64(len(t.buf)),
		Tombstones: t.tombstones.Load(),
	}
	for _, seg := range t.segments {
		st.SegmentRows += int64(seg.rows)
		st.LogicalValues += int64(seg.rows) * int64(len(seg.cols))
		for c := range seg.cols {
			st.CompressedValues += int64(seg.CompressedValues(c))
		}
	}
	return st
}
