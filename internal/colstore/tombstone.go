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

// rowLoc addresses one physical row: segment number plus row offset. The
// open delta buffer goes by the number it will have once sealed,
// len(t.segments), so sealing moves no index entry.
type rowLoc struct {
	seg, idx int32
}

// segLocked returns segment si, the delta buffer for si == len(t.segments).
func (t *Table) segLocked(si int) *Segment {
	if si == len(t.segments) {
		return t.delta
	}
	return t.segments[si]
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
	if t.delta.rows > 0 || len(t.segments) > 0 {
		panic("colstore: EnableTombstones on non-empty table " + t.name)
	}
	t.mutable = true
	t.index = make(map[string][]rowLoc)
	t.delta = t.newDelta()
}

// indexAddLocked records a new physical row location. The key is built in
// one reused buffer: the map's own copy of it is the only string made.
func (t *Table) indexAddLocked(row types.Row, loc rowLoc) {
	t.keyBuf = row.AppendKey(t.keyBuf[:0])
	t.index[string(t.keyBuf)] = append(t.index[string(t.keyBuf)], loc)
}

// stampLocked sets the xmax of loc, whose row has the index key key, to xid
// and drops the row from the index. The store is atomic because scans read
// stamps without the table lock.
func (t *Table) stampLocked(key []byte, loc rowLoc, xid txnkit.XID) {
	atomic.StoreUint64(&t.segLocked(int(loc.seg)).xmaxs[loc.idx], uint64(xid))
	t.tombstones.Add(1)
	locs := t.index[string(key)]
	for j := range locs {
		if locs[j] == loc {
			locs[j] = locs[len(locs)-1]
			locs = locs[:len(locs)-1]
			break
		}
	}
	if len(locs) == 0 {
		delete(t.index, string(key))
	} else {
		t.index[string(key)] = locs
	}
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
	t.keyBuf = row.AppendKey(t.keyBuf[:0])
	vis := t.txm.Reader(snap, xid)
	for _, loc := range t.index[string(t.keyBuf)] {
		seg := t.segLocked(int(loc.seg))
		if vis.Visible(seg.xmins[loc.idx], seg.xmaxAt(int(loc.idx))) {
			t.stampLocked(t.keyBuf, loc, xid)
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
	vis := t.txm.Reader(snap, xid)
	for si := 0; si <= len(t.segments); si++ {
		seg := t.segLocked(si)
		for i := range seg.xmins {
			if !vis.Visible(seg.xmins[i], seg.xmaxAt(i)) {
				continue
			}
			if row := seg.rowAt(i); pred(row) {
				t.keyBuf = row.AppendKey(t.keyBuf[:0])
				t.stampLocked(t.keyBuf, rowLoc{seg: int32(si), idx: int32(i)}, xid)
				n++
			}
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
		DeltaRows:  int64(t.delta.rows),
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
