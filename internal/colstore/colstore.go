// Package colstore implements the columnar half of FI-MPPDB's hybrid
// row-column storage (paper §II, Fig 1): append-only compressed column
// segments with per-tuple MVCC insert stamps, plus the vector batches the
// vectorized execution engine operates on. A partition is columnar from the
// first insert — the open delta buffer is a segment whose plain columns still
// grow — and a scan borrows column memory instead of copying it (DESIGN 22).
//
// Column tables are optimized for the paper's OLAP workloads: bulk ingest
// and scan-heavy queries. User-facing columnar tables are append-only
// (updates and deletes go to row storage, mirroring the common MPP engine
// split documented in DESIGN.md). Tables switched into delta-merge mode
// with EnableTombstones — the HTAP analytical replicas — additionally
// support MVCC deletes via per-row xmax stamps (see tombstone.go).
package colstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/txnkit"
	"repro/internal/types"
)

// BatchSize is the number of rows per vectorized batch.
const BatchSize = 1024

// SegmentRows is the number of rows buffered before sealing a compressed
// segment.
const SegmentRows = 8192

// Vector is a typed column of values. Exactly one of the payload slices is
// populated according to Kind (times share Ints as UnixNano). A scan's
// vectors hold BatchSize or fewer values and are read-only: their payload may
// be the table's own memory.
type Vector struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool // nil when the vector contains no NULLs
}

// Len returns the vector length.
func (v *Vector) Len() int {
	switch v.Kind {
	case types.KindInt, types.KindTime:
		return len(v.Ints)
	case types.KindFloat:
		return len(v.Floats)
	case types.KindString:
		return len(v.Strs)
	case types.KindBool:
		return len(v.Bools)
	default:
		return len(v.Nulls)
	}
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// DatumAt materializes row i as a Datum (the boundary between vectorized
// and row-at-a-time execution).
func (v *Vector) DatumAt(i int) types.Datum {
	if v.IsNull(i) {
		return types.Null
	}
	switch v.Kind {
	case types.KindInt:
		return types.NewInt(v.Ints[i])
	case types.KindTime:
		d, err := types.Coerce(types.NewInt(v.Ints[i]), types.KindTime)
		if err != nil {
			panic(err)
		}
		return d
	case types.KindFloat:
		return types.NewFloat(v.Floats[i])
	case types.KindString:
		return types.NewString(v.Strs[i])
	case types.KindBool:
		return types.NewBool(v.Bools[i])
	default:
		return types.Null
	}
}

// Batch is a set of column vectors sharing one row count. A scan hands the
// same Batch to every call of its callback; see ScanBatchesWhere for how long
// what it points at stays valid.
type Batch struct {
	Cols []*Vector
	N    int
}

// Row materializes batch row i.
func (b *Batch) Row(i int) types.Row {
	out := make(types.Row, len(b.Cols))
	for c, v := range b.Cols {
		out[c] = v.DatumAt(i)
	}
	return out
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

// encoding identifies the physical layout of one column.
type encoding uint8

const (
	encPlain encoding = iota
	encRLE            // run-length encoded int64
	encDict           // dictionary-encoded strings
)

// column is one column of a Segment. Plain, its values are the embedded
// Vector's payload — what the delta buffer appends to and what scans lend
// out; seal may replace that payload by runs or a dictionary. Kind and Nulls
// hold under every encoding.
type column struct {
	Vector
	enc encoding

	// RLE payload: run r is runVals[r] over rows [runStarts[r], runStarts[r+1]).
	runVals   []int64
	runStarts []int32 // one more entry than runVals: the row count closes the last run

	// dict payload
	dict    []string
	indexes []uint32
}

// Segment is a set of columns plus MVCC insert stamps. The table's open delta
// buffer is one whose columns are all plain and still grow; sealing compresses
// it in place, records per-column zone maps (min/max over non-NULL values)
// that scans use to skip segments a predicate cannot match, and makes it
// immutable.
type Segment struct {
	rows  int
	cols  []column
	xmins []txnkit.XID
	// xmaxs holds per-row delete stamps in delta-merge mode (nil on
	// append-only tables). Stamps are written by the HTAP apply goroutine
	// while scans run, so every element access is atomic; 0 = not deleted.
	xmaxs []uint64
	// mins/maxs are the zone maps; Null marks columns without one
	// (unorderable kind or no non-NULL values).
	mins, maxs []types.Datum
}

// xmaxAt returns the delete stamp of row i (0 = never deleted). Element
// access is atomic because tombstone stamping races concurrent scans.
func (s *Segment) xmaxAt(i int) txnkit.XID {
	if s.xmaxs == nil {
		return 0
	}
	return txnkit.XID(atomic.LoadUint64(&s.xmaxs[i]))
}

// Rows returns the segment's row count.
func (s *Segment) Rows() int { return s.rows }

// ColRange returns the sealed min/max of column c. ok is false when the
// segment has no zone map for that column, in which case the segment must
// be scanned.
func (s *Segment) ColRange(c int) (min, max types.Datum, ok bool) {
	if c >= len(s.mins) || s.mins[c].IsNull() {
		return types.Null, types.Null, false
	}
	return s.mins[c], s.maxs[c], true
}

// CompressedValues reports how many physical values column c stores after
// compression (for stats and compression-ratio tests).
func (s *Segment) CompressedValues(c int) int {
	col := &s.cols[c]
	switch col.enc {
	case encRLE:
		return len(col.runVals)
	case encDict:
		return len(col.dict) + len(col.indexes)/4 // indexes are 4x smaller than strings; approximate
	default:
		return s.rows
	}
}

// Encoding returns the encoding chosen for column c ("plain", "rle",
// "dict").
func (s *Segment) Encoding(c int) string {
	switch s.cols[c].enc {
	case encRLE:
		return "rle"
	case encDict:
		return "dict"
	default:
		return "plain"
	}
}

// seal turns the delta buffer into a sealed segment without copying it. Plain
// columns keep the vectors inserts built; the encoding is chosen per column:
// RLE when integer runs average >= 2, dictionary when string cardinality is
// below 50%. Scans that were lent the vectors keep reading them: nothing
// here writes to a payload, it only stops referring to the ones it replaces.
func (s *Segment) seal() {
	n := s.rows
	s.mins = make([]types.Datum, len(s.cols))
	s.maxs = make([]types.Datum, len(s.cols))
	for c := range s.cols {
		col := &s.cols[c]
		s.mins[c], s.maxs[c] = zoneMap(&col.Vector)
		switch col.Kind {
		case types.KindInt, types.KindTime:
			if n/max(countRuns(col.Ints), 1) >= 2 {
				col.enc = encRLE
				col.runVals, col.runStarts = rleEncode(col.Ints)
				col.Ints = nil
			}
		case types.KindString:
			dict, at := []string(nil), make(map[string]uint32)
			for i, v := range col.Strs {
				if _, seen := at[v]; !seen && !col.IsNull(i) {
					at[v] = uint32(len(dict))
					dict = append(dict, v)
				}
			}
			if len(dict)*2 < n {
				col.enc = encDict
				col.dict = dict
				col.indexes = make([]uint32, n)
				for i, v := range col.Strs {
					col.indexes[i] = at[v] // a NULL row's index is never read
				}
				col.Strs = nil
			}
		}
	}
}

// zoneMap computes the min/max of v over non-NULL values; both are Null when
// it holds no non-NULL values or an unorderable kind.
func zoneMap(v *Vector) (min, max types.Datum) {
	min, max = types.Null, types.Null
	for i, n := 0, v.Len(); i < n; i++ {
		d := v.DatumAt(i)
		if d.IsNull() {
			continue
		}
		if min.IsNull() {
			min, max = d, d
			continue
		}
		cl, err := types.Compare(d, min)
		if err != nil {
			return types.Null, types.Null // unorderable kind: no zone map
		}
		if cl < 0 {
			min = d
		}
		if ch, _ := types.Compare(d, max); ch > 0 {
			max = d
		}
	}
	return min, max
}

func countRuns(vals []int64) int {
	if len(vals) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	return runs
}

func rleEncode(vals []int64) (runVals []int64, runStarts []int32) {
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			runVals = append(runVals, v)
			runStarts = append(runStarts, int32(i))
		}
	}
	return runVals, append(runStarts, int32(len(vals)))
}

// view returns rows [lo, hi) of the column as a read-only vector. A plain
// column lends cap-limited sub-slices of its own payload — nothing is copied,
// and an append to the view cannot reach the column; an RLE or dictionary
// column decodes into scratch, which the caller owns and which never holds
// lent memory. Nulls are always lent.
func (col *column) view(lo, hi int, scratch *Vector) Vector {
	out := Vector{Kind: col.Kind}
	if col.Nulls != nil {
		out.Nulls = col.Nulls[lo:hi:hi]
	}
	switch {
	case col.enc == encRLE:
		// The run holding lo is the last one starting at or before it.
		r := sort.Search(len(col.runVals), func(r int) bool { return int(col.runStarts[r+1]) > lo })
		ints := scratch.Ints[:0]
		for pos := lo; pos < hi; r++ {
			for end := min(int(col.runStarts[r+1]), hi); pos < end; pos++ {
				ints = append(ints, col.runVals[r])
			}
		}
		scratch.Ints, out.Ints = ints, ints
	case col.enc == encDict:
		strs := scratch.Strs[:0]
		for i := lo; i < hi; i++ {
			if col.IsNull(i) {
				strs = append(strs, "")
			} else {
				strs = append(strs, col.dict[col.indexes[i]])
			}
		}
		scratch.Strs, out.Strs = strs, strs
	case col.Kind == types.KindInt, col.Kind == types.KindTime:
		out.Ints = col.Ints[lo:hi:hi]
	case col.Kind == types.KindFloat:
		out.Floats = col.Floats[lo:hi:hi]
	case col.Kind == types.KindString:
		out.Strs = col.Strs[lo:hi:hi]
	case col.Kind == types.KindBool:
		out.Bools = col.Bools[lo:hi:hi]
	}
	return out
}

// gather copies the rows of src listed in sel (ascending) into dst, reusing
// dst's arrays; dst must not hold lent memory.
func gather(dst, src *Vector, sel []int) {
	*dst = Vector{Kind: src.Kind, Ints: pick(dst.Ints, src.Ints, sel), Floats: pick(dst.Floats, src.Floats, sel),
		Strs: pick(dst.Strs, src.Strs, sel), Bools: pick(dst.Bools, src.Bools, sel), Nulls: pick(dst.Nulls, src.Nulls, sel)}
}

// pick overwrites dst with src's elements at sel; an absent payload stays so.
func pick[T any](dst, src []T, sel []int) []T {
	if src == nil {
		return nil
	}
	dst = dst[:0]
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

// Table is an append-only columnar table partition.
type Table struct {
	mu       sync.RWMutex
	name     string
	schema   *types.Schema
	segments []*Segment
	// delta is the open delta buffer: columnar from the first insert, so a
	// scan borrows it like a sealed segment and sealing adopts it as one.
	delta *Segment
	txm   *txnkit.TxnManager
	// unstorable is what Insert answers when the schema has a column kind no
	// vector holds.
	unstorable error

	// Delta-merge mode (HTAP replicas): segments carry atomically-accessed
	// delete stamps, and index locates live rows by encoded value for
	// DeleteMatching. Unset on append-only tables.
	mutable    bool
	index      map[string][]rowLoc
	keyBuf     []byte // reused index key bytes (under mu)
	tombstones atomic.Int64

	// Zone-map effectiveness counters, atomic because parallel query
	// fragments (and concurrent statements) scan partitions concurrently.
	segsScanned atomic.Int64
	segsPruned  atomic.Int64
	rowsScanned atomic.Int64
}

// ScanStats reports cumulative zone-map scan counters for one partition.
type ScanStats struct {
	// SegmentsScanned / SegmentsPruned count sealed segments read vs
	// skipped by zone maps; RowsScanned counts physical rows read
	// (segment rows plus delta-buffer rows, before MVCC filtering).
	SegmentsScanned, SegmentsPruned, RowsScanned int64
}

// Add accumulates other into s (cluster-level aggregation across
// partitions).
func (s *ScanStats) Add(other ScanStats) {
	s.SegmentsScanned += other.SegmentsScanned
	s.SegmentsPruned += other.SegmentsPruned
	s.RowsScanned += other.RowsScanned
}

// ScanStats returns the partition's counters.
func (t *Table) ScanStats() ScanStats {
	return ScanStats{
		SegmentsScanned: t.segsScanned.Load(),
		SegmentsPruned:  t.segsPruned.Load(),
		RowsScanned:     t.rowsScanned.Load(),
	}
}

// NewTable creates an empty columnar table bound to the node's transaction
// manager.
func NewTable(name string, schema *types.Schema, txm *txnkit.TxnManager) *Table {
	t := &Table{name: name, schema: schema, txm: txm}
	for _, c := range schema.Columns {
		switch c.Kind {
		case types.KindInt, types.KindTime, types.KindFloat, types.KindString, types.KindBool:
		default:
			t.unstorable = fmt.Errorf("colstore: table %q: column %q: %s is not a columnar kind", name, c.Name, c.Kind)
		}
	}
	t.delta = t.newDelta()
	return t
}

// newDelta returns an empty delta buffer for the table's schema.
func (t *Table) newDelta() *Segment {
	d := &Segment{cols: make([]column, t.schema.Len())}
	for c := range d.cols {
		d.cols[c].Kind = t.schema.Columns[c].Kind
	}
	if t.mutable {
		d.xmaxs = []uint64{}
	}
	return d
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Insert appends a row stamped with xid, sealing a segment when the delta
// buffer fills.
func (t *Table) Insert(xid txnkit.XID, row types.Row) error {
	if t.unstorable != nil {
		return t.unstorable
	}
	row, err := t.schema.CheckRow(row)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.delta
	for c := range d.cols {
		appendDatum(&d.cols[c].Vector, row[c])
	}
	d.xmins = append(d.xmins, xid)
	if t.mutable {
		d.xmaxs = append(d.xmaxs, 0)
		t.indexAddLocked(row, rowLoc{seg: int32(len(t.segments)), idx: int32(d.rows)})
	}
	d.rows++
	if d.rows >= SegmentRows {
		t.sealLocked()
	}
	return nil
}

// Flush seals any buffered delta rows into a segment.
func (t *Table) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.delta.rows > 0 {
		t.sealLocked()
	}
}

func (t *Table) sealLocked() {
	t.delta.seal()
	t.segments = append(t.segments, t.delta)
	t.delta = t.newDelta()
}

// DeltaLen returns the current delta-buffer length (cheap; the HTAP apply
// loop polls it to decide when to seal on batch boundaries).
func (t *Table) DeltaLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.delta.rows
}

// SegmentCount returns the number of sealed segments.
func (t *Table) SegmentCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segments)
}

// Segments returns the sealed segments (immutable once sealed).
func (t *Table) Segments() []*Segment {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]*Segment(nil), t.segments...)
}

// ScanBatches streams the table as vector batches visible to (xid, snap),
// projecting only cols (nil means all columns). fn returning false stops
// the scan.
func (t *Table) ScanBatches(xid txnkit.XID, snap *txnkit.Snapshot, cols []int, fn func(*Batch) bool) {
	t.ScanBatchesWhere(xid, snap, cols, nil, fn)
}

// scanCol is one projected column of a running scan.
type scanCol struct {
	src   *column // the column of the segment being read
	delta column  // the delta buffer's column as it stood when the scan began
	out   Vector  // what fn sees: lent from src, or one of the two below
	dec   Vector  // scratch an RLE / dictionary column decodes into
	own   Vector  // scratch the visible rows of a batch with invisible ones gather into
}

// ScanBatchesWhere is ScanBatches with segment-level zone-map pruning:
// sealed segments for which keep returns false are skipped without
// decoding. keep must be conservative — returning false asserts no row of
// the segment can satisfy the query predicate. The delta buffer has no
// zone maps and is always scanned. A nil keep scans everything.
//
// The batch and its vectors are read-only views, valid until fn returns:
// plain columns of a batch whose rows are all visible are sub-slices of the
// segment's or the delta buffer's own arrays (never written again once a
// scan can see them), everything else lives in scratch the scan reuses for
// its next batch. A value read out of them — a Datum, its string — may be
// kept for as long as the caller likes.
func (t *Table) ScanBatchesWhere(xid txnkit.XID, snap *txnkit.Snapshot, cols []int, keep func(*Segment) bool, fn func(*Batch) bool) {
	if cols == nil {
		cols = make([]int, t.schema.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	sc := make([]scanCol, len(cols))
	batch := &Batch{Cols: make([]*Vector, len(cols))}
	for v := range sc {
		batch.Cols[v] = &sc[v].out
	}
	t.mu.RLock()
	segs := t.segments
	delta := Segment{rows: t.delta.rows, xmins: t.delta.xmins, xmaxs: t.delta.xmaxs}
	for v, c := range cols {
		sc[v].delta = t.delta.cols[c]
	}
	t.mu.RUnlock()

	var sel rowSel // one selection scratch per scan
	vis := t.txm.Reader(snap, xid)
	// scan hands fn the visible rows of seg, whose projected columns are
	// sc[v].src, a batch at a time; false stops the whole scan.
	scan := func(seg *Segment) bool {
		t.rowsScanned.Add(int64(seg.rows))
		for lo := 0; lo < seg.rows; lo += BatchSize {
			hi := min(lo+BatchSize, seg.rows)
			sel.rows, sel.dense = sel.rows[:0], true
			// Rows come in runs of one insert stamp: one verdict per run.
			// A delta-merge table (an HTAP replica) allocates xmaxs for
			// every segment and its delta buffer, tombstoned or not; there
			// a row's verdict needs its own delete stamp too, and each row
			// is judged alone.
			for i, j := lo, lo; i < hi; i = j {
				x := seg.xmins[i]
				if seg.xmaxs != nil {
					j = i + 1
					sel.mark(i-lo, j-lo, vis.Visible(x, seg.xmaxAt(i)))
					continue
				}
				for j = i + 1; j < hi && seg.xmins[j] == x; j++ {
				}
				sel.mark(i-lo, j-lo, vis.Visible(x, 0))
			}
			batch.N = hi - lo
			if !sel.dense {
				batch.N = len(sel.rows)
			}
			if batch.N == 0 {
				continue
			}
			for v := range sc {
				c := &sc[v]
				c.out = c.src.view(lo, hi, &c.dec)
				if !sel.dense {
					gather(&c.own, &c.out, sel.rows)
					c.out = c.own
				}
			}
			if !fn(batch) {
				return false
			}
		}
		return true
	}
	for _, seg := range segs {
		if keep != nil && !keep(seg) {
			t.segsPruned.Add(1)
			continue
		}
		t.segsScanned.Add(1)
		for v, c := range cols {
			sc[v].src = &seg.cols[c]
		}
		if !scan(seg) {
			return
		}
	}
	for v := range sc {
		sc[v].src = &sc[v].delta
	}
	scan(&delta)
}

// rowSel lists a batch's visible rows, from the first invisible one on:
// while dense, every row so far is visible and nothing is listed.
type rowSel struct {
	rows  []int
	dense bool
}

// mark records rows [a, b) of the batch as visible or not.
func (s *rowSel) mark(a, b int, visible bool) {
	switch {
	case visible && !s.dense:
		for j := a; j < b; j++ {
			s.rows = append(s.rows, j)
		}
	case !visible && s.dense:
		s.dense = false
		for j := 0; j < a; j++ {
			s.rows = append(s.rows, j)
		}
	}
}

// appendDatum pushes d onto the vector, tracking NULLs.
func appendDatum(v *Vector, d types.Datum) {
	isNull := d.IsNull()
	if v.Nulls == nil && isNull {
		v.Nulls = make([]bool, v.Len())
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, isNull)
	}
	switch v.Kind {
	case types.KindInt:
		var x int64
		if !isNull {
			x = d.Int()
		}
		v.Ints = append(v.Ints, x)
	case types.KindTime:
		var x int64
		if !isNull {
			x = d.Time().UnixNano()
		}
		v.Ints = append(v.Ints, x)
	case types.KindFloat:
		var x float64
		if !isNull {
			x = d.Float()
		}
		v.Floats = append(v.Floats, x)
	case types.KindString:
		var x string
		if !isNull {
			x = d.Str()
		}
		v.Strs = append(v.Strs, x)
	case types.KindBool:
		var x bool
		if !isNull {
			x = d.Bool()
		}
		v.Bools = append(v.Bools, x)
	}
}

// ScanRows adapts ScanBatches to row-at-a-time callers.
func (t *Table) ScanRows(xid txnkit.XID, snap *txnkit.Snapshot, fn func(types.Row) bool) {
	t.ScanBatches(xid, snap, nil, func(b *Batch) bool {
		for i := 0; i < b.N; i++ {
			if !fn(b.Row(i)) {
				return false
			}
		}
		return true
	})
}

// rowAt materializes row i, of a sealed segment or of the delta buffer alike
// (the slow path of UnsettledCount, DeleteWhere and the tests).
func (s *Segment) rowAt(i int) types.Row {
	out := make(types.Row, len(s.cols))
	var scratch Vector // decode target shared by the columns: view never lends it out
	for c := range s.cols {
		v := s.cols[c].view(i, i+1, &scratch)
		out[c] = v.DatumAt(0)
	}
	return out
}

// UnsettledCount counts rows matching pred (nil = all) whose insert stamp
// belongs to a transaction that is still active or prepared. Columnar tables
// are append-only, so insert stamps are the only stamps to settle. The
// rebalancer polls this to zero before taking a bucket's final delta.
func (t *Table) UnsettledCount(pred func(types.Row) bool) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for si := 0; si <= len(t.segments); si++ {
		seg := t.segLocked(si)
		for i, x := range seg.xmins {
			if st := t.txm.Status(x); st != txnkit.StatusActive && st != txnkit.StatusPrepared {
				continue
			}
			if pred == nil || pred(seg.rowAt(i)) {
				n++
			}
		}
	}
	return n
}

// VisibleCount counts rows visible to (xid, snap).
func (t *Table) VisibleCount(xid txnkit.XID, snap *txnkit.Snapshot) int {
	n := 0
	t.ScanBatches(xid, snap, []int{0}, func(b *Batch) bool { n += b.N; return true })
	return n
}
