// Package colstore implements the columnar half of FI-MPPDB's hybrid
// row-column storage (paper §II, Fig 1): append-only compressed column
// segments with per-tuple MVCC insert stamps, plus the vector batches the
// vectorized execution engine operates on.
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

// Vector is a typed column of BatchSize or fewer values. Exactly one of the
// payload slices is populated according to Kind (times share Ints as
// UnixNano).
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

// Batch is a set of column vectors sharing one row count.
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
// Compressed segments
// ---------------------------------------------------------------------------

// encoding identifies the physical layout of one compressed column.
type encoding uint8

const (
	encPlain encoding = iota
	encRLE            // run-length encoded int64
	encDict           // dictionary-encoded strings
)

// column is one sealed, compressed column.
type column struct {
	kind types.Kind
	enc  encoding

	// plain payloads
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool

	// RLE payload: runs[i] = (value, count)
	runVals   []int64
	runCounts []int32

	// dict payload
	dict    []string
	indexes []uint32

	nulls []bool // nil when no NULLs
}

// Segment is an immutable set of compressed columns plus MVCC insert
// stamps and per-column zone maps (min/max over non-NULL values, recorded
// at seal time) that scans use to skip segments a predicate cannot match.
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
		switch col.kind {
		case types.KindInt, types.KindTime:
			return len(col.ints)
		case types.KindFloat:
			return len(col.floats)
		case types.KindString:
			return len(col.strs)
		case types.KindBool:
			return len(col.bools)
		}
	}
	return s.rows
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

// seal compresses buffered rows into a Segment. Column encodings are chosen
// per column: RLE when integer runs average >= 2, dictionary when string
// cardinality is below 50%, plain otherwise.
func seal(schema *types.Schema, rows []types.Row, xmins []txnkit.XID, xmaxs []uint64) *Segment {
	n := len(rows)
	seg := &Segment{rows: n, xmins: append([]txnkit.XID(nil), xmins...)}
	if xmaxs != nil {
		seg.xmaxs = make([]uint64, n)
		for i := range xmaxs {
			atomic.StoreUint64(&seg.xmaxs[i], atomic.LoadUint64(&xmaxs[i]))
		}
	}
	seg.cols = make([]column, schema.Len())
	seg.mins = make([]types.Datum, schema.Len())
	seg.maxs = make([]types.Datum, schema.Len())
	for c := range schema.Columns {
		seg.mins[c], seg.maxs[c] = zoneMap(rows, c)
		kind := schema.Columns[c].Kind
		col := column{kind: kind}
		var nulls []bool
		hasNull := false
		for i := 0; i < n; i++ {
			isNull := rows[i][c].IsNull()
			if isNull {
				hasNull = true
			}
			nulls = append(nulls, isNull)
		}
		if hasNull {
			col.nulls = nulls
		}
		switch kind {
		case types.KindInt, types.KindTime:
			vals := make([]int64, n)
			for i := 0; i < n; i++ {
				if !nulls[i] {
					if kind == types.KindTime {
						vals[i] = rows[i][c].Time().UnixNano()
					} else {
						vals[i] = rows[i][c].Int()
					}
				}
			}
			runs := countRuns(vals)
			if n > 0 && n/max(runs, 1) >= 2 {
				col.enc = encRLE
				col.runVals, col.runCounts = rleEncode(vals)
			} else {
				col.enc = encPlain
				col.ints = vals
			}
		case types.KindFloat:
			col.enc = encPlain
			col.floats = make([]float64, n)
			for i := 0; i < n; i++ {
				if !nulls[i] {
					col.floats[i] = rows[i][c].Float()
				}
			}
		case types.KindString:
			vals := make([]string, n)
			distinct := make(map[string]uint32)
			for i := 0; i < n; i++ {
				if !nulls[i] {
					vals[i] = rows[i][c].Str()
					distinct[vals[i]] = 0
				}
			}
			if n > 0 && len(distinct)*2 < n {
				col.enc = encDict
				col.dict = make([]string, 0, len(distinct))
				for s := range distinct {
					distinct[s] = uint32(len(col.dict))
					col.dict = append(col.dict, s)
				}
				col.indexes = make([]uint32, n)
				for i := 0; i < n; i++ {
					if !nulls[i] {
						col.indexes[i] = distinct[vals[i]]
					}
				}
			} else {
				col.enc = encPlain
				col.strs = vals
			}
		case types.KindBool:
			col.enc = encPlain
			col.bools = make([]bool, n)
			for i := 0; i < n; i++ {
				if !nulls[i] {
					col.bools[i] = rows[i][c].Bool()
				}
			}
		default:
			col.enc = encPlain
			col.strs = make([]string, n)
			for i := 0; i < n; i++ {
				if !nulls[i] {
					col.strs[i] = rows[i][c].String()
				}
			}
		}
		seg.cols[c] = col
	}
	return seg
}

// zoneMap computes the min/max of column c over non-NULL values; both are
// Null when the column holds no non-NULL values or an unorderable kind.
func zoneMap(rows []types.Row, c int) (min, max types.Datum) {
	min, max = types.Null, types.Null
	for _, r := range rows {
		v := r[c]
		if v.IsNull() {
			continue
		}
		if min.IsNull() {
			min, max = v, v
			continue
		}
		cl, err := types.Compare(v, min)
		if err != nil {
			return types.Null, types.Null // unorderable kind: no zone map
		}
		if cl < 0 {
			min = v
		}
		if ch, _ := types.Compare(v, max); ch > 0 {
			max = v
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

func rleEncode(vals []int64) ([]int64, []int32) {
	var rv []int64
	var rc []int32
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		rv = append(rv, vals[i])
		rc = append(rc, int32(j-i))
		i = j
	}
	return rv, rc
}

// decode materializes rows [lo, hi) of column c into the destination
// vector.
func (s *Segment) decode(c, lo, hi int, out *Vector) {
	col := &s.cols[c]
	out.Kind = col.kind
	out.Ints = out.Ints[:0]
	out.Floats = out.Floats[:0]
	out.Strs = out.Strs[:0]
	out.Bools = out.Bools[:0]
	out.Nulls = nil
	if col.nulls != nil {
		out.Nulls = col.nulls[lo:hi]
	}
	switch col.enc {
	case encRLE:
		// Walk runs; fine for segment-sized ranges.
		pos := 0
		for r := 0; r < len(col.runVals) && pos < hi; r++ {
			cnt := int(col.runCounts[r])
			for k := 0; k < cnt; k++ {
				if pos >= lo && pos < hi {
					out.Ints = append(out.Ints, col.runVals[r])
				}
				pos++
			}
		}
	case encDict:
		for i := lo; i < hi; i++ {
			if col.nulls != nil && col.nulls[i] {
				out.Strs = append(out.Strs, "")
				continue
			}
			out.Strs = append(out.Strs, col.dict[col.indexes[i]])
		}
	default:
		switch col.kind {
		case types.KindInt, types.KindTime:
			out.Ints = append(out.Ints, col.ints[lo:hi]...)
		case types.KindFloat:
			out.Floats = append(out.Floats, col.floats[lo:hi]...)
		case types.KindString:
			out.Strs = append(out.Strs, col.strs[lo:hi]...)
		case types.KindBool:
			out.Bools = append(out.Bools, col.bools[lo:hi]...)
		}
	}
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
	// open delta buffer
	buf      []types.Row
	bufXmins []txnkit.XID
	txm      *txnkit.TxnManager

	// Delta-merge mode (HTAP replicas): bufXmaxs parallels buf with
	// atomically-accessed delete stamps, and index locates live rows by
	// encoded value for DeleteMatching. All nil on append-only tables.
	mutable    bool
	bufXmaxs   []uint64
	index      map[string][]rowLoc
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
	return &Table{name: name, schema: schema, txm: txm}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Insert appends a row stamped with xid, sealing a segment when the delta
// buffer fills.
func (t *Table) Insert(xid txnkit.XID, row types.Row) error {
	row, err := t.schema.CheckRow(row)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, row)
	t.bufXmins = append(t.bufXmins, xid)
	if t.mutable {
		t.bufXmaxs = append(t.bufXmaxs, 0)
		t.indexAddLocked(row, rowLoc{seg: -1, idx: len(t.buf) - 1})
	}
	if len(t.buf) >= SegmentRows {
		t.sealLocked()
	}
	return nil
}

// Flush seals any buffered delta rows into a segment.
func (t *Table) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) > 0 {
		t.sealLocked()
	}
}

func (t *Table) sealLocked() {
	t.segments = append(t.segments, seal(t.schema, t.buf, t.bufXmins, t.bufXmaxs))
	if t.mutable {
		t.indexResealLocked(len(t.segments) - 1)
	}
	t.buf = nil
	t.bufXmins = nil
	t.bufXmaxs = nil
}

// DeltaLen returns the current delta-buffer length (cheap; the HTAP apply
// loop polls it to decide when to seal on batch boundaries).
func (t *Table) DeltaLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.buf)
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

// ScanBatchesWhere is ScanBatches with segment-level zone-map pruning:
// sealed segments for which keep returns false are skipped without
// decoding. keep must be conservative — returning false asserts no row of
// the segment can satisfy the query predicate. The delta buffer has no
// zone maps and is always scanned. A nil keep scans everything.
func (t *Table) ScanBatchesWhere(xid txnkit.XID, snap *txnkit.Snapshot, cols []int, keep func(*Segment) bool, fn func(*Batch) bool) {
	if cols == nil {
		cols = make([]int, t.schema.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	t.mu.RLock()
	segs := t.segments
	buf := t.buf
	bufXmins := t.bufXmins
	bufXmaxs := t.bufXmaxs
	t.mu.RUnlock()

	for _, seg := range segs {
		if keep != nil && !keep(seg) {
			t.segsPruned.Add(1)
			continue
		}
		t.segsScanned.Add(1)
		t.rowsScanned.Add(int64(seg.rows))
		for lo := 0; lo < seg.rows; lo += BatchSize {
			hi := lo + BatchSize
			if hi > seg.rows {
				hi = seg.rows
			}
			batch := &Batch{Cols: make([]*Vector, len(cols))}
			// Visibility selection vector first.
			sel := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				if t.txm.TupleVisible(snap, xid, seg.xmins[i], seg.xmaxAt(i)) {
					sel = append(sel, i)
				}
			}
			if len(sel) == 0 {
				continue
			}
			if len(sel) == hi-lo {
				// Dense fast path: decode the range directly.
				for v, c := range cols {
					vec := &Vector{}
					seg.decode(c, lo, hi, vec)
					batch.Cols[v] = vec
				}
				batch.N = hi - lo
			} else {
				// Sparse path: materialize selected rows.
				for v, c := range cols {
					full := &Vector{}
					seg.decode(c, lo, hi, full)
					vec := &Vector{Kind: full.Kind}
					for _, i := range sel {
						appendDatum(vec, full.DatumAt(i-lo))
					}
					batch.Cols[v] = vec
				}
				batch.N = len(sel)
			}
			if !fn(batch) {
				return
			}
		}
	}
	// Delta buffer: materialize as one batch. It has no zone maps and is
	// never pruned.
	if len(buf) > 0 {
		t.rowsScanned.Add(int64(len(buf)))
		batch := &Batch{Cols: make([]*Vector, len(cols))}
		for v, c := range cols {
			batch.Cols[v] = &Vector{Kind: t.schema.Columns[c].Kind}
		}
		for i, row := range buf {
			var xmax txnkit.XID
			if bufXmaxs != nil {
				xmax = txnkit.XID(atomic.LoadUint64(&bufXmaxs[i]))
			}
			if !t.txm.TupleVisible(snap, xid, bufXmins[i], xmax) {
				continue
			}
			for v, c := range cols {
				appendDatum(batch.Cols[v], row[c])
			}
			batch.N++
		}
		if batch.N > 0 {
			fn(batch)
		}
	}
}

// appendDatum pushes d onto the vector, tracking NULLs.
func appendDatum(v *Vector, d types.Datum) {
	isNull := d.IsNull()
	pushNull := func() {
		if v.Nulls == nil && isNull {
			v.Nulls = make([]bool, v.Len())
		}
		if v.Nulls != nil {
			v.Nulls = append(v.Nulls, isNull)
		}
	}
	pushNull()
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
	default:
		panic(fmt.Sprintf("colstore: cannot append kind %v", v.Kind))
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

// rowAt materializes one segment row (slow path; used only for the rare
// unsettled rows UnsettledCount must inspect).
func (s *Segment) rowAt(schema *types.Schema, i int) types.Row {
	out := make(types.Row, len(s.cols))
	var vec Vector
	for c := range s.cols {
		s.decode(c, i, i+1, &vec)
		out[c] = vec.DatumAt(0)
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
	unsettled := func(x txnkit.XID) bool {
		st := t.txm.Status(x)
		return st == txnkit.StatusActive || st == txnkit.StatusPrepared
	}
	n := 0
	for _, seg := range t.segments {
		for i, x := range seg.xmins {
			if !unsettled(x) {
				continue
			}
			if pred == nil || pred(seg.rowAt(t.schema, i)) {
				n++
			}
		}
	}
	for i, x := range t.bufXmins {
		if !unsettled(x) {
			continue
		}
		if pred == nil || pred(t.buf[i]) {
			n++
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
