package plan

import (
	"math"
	"slices"
	"time"

	"repro/internal/types"
)

// StatsBuilder computes a table's exact statistics (the ANALYZE utility)
// from every visible value, which the caller adds a row or a column at a
// time. Nothing is compared through types.Compare: a column's values are
// kept in a form whose natural order is Compare's order on its kind, sorted
// once, and NDV, min, max and the equi-depth histogram are all read off the
// sorted slice.
type StatsBuilder struct {
	rows int64
	cols []ColumnValues
}

// ColumnValues is one column's values under a StatsBuilder. BOOL, BIGINT,
// DOUBLE and TIMESTAMP values are kept as uint64 order keys, TEXT and
// BYTEA as strings; NULLs are only counted. Two values get one key exactly
// when Compare calls them equal (−0 and +0 meet, and so does every NaN), so
// a run of equal keys is one distinct value.
type ColumnValues struct {
	kind  types.Kind
	nulls int64
	keys  []uint64
	strs  []string
}

// NewStatsBuilder returns an empty builder for rows of schema.
func NewStatsBuilder(schema *types.Schema) *StatsBuilder {
	b := &StatsBuilder{cols: make([]ColumnValues, schema.Len())}
	for c, col := range schema.Columns {
		b.cols[c].kind = col.Kind
	}
	return b
}

// AddRow adds one row, of the schema's width and kinds.
func (b *StatsBuilder) AddRow(r types.Row) {
	b.rows++
	for c := range b.cols {
		b.cols[c].add(r[c])
	}
}

// AddRows counts n rows whose values the caller adds to every column
// through Col.
func (b *StatsBuilder) AddRows(n int) { b.rows += int64(n) }

// Col returns column c's values.
func (b *StatsBuilder) Col(c int) *ColumnValues { return &b.cols[c] }

const signBit = 1 << 63

// add adds one value of the column's kind (a BIGINT into a DOUBLE column as
// its float value), or a NULL.
func (cv *ColumnValues) add(d types.Datum) {
	if d.IsNull() {
		cv.nulls++
		return
	}
	switch cv.kind {
	case types.KindBool:
		cv.AddBool(d.Bool())
	case types.KindInt:
		cv.AddInt(d.Int())
	case types.KindFloat:
		cv.AddFloat(d.Float())
	case types.KindTime:
		cv.AddInt(d.Time().UnixNano())
	case types.KindString:
		cv.AddString(d.Str())
	case types.KindBytes:
		cv.AddString(string(d.Bytes()))
	}
}

// AddNull counts one NULL.
func (cv *ColumnValues) AddNull() { cv.nulls++ }

// AddBool adds a BOOL value.
func (cv *ColumnValues) AddBool(v bool) {
	var k uint64
	if v {
		k = 1
	}
	cv.keys = append(cv.keys, k)
}

// AddInt adds a BIGINT value, or a TIMESTAMP's Unix nanoseconds.
func (cv *ColumnValues) AddInt(v int64) { cv.keys = append(cv.keys, uint64(v)^signBit) }

// AddFloat adds a DOUBLE value.
func (cv *ColumnValues) AddFloat(f float64) {
	switch {
	case f == 0:
		f = 0 // −0
	case f != f:
		f = math.NaN() // one NaN, above +Inf as in Compare
	}
	bits := math.Float64bits(f)
	if bits&signBit != 0 {
		cv.keys = append(cv.keys, ^bits)
		return
	}
	cv.keys = append(cv.keys, bits|signBit)
}

// AddString adds a TEXT value, or a BYTEA value's bytes.
func (cv *ColumnValues) AddString(s string) { cv.strs = append(cv.strs, s) }

// datum returns the value whose key is k.
func (cv *ColumnValues) datum(k uint64) types.Datum {
	switch cv.kind {
	case types.KindBool:
		return types.NewBool(k != 0)
	case types.KindInt:
		return types.NewInt(int64(k ^ signBit))
	case types.KindTime:
		return types.NewTime(time.Unix(0, int64(k^signBit)))
	default: // KindFloat
		if k&signBit != 0 {
			return types.NewFloat(math.Float64frombits(k ^ signBit))
		}
		return types.NewFloat(math.Float64frombits(^k))
	}
}

// text returns the value s of a TEXT or BYTEA column.
func (cv *ColumnValues) text(s string) types.Datum {
	if cv.kind == types.KindBytes {
		return types.NewBytes([]byte(s))
	}
	return types.NewString(s)
}

// Stats returns the statistics of everything added. It sorts the builder's
// values in place.
func (b *StatsBuilder) Stats() *TableStats {
	ts := &TableStats{Rows: b.rows, Cols: make([]ColStats, len(b.cols))}
	for c := range b.cols {
		cv := &b.cols[c]
		cs := &ts.Cols[c]
		if b.rows > 0 {
			cs.NullFrac = float64(cv.nulls) / float64(b.rows)
		}
		slices.Sort(cv.strs)
		sortKeys(cv.keys)
		if len(cv.strs) > 0 {
			sortedStats(cs, cv.strs, cv.text)
		} else {
			sortedStats(cs, cv.keys, cv.datum)
		}
	}
	return ts
}

// sortKeys sorts keys ascending: a radix sort, least significant byte
// first, that skips each byte every key shares (the high bytes of a column
// of small integers) — a few linear passes instead of n log n comparisons.
func sortKeys(keys []uint64) {
	if len(keys) < 2 {
		return
	}
	var counts [8][256]int
	for _, k := range keys {
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := keys, make([]uint64, len(keys))
	for b := range counts {
		at := &counts[b]
		if at[byte(src[0]>>(8*b))] == len(src) {
			continue
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, k := range src {
			d := byte(k >> (8 * b))
			dst[at[d]] = k
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// sortedStats fills in cs's NDV, min, max and equi-depth histogram from
// vals, sorted; datum turns a value back into the column's datum.
func sortedStats[T comparable](cs *ColStats, vals []T, datum func(T) types.Datum) {
	if len(vals) == 0 {
		return
	}
	cs.NDV = 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			cs.NDV++
		}
	}
	cs.Min, cs.Max = datum(vals[0]), datum(vals[len(vals)-1])
	nb := min(HistogramBuckets, len(vals))
	per := len(vals) / nb
	for i := per - 1; i < len(vals); i += per {
		cs.Hist = append(cs.Hist, Bucket{Hi: datum(vals[i]), Count: int64(per)})
	}
	// Final partial bucket.
	if rem := len(vals) % per; rem != 0 {
		cs.Hist = append(cs.Hist, Bucket{Hi: datum(vals[len(vals)-1]), Count: int64(rem)})
	}
}
