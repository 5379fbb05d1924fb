// Package types defines the value system shared by every engine in the
// repository: typed datums, rows, schemas and the comparison/hashing
// primitives the storage, execution and transaction layers build on.
//
// The FI-MPPDB reproduction (internal/cluster, internal/exec), the
// multi-model engines (internal/graph, internal/spatial, whose data and
// time series are cluster tables) and the GMDB tree model (internal/gmdb)
// all speak Datum so that data can flow between engines without
// conversion, which is the core promise of the paper's unified storage
// engine (§II-B).
package types

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the primitive datum types supported by the SQL subset.
type Kind uint8

// Supported datum kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	case KindBytes:
		return "BYTEA"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// KindFromName parses a SQL type name into a Kind. It accepts the common
// aliases used by the parser (INT/INTEGER/BIGINT, FLOAT/DOUBLE/REAL, ...).
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "INT4", "INT8":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "FLOAT8", "NUMERIC", "DECIMAL":
		return KindFloat, nil
	case "TEXT", "STRING", "VARCHAR", "CHAR":
		return KindString, nil
	case "BYTEA", "BLOB", "BYTES":
		return KindBytes, nil
	case "TIMESTAMP", "TIME", "DATE", "DATETIME":
		return KindTime, nil
	default:
		return KindNull, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Datum is a single SQL value, 32 bytes. The zero Datum is NULL.
type Datum struct {
	kind Kind
	// i holds bool (0/1), int64, time as UnixNano, or a DOUBLE's
	// math.Float64bits, depending on kind.
	i int64
	// s holds TEXT, and BYTEA's bytes (immutable like any string).
	s string
}

// Null is the NULL datum.
var Null = Datum{}

// NewBool returns a BOOL datum.
func NewBool(v bool) Datum {
	var i int64
	if v {
		i = 1
	}
	return Datum{kind: KindBool, i: i}
}

// NewInt returns a BIGINT datum.
func NewInt(v int64) Datum { return Datum{kind: KindInt, i: v} }

// NewFloat returns a DOUBLE datum.
func NewFloat(v float64) Datum { return Datum{kind: KindFloat, i: int64(math.Float64bits(v))} }

// f returns a DOUBLE datum's value.
func (d Datum) f() float64 { return math.Float64frombits(uint64(d.i)) }

// NewString returns a TEXT datum.
func NewString(v string) Datum { return Datum{kind: KindString, s: v} }

// NewBytes returns a BYTEA datum holding a copy of v.
func NewBytes(v []byte) Datum { return Datum{kind: KindBytes, s: string(v)} }

// NewTime returns a TIMESTAMP datum with nanosecond precision.
func NewTime(v time.Time) Datum { return Datum{kind: KindTime, i: v.UnixNano()} }

// Kind reports the datum's kind.
func (d Datum) Kind() Kind { return d.kind }

// IsNull reports whether the datum is NULL.
func (d Datum) IsNull() bool { return d.kind == KindNull }

// Bool returns the boolean value; it panics if the kind is not BOOL.
func (d Datum) Bool() bool {
	if d.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s datum", d.kind))
	}
	return d.i != 0
}

// Int returns the integer value; it panics if the kind is not BIGINT.
func (d Datum) Int() int64 {
	if d.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s datum", d.kind))
	}
	return d.i
}

// IntValue returns a BIGINT datum's value; ok is false for any other kind.
// Unlike Int it cannot panic, so it inlines into a caller's loop.
func (d Datum) IntValue() (v int64, ok bool) { return d.i, d.kind == KindInt }

// FloatValue returns a DOUBLE datum's value; ok is false for any other kind.
func (d Datum) FloatValue() (v float64, ok bool) { return d.f(), d.kind == KindFloat }

// Float returns the float value, converting from BIGINT if needed.
func (d Datum) Float() float64 {
	switch d.kind {
	case KindFloat:
		return d.f()
	case KindInt:
		return float64(d.i)
	default:
		panic(fmt.Sprintf("types: Float() on %s datum", d.kind))
	}
}

// Str returns the string value; it panics if the kind is not TEXT.
func (d Datum) Str() string {
	if d.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s datum", d.kind))
	}
	return d.s
}

// Bytes returns a copy of the byte value; it panics if the kind is not BYTEA.
func (d Datum) Bytes() []byte {
	if d.kind != KindBytes {
		panic(fmt.Sprintf("types: Bytes() on %s datum", d.kind))
	}
	return []byte(d.s)
}

// Time returns the timestamp value; it panics if the kind is not TIMESTAMP.
func (d Datum) Time() time.Time {
	if d.kind != KindTime {
		panic(fmt.Sprintf("types: Time() on %s datum", d.kind))
	}
	return time.Unix(0, d.i).UTC()
}

// String renders the datum for display and for canonical plan text.
func (d Datum) String() string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(d.f(), 'g', -1, 64)
	case KindString:
		return d.s
	case KindBytes:
		return fmt.Sprintf("\\x%x", d.s)
	case KindTime:
		return d.Time().Format(time.RFC3339Nano)
	default:
		return fmt.Sprintf("<bad datum kind %d>", d.kind)
	}
}

// numericKinds reports whether both kinds are numeric (INT or FLOAT), which
// enables implicit numeric comparison across the two.
func numericKinds(a, b Kind) bool {
	num := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return num(a) && num(b)
}

// Comparable reports whether Compare orders non-NULL datums of kinds a and
// b: the same kind, or the two numeric ones.
func Comparable(a, b Kind) bool { return a == b || numericKinds(a, b) }

// Compare orders two datums. NULL sorts before every non-NULL value.
// Cross-kind numeric comparison (INT vs FLOAT) is supported and exact — the
// integer is never rounded to a float — so Compare == 0 is an equivalence
// (the one AppendKey encodes); any other kind mismatch returns an error.
func Compare(a, b Datum) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if !Comparable(a.kind, b.kind) {
		return 0, fmt.Errorf("types: cannot compare %s with %s", a.kind, b.kind)
	}
	if a.kind != b.kind {
		if a.kind == KindInt {
			return cmpIntFloat(a.i, b.f()), nil
		}
		return -cmpIntFloat(b.i, a.f()), nil
	}
	switch a.kind {
	case KindBool:
		return cmpInt(a.i, b.i), nil
	case KindInt:
		return cmpInt(a.i, b.i), nil
	case KindFloat:
		return cmpFloat(a.f(), b.f()), nil
	case KindString, KindBytes:
		return strings.Compare(a.s, b.s), nil
	case KindTime:
		return cmpInt(a.i, b.i), nil
	default:
		return 0, fmt.Errorf("types: cannot compare kind %s", a.kind)
	}
}

// MustCompare is Compare for callers that have already type-checked.
func MustCompare(a, b Datum) int {
	c, err := Compare(a, b)
	if err != nil {
		panic(err)
	}
	return c
}

// Equal reports datum equality under Compare semantics (NULL == NULL here;
// SQL ternary logic is handled by expression evaluation, not by this
// low-level helper).
func Equal(a, b Datum) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat orders floats; NaN equals itself and sorts above every number,
// so the order is total.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b, a != a && b != b:
		return 0
	case a != a:
		return 1
	default: // b is NaN
		return -1
	}
}

// cmpIntFloat orders i against f without rounding i: above 2^53 float64(i)
// is not injective, and two different BIGINTs must not both equal one DOUBLE.
func cmpIntFloat(i int64, f float64) int {
	whole, ok := floatAsInt(math.Trunc(f))
	if !ok {
		// NaN, ±Inf or beyond int64: f's sign (NaN sorts high) decides.
		if f < 0 {
			return 1
		}
		return -1
	}
	if c := cmpInt(i, whole); c != 0 {
		return c
	}
	return -cmpFloat(f, math.Trunc(f)) // equal whole parts: the fraction decides
}

// floatAsInt returns the int64 with exactly f's value, if there is one.
func floatAsInt(f float64) (int64, bool) {
	if f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}

// Hash returns a 64-bit hash of the datum, used for hash distribution
// (shard routing) and hash joins. Numeric kinds hash by their float64 value
// so that INT 3 and FLOAT 3.0 land in the same bucket, matching Compare.
func Hash(d Datum) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	switch d.kind {
	case KindNull:
		buf[0] = 0
		h.Write(buf[:1])
	case KindBool:
		buf[0] = 1
		buf[1] = byte(d.i)
		h.Write(buf[:2])
	case KindInt, KindFloat:
		buf[0] = 2
		bits := math.Float64bits(d.Float())
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:9])
	case KindString:
		buf[0] = 3
		h.Write(buf[:1])
		h.Write([]byte(d.s))
	case KindBytes:
		buf[0] = 4
		h.Write(buf[:1])
		h.Write([]byte(d.s))
	case KindTime:
		buf[0] = 5
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(uint64(d.i) >> (8 * i))
		}
		h.Write(buf[:9])
	}
	return h.Sum64()
}

// Key tags. Fixed-width payloads follow the tag directly; variable-width
// ones are length-prefixed, so a concatenation of keys decodes one way only.
const (
	keyNull byte = iota
	keyBool
	keyInt // every integral value in int64 range, INT or FLOAT
	keyFloat
	keyString
	keyBytes
	keyTime
)

// AppendKey appends d's equality key to dst and returns the extended slice:
// two datums get equal bytes iff Compare calls them equal (INT 3 and FLOAT
// 3.0 do, any two different BIGINTs do not, NULL equals only NULL; kinds
// Compare refuses to order are simply unequal), and a sequence of keys is
// equal to another iff the sequences are equal part by part. It is the one
// encoding behind hash aggregation, DISTINCT, hash joins and shuffle
// partitioning, the columnar delete index, row multiset diffs and digests,
// and ANALYZE's distinct counts. Hash / distribution placement is separate
// (see Hash) and only has to agree with it on equal values.
func AppendKey(dst []byte, d Datum) []byte {
	switch d.kind {
	case KindBool:
		return append(dst, keyBool, byte(d.i))
	case KindInt:
		return binary.BigEndian.AppendUint64(append(dst, keyInt), uint64(d.i))
	case KindFloat:
		f := d.f()
		if i, ok := floatAsInt(f); ok {
			return binary.BigEndian.AppendUint64(append(dst, keyInt), uint64(i))
		}
		if f != f {
			f = math.NaN() // one NaN, whatever its payload bits
		}
		return binary.BigEndian.AppendUint64(append(dst, keyFloat), math.Float64bits(f))
	case KindString:
		return append(binary.AppendUvarint(append(dst, keyString), uint64(len(d.s))), d.s...)
	case KindBytes:
		return append(binary.AppendUvarint(append(dst, keyBytes), uint64(len(d.s))), d.s...)
	case KindTime:
		return binary.BigEndian.AppendUint64(append(dst, keyTime), uint64(d.i))
	default:
		return append(dst, keyNull)
	}
}

// Family groups the kinds Compare orders against each other: the two
// numeric kinds share one, every other kind is its own. NULL has a family of
// its own, which orders against all of them.
type Family uint8

// Kind families.
const (
	FamilyNull Family = iota
	FamilyBool
	FamilyNumeric
	FamilyString
	FamilyBytes
	FamilyTime
)

// OrderPrefix returns a 64-bit image of d that never reverses Compare:
// Compare(a, b) < 0 implies OrderPrefix(a) <= OrderPrefix(b), and
// Compare(a, b) == 0 implies equal prefixes. So two datums of one family
// (or one NULL) whose prefixes differ are ordered by them, and only a tie
// needs Compare. Across two non-NULL families the prefixes mean nothing —
// Compare refuses such a pair, and a caller must let it.
//
// NULL is 0. BIGINT and DOUBLE share one float64 order image: −0 and +0
// meet, every NaN sits above +Inf, and INT 3 ties DOUBLE 3.0 (BIGINTs above
// 2^53 may share a prefix; Compare still tells them apart). TEXT and BYTEA
// are their first 8 bytes, big-endian and zero-padded; BOOL and TIMESTAMP
// their value with the sign bit flipped.
func OrderPrefix(d Datum) (uint64, Family) {
	const sign = 1 << 63
	switch d.kind {
	case KindBool:
		return uint64(d.i) ^ sign, FamilyBool
	case KindInt, KindFloat:
		f := d.Float()
		switch {
		case f == 0:
			f = 0 // −0
		case f != f:
			f = math.NaN() // one NaN, the positive one, whatever its payload
		}
		bits := math.Float64bits(f)
		if bits&sign != 0 {
			return ^bits, FamilyNumeric
		}
		return bits | sign, FamilyNumeric
	case KindString, KindBytes:
		var b [8]byte
		copy(b[:], d.s)
		fam := FamilyString
		if d.kind == KindBytes {
			fam = FamilyBytes
		}
		return binary.BigEndian.Uint64(b[:]), fam
	case KindTime:
		return uint64(d.i) ^ sign, FamilyTime
	default:
		return 0, FamilyNull
	}
}

// Row is a tuple of datums positionally matching a Schema.
type Row []Datum

// AppendKey appends the keys of r's datums in order (see AppendKey): equal
// bytes iff equal arity and every position equal.
func (r Row) AppendKey(dst []byte) []byte {
	for _, d := range r {
		dst = AppendKey(dst, d)
	}
	return dst
}

// Clone returns a deep-enough copy of the row (datum payloads are immutable
// by convention, so a shallow copy of the slice suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a parenthesized tuple.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from (name, kind) pairs.
func NewSchema(cols ...Column) *Schema { return &Schema{Columns: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 if absent.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Project returns a new schema containing the columns at the given indexes.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Columns[j]
	}
	return &Schema{Columns: cols}
}

// Concat returns the schema of a join output: s's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// String renders the schema as "(a BIGINT, b TEXT)".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CheckRow validates that a row is assignable to the schema: same arity and
// each datum either NULL or of (a numeric-compatible version of) the column
// kind. It returns the possibly-coerced row.
func (s *Schema) CheckRow(r Row) (Row, error) {
	if len(r) != len(s.Columns) {
		return nil, fmt.Errorf("types: row arity %d does not match schema arity %d", len(r), len(s.Columns))
	}
	out := r
	for i, d := range r {
		if d.IsNull() || d.kind == s.Columns[i].Kind {
			continue
		}
		coerced, err := Coerce(d, s.Columns[i].Kind)
		if err != nil {
			return nil, fmt.Errorf("types: column %q: %v", s.Columns[i].Name, err)
		}
		if &out[0] == &r[0] {
			out = r.Clone()
		}
		out[i] = coerced
	}
	return out, nil
}

// Coerce converts a datum to the target kind where a lossless or standard
// SQL implicit conversion exists (INT<->FLOAT, anything->TEXT via String).
func Coerce(d Datum, to Kind) (Datum, error) {
	if d.kind == to || d.IsNull() {
		return d, nil
	}
	switch to {
	case KindFloat:
		if d.kind == KindInt {
			return NewFloat(float64(d.i)), nil
		}
	case KindInt:
		if d.kind == KindFloat {
			f := d.f()
			if f == math.Trunc(f) {
				return NewInt(int64(f)), nil
			}
			return Null, fmt.Errorf("cannot coerce non-integral %v to BIGINT", f)
		}
		if d.kind == KindBool {
			return NewInt(d.i), nil
		}
	case KindString:
		return NewString(d.String()), nil
	case KindTime:
		if d.kind == KindInt {
			return Datum{kind: KindTime, i: d.i}, nil
		}
		if d.kind == KindString {
			t, err := time.Parse(time.RFC3339, d.s)
			if err != nil {
				return Null, fmt.Errorf("cannot parse %q as TIMESTAMP", d.s)
			}
			return NewTime(t), nil
		}
	}
	return Null, fmt.Errorf("cannot coerce %s to %s", d.kind, to)
}
