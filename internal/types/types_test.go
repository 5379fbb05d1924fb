package types

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestKindFromName(t *testing.T) {
	cases := map[string]Kind{
		"int": KindInt, "BIGINT": KindInt, "Integer": KindInt,
		"text": KindString, "VARCHAR": KindString,
		"double": KindFloat, "REAL": KindFloat,
		"bool": KindBool, "timestamp": KindTime, "bytea": KindBytes,
	}
	for name, want := range cases {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("frobnicate"); err == nil {
		t.Error("KindFromName(frobnicate) should fail")
	}
}

func TestDatumAccessors(t *testing.T) {
	now := time.Now().Truncate(time.Microsecond)
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("bool accessor broken")
	}
	if NewInt(-7).Int() != -7 {
		t.Error("int accessor broken")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("float accessor broken")
	}
	if NewInt(3).Float() != 3.0 {
		t.Error("int->float widening broken")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("string accessor broken")
	}
	if !NewTime(now).Time().Equal(now) {
		t.Error("time accessor broken")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull broken")
	}
}

func TestDatumAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Bool on int", func() { NewInt(1).Bool() })
	mustPanic("Float on string", func() { NewString("x").Float() })
	mustPanic("Time on int", func() { NewInt(1).Time() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewString("a"), NewString("b"), -1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{NewTime(time.Unix(1, 0)), NewTime(time.Unix(2, 0)), -1},
		// INT against FLOAT is exact: no BIGINT is rounded to a double.
		{NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewFloat(1 << 53), NewInt(1<<53 + 1), -1},
		{NewInt(1 << 53), NewFloat(1 << 53), 0},
		{NewInt(math.MaxInt64), NewFloat(1 << 63), -1},
		{NewInt(math.MinInt64), NewFloat(-(1 << 63)), 0},
		{NewInt(-2), NewFloat(-2.5), 1},
		{NewInt(-3), NewFloat(-2.5), -1},
		{NewInt(7), NewFloat(math.Inf(-1)), 1},
		// NaN equals itself and sorts above every number.
		{NewFloat(math.NaN()), NewFloat(math.NaN()), 0},
		{NewFloat(math.NaN()), NewFloat(math.Inf(1)), 1},
		{NewInt(7), NewFloat(math.NaN()), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(NewInt(1), NewString("x")); err == nil {
		t.Error("Compare(int, string) should fail")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		return MustCompare(x, y) == -MustCompare(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualImpliesSameHash(t *testing.T) {
	f := func(v int64) bool {
		return Hash(NewInt(v)) == Hash(NewFloat(float64(v)))
	}
	// INT and FLOAT with the same numeric value must hash identically so
	// that shard routing agrees with Compare. Restrict to values exactly
	// representable in float64.
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(v int32) bool { return f(int64(v)) }, cfg); err != nil {
		t.Error(err)
	}
	if Hash(NewString("abc")) == Hash(NewString("abd")) {
		t.Error("suspicious string hash collision")
	}
}

func TestHashStability(t *testing.T) {
	d := NewString("shard-key")
	if Hash(d) != Hash(NewString("shard-key")) {
		t.Error("hash must be deterministic")
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(Column{"a", KindInt}, Column{"b", KindString})
	if s.Len() != 2 {
		t.Fatal("Len")
	}
	if s.ColumnIndex("B") != 1 || s.ColumnIndex("a") != 0 || s.ColumnIndex("zz") != -1 {
		t.Error("ColumnIndex broken")
	}
	p := s.Project([]int{1})
	if p.Len() != 1 || p.Columns[0].Name != "b" {
		t.Error("Project broken")
	}
	j := s.Concat(p)
	if j.Len() != 3 || j.Columns[2].Name != "b" {
		t.Error("Concat broken")
	}
	if got := s.String(); got != "(a BIGINT, b TEXT)" {
		t.Errorf("Schema.String() = %q", got)
	}
}

func TestCheckRowCoercion(t *testing.T) {
	s := NewSchema(Column{"a", KindFloat}, Column{"b", KindString})
	r, err := s.CheckRow(Row{NewInt(3), NewString("x")})
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Kind() != KindFloat || r[0].Float() != 3 {
		t.Errorf("int not coerced to float: %v", r[0])
	}
	if _, err := s.CheckRow(Row{NewInt(3)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := s.CheckRow(Row{NewString("x"), NewString("y")}); err == nil {
		t.Error("string->float should fail")
	}
	// NULL is assignable anywhere.
	if _, err := s.CheckRow(Row{Null, Null}); err != nil {
		t.Errorf("NULL row should pass: %v", err)
	}
}

func TestCoerce(t *testing.T) {
	if d, err := Coerce(NewFloat(4), KindInt); err != nil || d.Int() != 4 {
		t.Errorf("Coerce(4.0, INT) = %v, %v", d, err)
	}
	if _, err := Coerce(NewFloat(4.5), KindInt); err == nil {
		t.Error("Coerce(4.5, INT) should fail")
	}
	if d, err := Coerce(NewInt(7), KindString); err != nil || d.Str() != "7" {
		t.Errorf("Coerce(7, TEXT) = %v, %v", d, err)
	}
	if d, err := Coerce(NewString("2020-01-02T03:04:05Z"), KindTime); err != nil || d.Time().Year() != 2020 {
		t.Errorf("Coerce(text, TIMESTAMP) = %v, %v", d, err)
	}
	if _, err := Coerce(NewBool(true), KindTime); err == nil {
		t.Error("bool->time should fail")
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{NewInt(1), NewInt(2)}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone must not alias")
	}
	if got := r.String(); got != "(1, 2)" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestDatumString(t *testing.T) {
	cases := map[string]Datum{
		"NULL": Null, "true": NewBool(true), "-5": NewInt(-5),
		"2.5": NewFloat(2.5), "hi": NewString("hi"),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestBytesDatum(t *testing.T) {
	b := NewBytes([]byte{1, 2, 3})
	if string(b.Bytes()) != "\x01\x02\x03" || b.Kind() != KindBytes {
		t.Error("bytes accessors broken")
	}
	if got := b.String(); got != "\\x010203" {
		t.Errorf("bytes String() = %q", got)
	}
	if c, err := Compare(NewBytes([]byte("a")), NewBytes([]byte("b"))); err != nil || c != -1 {
		t.Errorf("bytes compare = %d, %v", c, err)
	}
	if Hash(b) == Hash(NewBytes([]byte{3, 2, 1})) {
		t.Error("suspicious bytes hash collision")
	}
	if Hash(Null) == Hash(NewBool(false)) {
		t.Error("null and false must hash differently")
	}
	if Hash(NewTime(time.Unix(1, 0))) == Hash(NewTime(time.Unix(2, 0))) {
		t.Error("time hash collision")
	}
}

// TestDatumIs32Bytes pins the layout every row, heap and hash table is made
// of: kind, one 8-byte word (bool, int, time, or a DOUBLE's bits), one string
// (TEXT, or BYTEA's bytes).
func TestDatumIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got != 32 {
		t.Errorf("Datum is %d bytes, want 32", got)
	}
}

// specialDatums are the values a layout change is most likely to lose: float
// bit patterns that are not plain numbers, the integer extremes, and byte
// strings that are empty or not UTF-8.
var specialDatums = []Datum{
	NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1)), NewFloat(0), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
	NewFloat(math.MaxFloat64), NewFloat(math.SmallestNonzeroFloat64),
	NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewBytes(nil), NewBytes([]byte{}), NewBytes([]byte{0xff, 0xfe, 0x00, 0x80}), NewString(""), NewString("\xff\xfe"),
}

func TestSpecialValuesSurviveTheLayout(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -1.5} {
		d := NewFloat(f)
		if got := d.Float(); math.Float64bits(got) != math.Float64bits(f) || d.Kind() != KindFloat {
			t.Errorf("NewFloat(%v).Float() = %v (bits %x, want %x)", f, got, math.Float64bits(got), math.Float64bits(f))
		}
	}
	if got := NewInt(math.MaxInt64).Float(); got != float64(math.MaxInt64) {
		t.Errorf("MaxInt64 as float = %v", got)
	}
	// -0.0 equals 0.0 and NaN equals itself, for Compare and for the key alike.
	zero, negZero, nan := NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN())
	if !Equal(zero, negZero) || !bytes.Equal(AppendKey(nil, zero), AppendKey(nil, negZero)) {
		t.Error("-0.0 and 0.0 differ")
	}
	if !Equal(nan, NewFloat(math.Float64frombits(0x7ff8000000000123))) || MustCompare(nan, NewFloat(math.Inf(1))) != 1 {
		t.Error("NaN must equal NaN and sort above +Inf")
	}
	if MustCompare(NewInt(math.MaxInt64), NewFloat(math.Inf(1))) != -1 || MustCompare(NewInt(math.MinInt64), NewFloat(math.Inf(-1))) != 1 {
		t.Error("the integer extremes must sort inside the infinities")
	}

	// BYTEA: a copy on the way in and on the way out.
	src := []byte{0xff, 0x00, 'a'}
	b := NewBytes(src)
	src[0] = 'x'
	out := b.Bytes()
	out[1] = 'y'
	if got := b.Bytes(); !bytes.Equal(got, []byte{0xff, 0x00, 'a'}) {
		t.Errorf("a BYTEA datum changed under its source or its reader: %x", got)
	}
	if got := NewBytes(nil).Bytes(); len(got) != 0 || NewBytes(nil).IsNull() {
		t.Errorf("empty BYTEA = %x, null %v", got, NewBytes(nil).IsNull())
	}
	if Equal(NewBytes([]byte("ab")), NewString("ab")) || bytes.Equal(AppendKey(nil, NewBytes([]byte("ab"))), AppendKey(nil, NewString("ab"))) {
		t.Error("BYTEA and TEXT of the same bytes must stay different values")
	}

	// Equal keys iff Compare says equal, across the whole set.
	for _, a := range specialDatums {
		for _, b := range specialDatums {
			same := bytes.Equal(AppendKey(nil, a), AppendKey(nil, b))
			if want := Equal(a, b); same != want {
				t.Errorf("%v vs %v: equal keys = %v, Compare-equal = %v", a, b, same, want)
			}
		}
		if Hash(a) != Hash(a) || !Equal(a, a) {
			t.Errorf("%v is not equal to itself", a)
		}
	}
}

func TestEqualHelper(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("numeric cross-kind equality")
	}
	if Equal(NewInt(3), NewString("3")) {
		t.Error("int/string must not be Equal")
	}
	if !Equal(Null, Null) {
		t.Error("helper-level NULL equality")
	}
}
