package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
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
