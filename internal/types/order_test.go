package types

import (
	"math"
	"testing"
	"time"
)

// checkOrderPrefix is OrderPrefix's contract for one pair: Compare orders the
// pair exactly when the families agree or one side is NULL, and then the
// prefixes never contradict it.
func checkOrderPrefix(t *testing.T, a, b Datum) {
	t.Helper()
	pa, fa := OrderPrefix(a)
	pb, fb := OrderPrefix(b)
	c, err := Compare(a, b)
	if ordered := fa == fb || fa == FamilyNull || fb == FamilyNull; ordered != (err == nil) {
		t.Fatalf("%v (family %d) vs %v (family %d): Compare err = %v", a, fa, b, fb, err)
	}
	switch {
	case err != nil:
	case c < 0 && pa > pb, c > 0 && pa < pb, c == 0 && pa != pb:
		t.Fatalf("%v vs %v: Compare = %d, prefixes %#x vs %#x", a, b, c, pa, pb)
	}
}

// orderPrefixSeeds are the pairs a 64-bit image is most likely to get wrong.
var orderPrefixSeeds = [][2]Datum{
	// BIGINT against DOUBLE where float64 stops being exact, and at the ends.
	{NewInt(1 << 53), NewFloat(1 << 53)},
	{NewInt(1<<53 + 1), NewFloat(1 << 53)},
	{NewInt(1<<53 + 1), NewInt(1<<53 + 2)},
	{NewInt(-(1<<53 + 1)), NewFloat(-(1 << 53))},
	{NewInt(math.MaxInt64), NewFloat(1 << 63)},
	{NewInt(math.MaxInt64 - 1), NewInt(math.MaxInt64)},
	{NewInt(math.MinInt64), NewFloat(-(1 << 63))},
	{NewInt(math.MinInt64), NewFloat(math.Nextafter(-(1 << 63), 0))},
	{NewInt(3), NewFloat(3)},
	{NewInt(3), NewFloat(3.5)},
	// Zeros, NaNs and infinities.
	{NewFloat(0), NewFloat(math.Copysign(0, -1))},
	{NewInt(0), NewFloat(math.Copysign(0, -1))},
	{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0xfff8000000000001))},
	{NewFloat(math.NaN()), NewFloat(math.Inf(1))},
	{NewFloat(math.NaN()), NewInt(math.MaxInt64)},
	{NewFloat(math.Inf(-1)), NewInt(math.MinInt64)},
	// Strings that share their first 8 bytes, or carry NUL bytes.
	{NewString("abcdefgh1"), NewString("abcdefgh2")},
	{NewString("abcdefgh"), NewString("abcdefgh\x00")},
	{NewString("a"), NewString("a\x00")},
	{NewString(""), NewString("\x00")},
	{NewBytes([]byte{0xff, 0, 0, 0, 0, 0, 0, 0, 1}), NewBytes([]byte{0xff})},
	{NewBool(false), NewBool(true)},
	{NewTime(time.Unix(-1, 0)), NewTime(time.Unix(1, 0))},
	// Kinds Compare refuses to order.
	{NewString("ab"), NewBytes([]byte("ab"))},
	{NewInt(1), NewBool(true)},
	{NewInt(5), NewTime(time.Unix(0, 5))},
}

func TestOrderPrefix(t *testing.T) {
	all := append([]Datum{Null}, specialDatums...)
	for _, seed := range orderPrefixSeeds {
		all = append(all, seed[0], seed[1])
	}
	for _, a := range all {
		for _, b := range all {
			checkOrderPrefix(t, a, b)
		}
	}
	if p, fam := OrderPrefix(Null); p != 0 || fam != FamilyNull {
		t.Errorf("OrderPrefix(NULL) = %#x, %d", p, fam)
	}
	if p3, _ := OrderPrefix(NewInt(3)); p3 == 0 {
		t.Error("INT 3 shares NULL's prefix")
	}
}

// FuzzOrderPrefix: for two fuzzed datums, Compare < 0 implies p(a) <= p(b)
// and Compare == 0 implies p(a) == p(b); Compare fails exactly across two
// non-NULL families.
func FuzzOrderPrefix(f *testing.F) {
	for _, seed := range orderPrefixSeeds {
		f.Add(fuzzRowBytes(Row{seed[0]}), fuzzRowBytes(Row{seed[1]}))
	}
	for _, d := range specialDatums {
		f.Add(fuzzRowBytes(Row{Null}), fuzzRowBytes(Row{d}))
	}
	for _, d := range []Datum{NewBool(false), NewInt(0), NewString(""), NewBytes(nil), NewTime(time.Unix(0, 0))} {
		f.Add(fuzzRowBytes(Row{Null}), fuzzRowBytes(Row{d}))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		r1, r2 := fuzzRowFrom(a), fuzzRowFrom(b)
		for _, x := range r1 {
			for _, y := range r2 {
				checkOrderPrefix(t, x, y)
			}
		}
	})
}
