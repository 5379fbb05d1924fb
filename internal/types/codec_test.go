package types

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestDatumSizeMatchesAppendDatum: DatumSize is the byte count AppendDatum
// writes, for every kind and for empty and long payloads.
func TestDatumSizeMatchesAppendDatum(t *testing.T) {
	for _, d := range []Datum{
		Null,
		NewBool(false), NewBool(true),
		NewInt(0), NewInt(math.MinInt64), NewInt(math.MaxInt64),
		NewFloat(0), NewFloat(math.NaN()), NewFloat(math.Inf(-1)),
		NewTime(time.Unix(0, 0)), NewTime(time.Unix(1<<33, 7)),
		NewString(""), NewString("x"), NewString(strings.Repeat("é", 300)),
		NewBytes(nil), NewBytes([]byte{0}), NewBytes(make([]byte, 70000)),
	} {
		if got, want := DatumSize(d), len(AppendDatum(nil, d)); got != want {
			t.Errorf("DatumSize(%v of kind %v) = %d, AppendDatum writes %d", d, d.Kind(), got, want)
		}
	}
}
