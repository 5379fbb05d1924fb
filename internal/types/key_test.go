package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// rowsEqual is the contract AppendKey encodes: same arity, and Compare calls
// every position equal (NULL = NULL; kinds Compare cannot order are unequal).
func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if c, err := Compare(a[i], b[i]); err != nil || c != 0 {
			return false
		}
	}
	return true
}

// fuzzRowBytes / fuzzRowFrom are the fuzz target's row format: per datum one
// kind byte, then bool 1 byte, int / float / time 8 bytes, string / bytes a
// length byte and that many bytes. Input that runs out mid-datum ends the row.
func fuzzRowBytes(r Row) []byte {
	var out []byte
	for _, d := range r {
		out = append(out, byte(d.kind))
		switch d.kind {
		case KindBool:
			out = append(out, byte(d.i))
		case KindInt, KindTime, KindFloat: // a DOUBLE's bits live in i
			out = binary.BigEndian.AppendUint64(out, uint64(d.i))
		case KindString, KindBytes:
			out = append(append(out, byte(len(d.s))), d.s...)
		}
	}
	return out
}

func fuzzRowFrom(in []byte) Row {
	var r Row
	take := func(n int) ([]byte, bool) {
		if len(in) < n {
			return nil, false
		}
		b := in[:n]
		in = in[n:]
		return b, true
	}
	for len(in) > 0 {
		kind := Kind(in[0] % 7)
		in = in[1:]
		width := 1 // bool value, or string / bytes length
		switch kind {
		case KindNull:
			width = 0
		case KindInt, KindFloat, KindTime:
			width = 8
		}
		b, ok := take(width)
		if !ok {
			break
		}
		var d Datum
		switch kind {
		case KindBool:
			d = NewBool(b[0]&1 == 1)
		case KindInt:
			d = NewInt(int64(binary.BigEndian.Uint64(b)))
		case KindFloat:
			d = NewFloat(math.Float64frombits(binary.BigEndian.Uint64(b)))
		case KindTime:
			d = Datum{kind: KindTime, i: int64(binary.BigEndian.Uint64(b))}
		case KindString, KindBytes:
			payload, ok := take(int(b[0]))
			if !ok {
				return r
			}
			d = NewString(string(payload))
			if kind == KindBytes {
				d = NewBytes(payload)
			}
		}
		r = append(r, d)
	}
	return r
}

// keyCollisionSeeds are pairs the encoders AppendKey replaced got wrong, plus
// the equalities it has to keep.
var keyCollisionSeeds = [][2]Row{
	// Row.String() as a group key: the ", " it joins with, and NULL's text.
	{{NewString("a, b"), NewString("c")}, {NewString("a"), NewString("b, c")}},
	{{Null, NewString("x")}, {NewString("NULL"), NewString("x")}},
	// exec.rowKey: "<kind>:<text>|" per part.
	{{NewString("x|4:y"), NewString("z")}, {NewString("x"), NewString("y|4:z")}},
	// %g of float64(int64): BIGINTs above 2^53.
	{{NewInt(1 << 53)}, {NewInt(1<<53 + 1)}},
	{{NewInt(1<<53 + 1)}, {NewFloat(1 << 53)}},
	{{NewInt(math.MaxInt64)}, {NewFloat(1 << 63)}},
	// Equal by Compare, so equal keys.
	{{NewInt(3)}, {NewFloat(3.0)}},
	{{NewFloat(0)}, {NewFloat(math.Copysign(0, -1))}},
	{{NewFloat(math.NaN())}, {NewFloat(math.Float64frombits(0x7ff8000000000001))}},
	// Same bytes, different kinds or arity.
	{{NewString("ab")}, {NewBytes([]byte("ab"))}},
	{{NewInt(5)}, {NewTime(time.Unix(0, 5))}},
	{{NewBool(true)}, {NewInt(1)}},
	{{NewString("")}, {NewString(""), NewString("")}},
	{{Null}, {}},
}

func TestAppendKeyMatchesCompare(t *testing.T) {
	for _, seed := range keyCollisionSeeds {
		for _, pair := range [][2]Row{seed, {seed[0], seed[0]}, {seed[1], seed[1]}} {
			same := bytes.Equal(pair[0].AppendKey(nil), pair[1].AppendKey(nil))
			if want := rowsEqual(pair[0], pair[1]); same != want {
				t.Errorf("%v vs %v: equal keys = %v, equal rows = %v", pair[0], pair[1], same, want)
			}
		}
	}
	// AppendKey appends: the caller's prefix survives.
	if got := AppendKey([]byte("p"), NewBool(true)); !bytes.Equal(got, []byte{'p', keyBool, 1}) {
		t.Errorf("AppendKey onto a prefix = %v", got)
	}
}

// FuzzAppendKey: for two rows of mixed kinds, equal key bytes iff equal arity
// and every position equal under Compare.
func FuzzAppendKey(f *testing.F) {
	for _, seed := range keyCollisionSeeds {
		f.Add(fuzzRowBytes(seed[0]), fuzzRowBytes(seed[1]))
	}
	for i, d := range specialDatums { // each against its neighbour, and the whole set against itself
		f.Add(fuzzRowBytes(Row{d}), fuzzRowBytes(Row{specialDatums[(i+1)%len(specialDatums)]}))
	}
	f.Add(fuzzRowBytes(specialDatums), fuzzRowBytes(specialDatums))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		r1, r2 := fuzzRowFrom(a), fuzzRowFrom(b)
		same := bytes.Equal(r1.AppendKey(nil), r2.AppendKey(nil))
		if want := rowsEqual(r1, r2); same != want {
			t.Fatalf("%v vs %v: equal keys = %v, equal rows = %v", r1, r2, same, want)
		}
		// KeyInt reads the integer tag exactly when AppendKey writes it.
		for _, d := range r1 {
			i, ok := KeyInt(d)
			if key := AppendKey(nil, d); ok != (key[0] == keyInt) || ok && !bytes.Equal(key, AppendKey(nil, NewInt(i))) {
				t.Fatalf("KeyInt(%s %v) = %d, %t; key %x", d.Kind(), d, i, ok, key)
			}
		}
	})
}
