package schema_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gmdb/schema"
	"repro/internal/mme"
	"repro/internal/types"
)

// kindsSchema has a field of every kind, an array that stays empty and
// records nested two deep.
func kindsSchema() *schema.Schema {
	leaf := &schema.RecordSchema{Name: "leaf", Fields: []schema.Field{{Name: "x", Kind: schema.Number}}}
	return &schema.Schema{Type: "kinds", Version: 1, PrimaryKey: "id", Root: &schema.RecordSchema{Name: "root", Fields: []schema.Field{
		{Name: "id", Kind: schema.String},
		{Name: "double", Kind: schema.Number},
		{Name: "big", Kind: schema.Number},
		{Name: "raw", Kind: schema.Bytes},
		{Name: "none", Kind: schema.Number},
		{Name: "flag", Kind: schema.Bool},
		{Name: "empty", Kind: schema.RecordArray, Record: leaf},
		{Name: "outer", Kind: schema.RecordArray, Record: &schema.RecordSchema{Name: "outer", Fields: []schema.Field{
			{Name: "name", Kind: schema.String},
			{Name: "inner", Kind: schema.RecordArray, Record: leaf},
		}}},
	}}}
}

func scalars(ds ...types.Datum) *schema.Record {
	r := &schema.Record{}
	for _, d := range ds {
		r.Values = append(r.Values, schema.Value{Scalar: d})
	}
	return r
}

// kindsObject holds the values a JSON round trip got wrong: DOUBLE 3.0,
// BYTEA {ff 00 61} and BIGINT 2^53+1, beside NULL, an empty record array
// and nested records.
func kindsObject() *schema.Object {
	outer := func(name string, inner ...*schema.Record) *schema.Record {
		return &schema.Record{Values: []schema.Value{{Scalar: types.NewString(name)}, {Records: inner}}}
	}
	return &schema.Object{Type: "kinds", Version: 1, Root: &schema.Record{Values: []schema.Value{
		{Scalar: types.NewString("k")},
		{Scalar: types.NewFloat(3.0)},
		{Scalar: types.NewInt(9007199254740993)},
		{Scalar: types.NewBytes([]byte{0xff, 0x00, 0x61})},
		{Scalar: types.Null},
		{Scalar: types.NewBool(true)},
		{Records: []*schema.Record{}},
		{Records: []*schema.Record{
			outer("a", scalars(types.NewFloat(-0.5)), scalars(types.NewInt(-1))),
			outer("b"),
		}},
	}}}
}

// sameRecord reports whether two records hold identical values: equal
// datums of equal kind, and record arrays of equal length and contents.
func sameRecord(a, b *schema.Record) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i, x := range a.Values {
		y := b.Values[i]
		if x.Scalar != y.Scalar || len(x.Records) != len(y.Records) {
			return false
		}
		for j := range x.Records {
			if !sameRecord(x.Records[j], y.Records[j]) {
				return false
			}
		}
	}
	return true
}

// TestCodecRoundTripsEveryKind: every field kind comes back with its
// value and its kind.
func TestCodecRoundTripsEveryKind(t *testing.T) {
	s, want := kindsSchema(), kindsObject()
	b, err := schema.EncodeObject(want, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := schema.DecodeObject(b, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Version != want.Version {
		t.Errorf("decoded %s v%d", got.Type, got.Version)
	}
	for i, f := range s.Root.Fields {
		w, g := want.Root.Values[i], got.Root.Values[i]
		if w.Scalar != g.Scalar {
			t.Errorf("%s: got %s %v, want %s %v", f.Name, g.Scalar.Kind(), g.Scalar, w.Scalar.Kind(), w.Scalar)
		}
	}
	if !sameRecord(got.Root, want.Root) {
		t.Errorf("records differ after the round trip:\n got %+v\nwant %+v", got.Root, want.Root)
	}
}

// TestDecodeRejects: a datum its field cannot hold, another type or
// version, trailing bytes and every truncation are errors, not panics.
func TestDecodeRejects(t *testing.T) {
	s := kindsSchema()
	good, err := schema.EncodeObject(kindsObject(), s)
	if err != nil {
		t.Fatal(err)
	}
	header := types.AppendU32(types.AppendString(nil, "kinds"), 1)
	for _, c := range []struct {
		field  int
		datum  types.Datum
		holdOK bool
	}{
		{0, types.NewInt(1), false},
		{1, types.NewString("3"), false},
		{1, types.NewTime(time.Unix(1, 0)), false},
		{3, types.NewString("raw"), false},
		{5, types.NewInt(1), false},
		{2, types.NewFloat(2.5), true},
		{3, types.Null, true},
	} {
		b := header
		for i, f := range s.Root.Fields {
			switch {
			case i == c.field:
				b = types.AppendDatum(b, c.datum)
			case f.Kind == schema.RecordArray:
				b = types.AppendU32(b, 0)
			default:
				b = types.AppendDatum(b, types.Null)
			}
		}
		_, err := schema.DecodeObject(b, s)
		if (err == nil) != c.holdOK {
			t.Errorf("%s field %q holding %s: err = %v", s.Root.Fields[c.field].Kind, s.Root.Fields[c.field].Name, c.datum.Kind(), err)
		}
		bad := kindsObject()
		bad.Root.Values[c.field].Scalar = c.datum
		if _, err := schema.EncodeObject(bad, s); (err == nil) != c.holdOK {
			t.Errorf("encoding %s into %q: err = %v", c.datum.Kind(), s.Root.Fields[c.field].Name, err)
		}
	}
	other := kindsSchema()
	other.Version = 2
	if _, err := schema.DecodeObject(good, other); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Errorf("version mismatch: err = %v", err)
	}
	other = kindsSchema()
	other.Type = "other"
	if _, err := schema.DecodeObject(good, other); err == nil {
		t.Error("type mismatch decoded")
	}
	if _, err := schema.DecodeObject(append(bytes.Clone(good), 0), s); err == nil {
		t.Error("trailing byte decoded")
	}
	for n := 0; n < len(good); n++ {
		if _, err := schema.DecodeObject(good[:n], s); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded", n, len(good))
		}
	}
}

// mmeSchemas is the V3..V8 chain in order.
func mmeSchemas(t testing.TB) []*schema.Schema {
	var out []*schema.Schema
	for _, v := range mme.Versions {
		sc, err := mme.Schema(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sc)
	}
	return out
}

// checkAllocation fails when decode allocated more than a small multiple
// of its input.
func checkAllocation(t *testing.T, n int, decode func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*n+1<<16); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", n, grew, limit)
	}
}

// withHostileCount replaces the trailing u32 count of b.
func withHostileCount(b []byte) []byte {
	return types.AppendU32(bytes.Clone(b[:len(b)-4]), 0x7fffffff)
}

// FuzzGMDBObject decodes outside bytes as a V3 session and as a kinds
// object: no panic, no allocation past a small multiple of the input, and
// whatever decodes re-encodes to itself and upgrades to V8 alike before
// and after the round trip.
func FuzzGMDBObject(f *testing.F) {
	chain := mmeSchemas(f)
	kinds := kindsSchema()
	for id := int64(0); id < 2; id++ {
		obj, err := mme.GenerateSession(rand.New(rand.NewSource(id)), 3, id)
		if err != nil {
			f.Fatal(err)
		}
		b, err := schema.EncodeObject(obj, chain[0])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		obj.Root.Values[len(obj.Root.Values)-1].Records = nil // bearers, the last V3 field
		b, _ = schema.EncodeObject(obj, chain[0])
		f.Add(withHostileCount(b))
	}
	b, err := schema.EncodeObject(kindsObject(), kinds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	upgrade := func(t *testing.T, o *schema.Object) []byte {
		var err error
		for i := 1; i < len(chain) && err == nil; i++ {
			o, err = schema.Convert(o, chain[i-1], chain[i])
		}
		if err != nil {
			t.Fatalf("V3 -> V8: %v", err)
		}
		b, err := schema.EncodeObject(o, chain[len(chain)-1])
		if err != nil {
			t.Fatalf("V8 encode: %v", err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, sc := range []*schema.Schema{chain[0], kinds} {
			var obj *schema.Object
			var err error
			checkAllocation(t, len(b), func() { obj, err = schema.DecodeObject(b, sc) })
			if err != nil {
				continue
			}
			enc, err := schema.EncodeObject(obj, sc)
			if err != nil {
				t.Fatalf("decoded object does not encode: %v", err)
			}
			back, err := schema.DecodeObject(enc, sc)
			if err != nil || !reflect.DeepEqual(back, obj) {
				t.Fatalf("round trip: %+v became %+v, %v", obj, back, err)
			}
			if sc != chain[0] {
				continue
			}
			if !bytes.Equal(upgrade(t, obj), upgrade(t, back)) {
				t.Fatal("the V3 -> V8 upgrade differs after a round trip")
			}
		}
	})
}

// FuzzGMDBDelta is FuzzGMDBObject for deltas.
func FuzzGMDBDelta(f *testing.F) {
	chain := mmeSchemas(f)
	kinds := kindsSchema()
	for idx := 0; idx < 2; idx++ {
		d, err := mme.SessionDelta(rand.New(rand.NewSource(int64(idx))), 3, "460000000000001", idx)
		if err != nil {
			f.Fatal(err)
		}
		b, err := schema.EncodeDelta(d, chain[0])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		d.Patches = nil
		b, _ = schema.EncodeDelta(d, chain[0])
		f.Add(withHostileCount(b))
	}
	whole := &schema.Delta{Type: "kinds", Version: 1, Key: types.NewString("k"), Patches: []schema.Patch{
		{Path: []schema.PathElem{{Field: 7, Index: 0}, {Field: 1, Index: -1}}, Value: kindsObject().Root.Values[7].Records[0].Values[1]},
		{Path: []schema.PathElem{{Field: 7, Index: 1}}, Value: schema.Value{Records: []*schema.Record{{Values: []schema.Value{{Scalar: types.NewString("c")}, {}}}}}},
		{Path: []schema.PathElem{{Field: 3, Index: -1}}, Value: schema.Value{Scalar: types.NewBytes([]byte{0xff})}},
	}}
	b, err := schema.EncodeDelta(whole, kinds)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	upgrade := func(t *testing.T, d *schema.Delta) []byte {
		var err error
		for i := 1; i < len(chain) && err == nil; i++ {
			d, err = schema.ConvertDelta(d, chain[i-1], chain[i])
		}
		if err != nil {
			t.Fatalf("V3 -> V8: %v", err)
		}
		b, err := schema.EncodeDelta(d, chain[len(chain)-1])
		if err != nil {
			t.Fatalf("V8 encode: %v", err)
		}
		return b
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, sc := range []*schema.Schema{chain[0], kinds} {
			var d *schema.Delta
			var err error
			checkAllocation(t, len(b), func() { d, err = schema.DecodeDelta(b, sc) })
			if err != nil {
				continue
			}
			enc, err := schema.EncodeDelta(d, sc)
			if err != nil {
				t.Fatalf("decoded delta does not encode: %v", err)
			}
			back, err := schema.DecodeDelta(enc, sc)
			if err != nil || !reflect.DeepEqual(back, d) {
				t.Fatalf("round trip: %+v became %+v, %v", d, back, err)
			}
			if sc != chain[0] {
				continue
			}
			if !bytes.Equal(upgrade(t, d), upgrade(t, back)) {
				t.Fatal("the V3 -> V8 upgrade differs after a round trip")
			}
		}
	})
}
