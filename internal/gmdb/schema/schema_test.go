package schema

import (
	"strings"
	"testing"

	"repro/internal/types"
)

// v1: {id string, counter number}
// v2: v1 + {flag bool} + bearers[]{qci number}
// v3: v2 + bearers gains {bytes number} + root gains {note string}
func v1Schema() *Schema {
	return &Schema{
		Type: "sess", Version: 1, PrimaryKey: "id",
		Root: &RecordSchema{Name: "root", Fields: []Field{
			{Name: "id", Kind: String},
			{Name: "counter", Kind: Number, Default: types.NewInt(0)},
		}},
	}
}

func v2Schema() *Schema {
	return &Schema{
		Type: "sess", Version: 2, PrimaryKey: "id",
		Root: &RecordSchema{Name: "root", Fields: []Field{
			{Name: "id", Kind: String},
			{Name: "counter", Kind: Number, Default: types.NewInt(0)},
			{Name: "flag", Kind: Bool, Default: types.NewBool(false)},
			{Name: "bearers", Kind: RecordArray, Record: &RecordSchema{
				Name: "bearer", Fields: []Field{{Name: "qci", Kind: Number, Default: types.NewInt(9)}},
			}},
		}},
	}
}

func v3Schema() *Schema {
	return &Schema{
		Type: "sess", Version: 3, PrimaryKey: "id",
		Root: &RecordSchema{Name: "root", Fields: []Field{
			{Name: "id", Kind: String},
			{Name: "counter", Kind: Number, Default: types.NewInt(0)},
			{Name: "flag", Kind: Bool, Default: types.NewBool(false)},
			{Name: "bearers", Kind: RecordArray, Record: &RecordSchema{
				Name: "bearer", Fields: []Field{
					{Name: "qci", Kind: Number, Default: types.NewInt(9)},
					{Name: "bytes", Kind: Number, Default: types.NewInt(0)},
				},
			}},
			{Name: "note", Kind: String, Default: types.NewString("")},
		}},
	}
}

func newRegistryAll(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, s := range []*Schema{v1Schema(), v2Schema(), v3Schema()} {
		if err := r.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestValidation(t *testing.T) {
	bad := &Schema{Type: "x", Version: 1, PrimaryKey: "nope",
		Root: &RecordSchema{Fields: []Field{{Name: "id", Kind: String}}}}
	if err := bad.Validate(); err == nil {
		t.Error("missing pk must fail")
	}
	dup := &Schema{Type: "x", Version: 1, PrimaryKey: "id",
		Root: &RecordSchema{Fields: []Field{{Name: "id", Kind: String}, {Name: "id", Kind: Number}}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate field must fail")
	}
	noElem := &Schema{Type: "x", Version: 1, PrimaryKey: "id",
		Root: &RecordSchema{Fields: []Field{{Name: "id", Kind: String}, {Name: "arr", Kind: RecordArray}}}}
	if err := noElem.Validate(); err == nil {
		t.Error("record array without element schema must fail")
	}
}

func TestEvolutionRules(t *testing.T) {
	// Legal: add-only.
	if err := CheckEvolution(v1Schema(), v2Schema()); err != nil {
		t.Errorf("v1->v2 should be legal: %v", err)
	}
	// Deleting a field is rejected.
	del := v1Schema()
	del.Version = 9
	del.Root.Fields = del.Root.Fields[:1]
	if err := CheckEvolution(v2Schema(), del); err == nil || !strings.Contains(err.Error(), "deleting") {
		t.Errorf("deletion err = %v", err)
	}
	// Reordering is rejected.
	reorder := v1Schema()
	reorder.Root.Fields[0], reorder.Root.Fields[1] = reorder.Root.Fields[1], reorder.Root.Fields[0]
	reorder.PrimaryKey = "id"
	if err := CheckEvolution(v1Schema(), reorder); err == nil {
		t.Error("reorder must fail")
	}
	// Kind change is rejected.
	kindChange := v1Schema()
	kindChange.Root.Fields[1].Kind = String
	if err := CheckEvolution(v1Schema(), kindChange); err == nil {
		t.Error("kind change must fail")
	}
	// Nested deletion is rejected.
	nested := v3Schema()
	nested.Version = 4
	nested.Root.Fields[3].Record.Fields = nested.Root.Fields[3].Record.Fields[:1]
	if err := CheckEvolution(v3Schema(), nested); err == nil {
		t.Error("nested deletion must fail")
	}
}

func TestRegistryAdjacency(t *testing.T) {
	r := newRegistryAll(t)
	cases := []struct {
		from, to int
		want     ConversionKind
		err      bool
	}{
		{1, 2, Upgrade, false},
		{2, 3, Upgrade, false},
		{2, 1, Downgrade, false},
		{3, 2, Downgrade, false},
		{1, 1, NoConversion, false},
		{1, 3, NoConversion, true}, // Fig 8's ✗: non-adjacent
		{3, 1, NoConversion, true},
	}
	for _, c := range cases {
		got, err := r.Conversion("sess", c.from, c.to)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("Conversion(%d->%d) = %v, %v; want %v, err=%v", c.from, c.to, got, err, c.want, c.err)
		}
	}
	if _, err := r.Conversion("sess", 1, 7); err == nil {
		t.Error("unregistered target must fail")
	}
	path, err := r.ConversionPath("sess", 1, 3)
	if err != nil || len(path) != 3 || path[0] != 1 || path[2] != 3 {
		t.Errorf("path = %v, %v", path, err)
	}
	down, _ := r.ConversionPath("sess", 3, 1)
	if len(down) != 3 || down[0] != 3 || down[2] != 1 {
		t.Errorf("down path = %v", down)
	}
}

func TestRegisterRejectsIllegalVersions(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(v1Schema()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(v1Schema()); err == nil {
		t.Error("duplicate version must fail")
	}
	// A v2 that drops a field must be rejected against v1.
	bad := &Schema{Type: "sess", Version: 2, PrimaryKey: "id",
		Root: &RecordSchema{Name: "root", Fields: []Field{{Name: "id", Kind: String}}}}
	if err := r.Register(bad); err == nil {
		t.Error("field-dropping evolution must be rejected at registration")
	}
	// Inserting a version between 1 and 3 must validate both directions.
	if err := r.Register(v3Schema()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(v2Schema()); err != nil {
		t.Errorf("inserting v2 between v1 and v3 should work: %v", err)
	}
	if versions := r.Versions("sess"); len(versions) != 3 || versions[1] != 2 {
		t.Errorf("versions = %v", versions)
	}
	if latest, ok := r.Latest("sess"); !ok || latest.Version != 3 {
		t.Errorf("latest = %v, %v", latest, ok)
	}
}

func newV2Object() *Object {
	bearer := &Record{Values: []Value{{Scalar: types.NewInt(5)}}}
	return &Object{Type: "sess", Version: 2, Root: &Record{Values: []Value{
		{Scalar: types.NewString("jane")},
		{Scalar: types.NewInt(7)},
		{Scalar: types.NewBool(true)},
		{Records: []*Record{bearer}},
	}}}
}

func TestConvertUpgrade(t *testing.T) {
	o := newV2Object()
	up, err := Convert(o, v2Schema(), v3Schema())
	if err != nil {
		t.Fatal(err)
	}
	if up.Version != 3 || len(up.Root.Values) != 5 {
		t.Fatalf("upgraded = %+v", up)
	}
	// New root field gets its default.
	if up.Root.Values[4].Scalar.Str() != "" {
		t.Errorf("note default = %v", up.Root.Values[4].Scalar)
	}
	// Nested bearer gains "bytes" default 0.
	b := up.Root.Values[3].Records[0]
	if len(b.Values) != 2 || b.Values[1].Scalar.Int() != 0 {
		t.Errorf("bearer = %+v", b)
	}
	// Original untouched.
	if len(o.Root.Values) != 4 {
		t.Error("source object mutated")
	}
}

func TestConvertDowngradeDropsFields(t *testing.T) {
	o := newV2Object()
	up, _ := Convert(o, v2Schema(), v3Schema())
	down, err := Convert(up, v3Schema(), v2Schema())
	if err != nil {
		t.Fatal(err)
	}
	if down.Version != 2 || len(down.Root.Values) != 4 {
		t.Fatalf("downgraded = %+v", down)
	}
	if len(down.Root.Values[3].Records[0].Values) != 1 {
		t.Error("nested downgrade did not drop the added field")
	}
	// Round trip preserves shared fields.
	if down.Root.Values[0].Scalar.Str() != "jane" || down.Root.Values[1].Scalar.Int() != 7 {
		t.Errorf("round trip lost data: %+v", down.Root.Values[:2])
	}
}

func TestConvertVersionChecks(t *testing.T) {
	o := newV2Object()
	if _, err := Convert(o, v1Schema(), v2Schema()); err == nil {
		t.Error("wrong source version must fail")
	}
	same, err := Convert(o, v2Schema(), v2Schema())
	if err != nil || same.Version != 2 {
		t.Error("identity conversion should clone")
	}
	same.Root.Values[1].Scalar = types.NewInt(99)
	if o.Root.Values[1].Scalar.Int() == 99 {
		t.Error("identity conversion must not alias")
	}
}

func TestObjectKeyAndRoundTrip(t *testing.T) {
	o := newV2Object()
	s := v2Schema()
	key, err := o.Key(s)
	if err != nil || key.Str() != "jane" {
		t.Fatalf("key = %v, %v", key, err)
	}
	data, err := EncodeObject(o, s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeObject(data, s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Root.Values[1].Scalar.Int() != 7 || back.Root.Values[3].Records[0].Values[0].Scalar.Int() != 5 {
		t.Errorf("round trip = %+v", back.Root)
	}
	// Wrong schema version fails.
	if _, err := DecodeObject(data, v3Schema()); err == nil {
		t.Error("version mismatch must fail")
	}
}

func TestDeltaApply(t *testing.T) {
	o := newV2Object()
	s := v2Schema()
	d := &Delta{Type: "sess", Version: 2, Key: types.NewString("jane"), Patches: []Patch{
		// counter = 100
		{Path: []PathElem{{Field: 1, Index: -1}}, Value: Value{Scalar: types.NewInt(100)}},
		// bearers[0].qci = 7
		{Path: []PathElem{{Field: 3, Index: 0}, {Field: 0, Index: -1}}, Value: Value{Scalar: types.NewInt(7)}},
		// append bearers[1] then set its qci
		{Path: []PathElem{{Field: 3, Index: 1}, {Field: 0, Index: -1}}, Value: Value{Scalar: types.NewInt(8)}},
	}}
	if err := Apply(o, d, s); err != nil {
		t.Fatal(err)
	}
	if o.Root.Values[1].Scalar.Int() != 100 {
		t.Error("counter patch lost")
	}
	bearers := o.Root.Values[3].Records
	if len(bearers) != 2 || bearers[0].Values[0].Scalar.Int() != 7 || bearers[1].Values[0].Scalar.Int() != 8 {
		t.Errorf("bearers = %+v", bearers)
	}
	// Out-of-range append (skipping an index) fails.
	bad := &Delta{Type: "sess", Version: 2, Patches: []Patch{
		{Path: []PathElem{{Field: 3, Index: 9}, {Field: 0, Index: -1}}, Value: Value{Scalar: types.NewInt(1)}},
	}}
	if err := Apply(o, bad, s); err == nil {
		t.Error("sparse append must fail")
	}
	// Version mismatch fails.
	badV := &Delta{Type: "sess", Version: 1}
	if err := Apply(o, badV, s); err == nil {
		t.Error("delta version mismatch must fail")
	}
}

func TestConvertDelta(t *testing.T) {
	// A v3 delta touching the v3-only "note" field downgrades to v2 by
	// dropping that patch; the shared-field patch survives.
	d := &Delta{Type: "sess", Version: 3, Patches: []Patch{
		{Path: []PathElem{{Field: 1, Index: -1}}, Value: Value{Scalar: types.NewInt(5)}},
		{Path: []PathElem{{Field: 4, Index: -1}}, Value: Value{Scalar: types.NewString("hi")}},
		{Path: []PathElem{{Field: 3, Index: 0}, {Field: 1, Index: -1}}, Value: Value{Scalar: types.NewInt(42)}},
	}}
	down, err := ConvertDelta(d, v3Schema(), v2Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(down.Patches) != 1 || down.Patches[0].Path[0].Field != 1 {
		t.Errorf("downgraded delta = %+v", down.Patches)
	}
	// Upgrade keeps everything.
	d2 := &Delta{Type: "sess", Version: 2, Patches: d.Patches[:1]}
	up, err := ConvertDelta(d2, v2Schema(), v3Schema())
	if err != nil || len(up.Patches) != 1 || up.Version != 3 {
		t.Errorf("upgraded delta = %+v, %v", up, err)
	}
}

func TestSizesForBandwidthExperiment(t *testing.T) {
	o := newV2Object()
	s := v2Schema()
	full, err := EncodeObject(o, s)
	if err != nil {
		t.Fatal(err)
	}
	d := &Delta{Type: "sess", Version: 2, Key: types.NewString("jane"), Patches: []Patch{
		{Path: []PathElem{{Field: 1, Index: -1}}, Value: Value{Scalar: types.NewInt(1)}},
	}}
	delta, err := EncodeDelta(d, s)
	if err != nil {
		t.Fatal(err)
	}
	// The sizes are the layout's: a 12-byte header ("sess" behind its
	// length, then the version), a 9-byte TEXT "jane" and 9-byte BIGINTs.
	// The object adds a 2-byte BOOL and a bearer count; the delta a patch
	// count, then a path count, one (field, index) step and the value.
	if len(full) != 12+9+9+2+4+9 || len(delta) != 12+9+4+4+8+9 {
		t.Errorf("object %d bytes, delta %d", len(full), len(delta))
	}
}
