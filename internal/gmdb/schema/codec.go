package schema

import (
	"cmp"
	"fmt"

	"repro/internal/types"
)

// The binary codec, over the datum codec of package types. An object is
// its type, its version, then its root record. A record is its values in
// schema order: a scalar is one datum, a record array a u32 count then its
// records. No field names are written, since both ends hold the schema. A
// delta is its type, version and key datum, then a count of patches; a
// patch is a count of (field u32, index i32) path steps, then its value in
// the layout of the field the path ends at.

// EncodeObject encodes o, which must be of s's type and version.
func EncodeObject(o *Object, s *Schema) ([]byte, error) {
	b, err := encodeHeader(s, o.Type, o.Version)
	if err != nil {
		return nil, err
	}
	return appendRecord(b, o.Root, s.Root)
}

// EncodeDelta encodes d, which must be of s's type and version.
func EncodeDelta(d *Delta, s *Schema) ([]byte, error) {
	b, err := encodeHeader(s, d.Type, d.Version)
	if err != nil {
		return nil, err
	}
	if b, err = appendValue(b, Value{Scalar: d.Key}, s.keyField()); err != nil {
		return nil, err
	}
	b = types.AppendU32(b, uint32(len(d.Patches)))
	for _, p := range d.Patches {
		f, err := patchField(s.Root, p.Path)
		if err != nil {
			return nil, err
		}
		b = types.AppendU32(b, uint32(len(p.Path)))
		for _, pe := range p.Path {
			b = types.AppendU32(types.AppendU32(b, uint32(pe.Field)), uint32(int32(pe.Index)))
		}
		if b, err = appendValue(b, p.Value, f); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func encodeHeader(s *Schema, typ string, version int) ([]byte, error) {
	if err := headerFits(s, typ, version); err != nil {
		return nil, err
	}
	return types.AppendU32(types.AppendString(nil, typ), uint32(version)), nil
}

func headerFits(s *Schema, typ string, version int) error {
	if typ != s.Type || version != s.Version {
		return fmt.Errorf("schema: %s v%d encoded under %s v%d", typ, version, s.Type, s.Version)
	}
	return nil
}

// CheckObject returns the error EncodeObject would fail o with under s,
// nil when it would not: a store refuses an object it could not encode.
func CheckObject(o *Object, s *Schema) error {
	if err := headerFits(s, o.Type, o.Version); err != nil {
		return err
	}
	return checkRecord(o.Root, s.Root)
}

// CheckDelta returns the error EncodeDelta would fail d with under s, nil
// when it would not.
func CheckDelta(d *Delta, s *Schema) error {
	if err := headerFits(s, d.Type, d.Version); err != nil {
		return err
	}
	if err := checkValue(Value{Scalar: d.Key}, s.keyField()); err != nil {
		return err
	}
	for _, p := range d.Patches {
		f, err := patchField(s.Root, p.Path)
		if err != nil {
			return err
		}
		if err := checkValue(p.Value, f); err != nil {
			return err
		}
	}
	return nil
}

func checkRecord(r *Record, rs *RecordSchema) error {
	if err := recordFits(r, rs); err != nil {
		return err
	}
	for i, v := range r.Values {
		if err := checkValue(v, rs.Fields[i]); err != nil {
			return err
		}
	}
	return nil
}

func checkValue(v Value, f Field) error {
	if f.Kind != RecordArray {
		if !f.Kind.holds(v.Scalar.Kind()) {
			return kindError(f, v.Scalar.Kind())
		}
		return nil
	}
	for _, sub := range v.Records {
		if err := checkRecord(sub, f.Record); err != nil {
			return err
		}
	}
	return nil
}

// recordFits reports a record with more values than its schema has fields,
// or none at all.
func recordFits(r *Record, rs *RecordSchema) error {
	if r == nil || len(r.Values) > len(rs.Fields) {
		return fmt.Errorf("schema: record does not fit %s", rs.Name)
	}
	return nil
}

func appendRecord(b []byte, r *Record, rs *RecordSchema) ([]byte, error) {
	if err := recordFits(r, rs); err != nil {
		return nil, err
	}
	var err error
	for i, f := range rs.Fields {
		var v Value // a value missing from a short record encodes as NULL
		if i < len(r.Values) {
			v = r.Values[i]
		}
		if b, err = appendValue(b, v, f); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendValue(b []byte, v Value, f Field) ([]byte, error) {
	if f.Kind != RecordArray {
		if err := checkValue(v, f); err != nil {
			return nil, err
		}
		return types.AppendDatum(b, v.Scalar), nil
	}
	b = types.AppendU32(b, uint32(len(v.Records)))
	var err error
	for _, sub := range v.Records {
		if b, err = appendRecord(b, sub, f.Record); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// holds reports whether a field of kind k can hold a datum of kind dk.
func (k FieldKind) holds(dk types.Kind) bool {
	switch dk {
	case types.KindNull:
		return k != RecordArray
	case types.KindInt, types.KindFloat:
		return k == Number
	case types.KindString:
		return k == String
	case types.KindBytes:
		return k == Bytes
	case types.KindBool:
		return k == Bool
	}
	return false
}

func kindError(f Field, dk types.Kind) error {
	return fmt.Errorf("schema: %s field %q cannot hold %s", f.Kind, f.Name, dk)
}

func (s *Schema) keyField() Field { return s.Root.Fields[s.Root.FieldIndex(s.PrimaryKey)] }

// DecodeObject decodes what EncodeObject wrote under s.
func DecodeObject(b []byte, s *Schema) (*Object, error) {
	d := decoder{r: types.NewReader(b)}
	d.header(s)
	root := d.record(s.Root)
	if err := d.done(); err != nil {
		return nil, err
	}
	return &Object{Type: s.Type, Version: s.Version, Root: root}, nil
}

// DecodeObject decodes an object under the registered schema its bytes
// name.
func (r *Registry) DecodeObject(b []byte) (*Object, error) {
	h := types.NewReader(b)
	typ, version := h.Str(), int(h.U32())
	s, ok := r.Get(typ, version)
	if !ok {
		return nil, fmt.Errorf("schema: %s v%d is not registered", typ, version)
	}
	return DecodeObject(b, s)
}

// DecodeDelta decodes what EncodeDelta wrote under s.
func DecodeDelta(b []byte, s *Schema) (*Delta, error) {
	d := decoder{r: types.NewReader(b)}
	d.header(s)
	out := &Delta{Type: s.Type, Version: s.Version, Key: d.value(s.keyField()).Scalar}
	// A patch is at least its path count, one step and a kind byte.
	out.Patches = make([]Patch, d.r.Count(4+8+1))
	for i := range out.Patches {
		p := &out.Patches[i]
		p.Path = make([]PathElem, d.r.Count(8))
		for j := range p.Path {
			p.Path[j] = PathElem{Field: int(d.r.U32()), Index: int(int32(d.r.U32()))}
		}
		if !d.ok() {
			break
		}
		f, err := patchField(s.Root, p.Path)
		if err != nil {
			d.err = err
			break
		}
		p.Value = d.value(f)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// decoder reads values under a schema; err holds the first value that
// does not fit it, the reader's own error the first malformed byte.
type decoder struct {
	r   *types.Reader
	err error
}

func (d *decoder) ok() bool { return d.err == nil && d.r.Err() == nil }

func (d *decoder) header(s *Schema) {
	typ, version := d.r.Str(), int(d.r.U32())
	if d.ok() && (typ != s.Type || version != s.Version) {
		d.err = fmt.Errorf("schema: payload is %s v%d, schema is %s v%d", typ, version, s.Type, s.Version)
	}
}

func (d *decoder) record(rs *RecordSchema) *Record {
	rec := &Record{Values: make([]Value, len(rs.Fields))}
	for i, f := range rs.Fields {
		if !d.ok() {
			break
		}
		rec.Values[i] = d.value(f)
	}
	return rec
}

func (d *decoder) value(f Field) Value {
	if f.Kind != RecordArray {
		v := d.r.Datum()
		if d.ok() && !f.Kind.holds(v.Kind()) {
			d.err = kindError(f, v.Kind())
		}
		return Value{Scalar: v}
	}
	// Every field of a record takes at least one byte.
	recs := make([]*Record, d.r.Count(max(1, len(f.Record.Fields))))
	for j := range recs {
		recs[j] = d.record(f.Record)
	}
	return Value{Records: recs}
}

func (d *decoder) done() error {
	if d.ok() && d.r.Len() > 0 {
		d.err = fmt.Errorf("schema: %d trailing bytes", d.r.Len())
	}
	return cmp.Or(d.err, d.r.Err())
}
