package schema

import (
	"fmt"

	"repro/internal/types"
)

// Value is one field value: a scalar datum or, for RecordArray fields, a
// list of nested records.
type Value struct {
	Scalar  types.Datum
	Records []*Record
}

// Record is one record instance; Values is positional per the record
// schema's fields.
type Record struct {
	Values []Value
}

// Object is a stored tree object: a root record stamped with the schema
// version it was written under.
type Object struct {
	Type    string
	Version int
	Root    *Record
}

// NewRecord allocates a record shaped for the given record schema, filling
// scalar fields with their defaults.
func NewRecord(rs *RecordSchema) *Record {
	rec := &Record{Values: make([]Value, len(rs.Fields))}
	for i, f := range rs.Fields {
		if f.Kind != RecordArray {
			rec.Values[i] = Value{Scalar: f.Default}
		}
	}
	return rec
}

// Key extracts the object's primary key.
func (o *Object) Key(s *Schema) (types.Datum, error) {
	if o.Root == nil {
		return types.Null, fmt.Errorf("schema: object has no root record")
	}
	i := s.Root.FieldIndex(s.PrimaryKey)
	if i < 0 || i >= len(o.Root.Values) {
		return types.Null, fmt.Errorf("schema: object missing primary key %q", s.PrimaryKey)
	}
	return o.Root.Values[i].Scalar, nil
}

// Clone deep-copies an object.
func (o *Object) Clone() *Object {
	return &Object{Type: o.Type, Version: o.Version, Root: cloneRecord(o.Root)}
}

func cloneRecord(r *Record) *Record {
	if r == nil {
		return nil
	}
	out := &Record{Values: make([]Value, len(r.Values))}
	for i, v := range r.Values {
		out.Values[i] = cloneValue(v)
	}
	return out
}

func cloneValue(v Value) Value {
	out := Value{Scalar: v.Scalar}
	if v.Records != nil {
		out.Records = make([]*Record, len(v.Records))
		for j, sub := range v.Records {
			out.Records[j] = cloneRecord(sub)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Conversion (upgrade / downgrade evolution)
// ---------------------------------------------------------------------------

// Convert transforms an object between two schema versions of the same
// type. Upgrading appends default values for new fields; downgrading
// truncates fields unknown to the older schema. Thanks to the add-only
// rule, field positions never shift. The input object is not modified.
func Convert(o *Object, from, to *Schema) (*Object, error) {
	if o.Type != from.Type || from.Type != to.Type {
		return nil, fmt.Errorf("schema: convert type mismatch (%s / %s / %s)", o.Type, from.Type, to.Type)
	}
	if o.Version != from.Version {
		return nil, fmt.Errorf("schema: object is v%d, not source version v%d", o.Version, from.Version)
	}
	if from.Version == to.Version {
		return o.Clone(), nil
	}
	root, err := convertRecord(o.Root, from.Root, to.Root)
	if err != nil {
		return nil, err
	}
	return &Object{Type: o.Type, Version: to.Version, Root: root}, nil
}

func convertRecord(r *Record, from, to *RecordSchema) (*Record, error) {
	if r == nil {
		return nil, nil
	}
	if len(r.Values) > len(from.Fields) {
		return nil, fmt.Errorf("schema: record %s has %d values for %d fields", from.Name, len(r.Values), len(from.Fields))
	}
	out := &Record{Values: make([]Value, len(to.Fields))}
	n := len(from.Fields)
	if len(to.Fields) < n {
		n = len(to.Fields) // downgrade: extra source fields are dropped
	}
	for i := 0; i < n; i++ {
		var v Value
		if i < len(r.Values) {
			v = r.Values[i]
		} else if to.Fields[i].Kind != RecordArray {
			v = Value{Scalar: from.Fields[i].Default}
		}
		if to.Fields[i].Kind == RecordArray && v.Records != nil {
			converted := make([]*Record, len(v.Records))
			for j, sub := range v.Records {
				c, err := convertRecord(sub, from.Fields[i].Record, to.Fields[i].Record)
				if err != nil {
					return nil, err
				}
				converted[j] = c
			}
			v = Value{Records: converted}
		}
		out.Values[i] = v
	}
	// Upgrade: fill appended fields with their defaults.
	for i := n; i < len(to.Fields); i++ {
		if to.Fields[i].Kind != RecordArray {
			out.Values[i] = Value{Scalar: to.Fields[i].Default}
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Delta objects
// ---------------------------------------------------------------------------

// PathElem addresses one step into the tree: the field position, and for
// RecordArray fields the element index (extendable: an index one past the
// end appends a fresh record).
type PathElem struct {
	Field int
	// Index is the record-array element; -1 for scalar fields.
	Index int
}

// Patch sets the value at Path.
type Patch struct {
	Path  []PathElem
	Value Value
}

// Delta is a partial update: the paper's "data updates and schema
// evolution happen on delta objects instead of whole objects".
type Delta struct {
	Type    string
	Version int
	Key     types.Datum
	Patches []Patch
}

// ConvertDelta rewrites a delta between schema versions. Add-only
// evolution keeps field positions stable, so upgrade is the identity on
// paths; downgrade drops patches that touch fields beyond the older
// schema (they do not exist there). A path that leaves the source schema
// is an error.
func ConvertDelta(d *Delta, from, to *Schema) (*Delta, error) {
	if d.Version != from.Version {
		return nil, fmt.Errorf("schema: delta is v%d, not source version v%d", d.Version, from.Version)
	}
	out := &Delta{Type: d.Type, Version: to.Version, Key: d.Key}
	for _, p := range d.Patches {
		if _, err := patchField(from.Root, p.Path); err != nil {
			return nil, err
		}
		if _, err := patchField(to.Root, p.Path); err == nil {
			out.Patches = append(out.Patches, p)
		}
	}
	return out, nil
}

// patchField returns the field a patch path ends at. Every step but the
// last enters one element of a record array; the last names a scalar
// field (index -1), a whole record array (-1) or one of its elements.
func patchField(rs *RecordSchema, path []PathElem) (Field, error) {
	for i, pe := range path {
		if pe.Field < 0 || pe.Field >= len(rs.Fields) || pe.Index < -1 {
			break
		}
		f := rs.Fields[pe.Field]
		if i == len(path)-1 && (f.Kind == RecordArray || pe.Index == -1) {
			return f, nil
		}
		if f.Kind != RecordArray || pe.Index < 0 {
			break
		}
		rs = f.Record
	}
	return Field{}, fmt.Errorf("schema: patch path %v leaves the schema", path)
}

// Apply mutates obj in place per the delta, which must match the object's
// version. Array paths may append exactly one element past the current
// end.
func Apply(obj *Object, d *Delta, s *Schema) error {
	if obj.Version != d.Version {
		return fmt.Errorf("schema: delta v%d applied to object v%d", d.Version, obj.Version)
	}
	for _, p := range d.Patches {
		if err := applyPatch(obj.Root, s.Root, p.Path, p.Value); err != nil {
			return err
		}
	}
	return nil
}

func applyPatch(rec *Record, rs *RecordSchema, path []PathElem, v Value) error {
	if len(path) == 0 {
		return fmt.Errorf("schema: empty patch path")
	}
	pe := path[0]
	if pe.Field >= len(rs.Fields) {
		return fmt.Errorf("schema: patch field %d out of range (record %s)", pe.Field, rs.Name)
	}
	// Records may be sparse when the object was written under an older
	// version; extend positionally.
	for len(rec.Values) <= pe.Field {
		rec.Values = append(rec.Values, Value{})
	}
	f := rs.Fields[pe.Field]
	if len(path) == 1 && pe.Index < 0 {
		// Scalar (or whole-array) assignment. Records are copied: the
		// caller's delta must not share them with the object.
		rec.Values[pe.Field] = cloneValue(v)
		return nil
	}
	if f.Kind != RecordArray {
		return fmt.Errorf("schema: patch descends into scalar field %q", f.Name)
	}
	arr := rec.Values[pe.Field].Records
	switch {
	case pe.Index >= 0 && pe.Index < len(arr):
		// Existing element.
	case pe.Index == len(arr):
		arr = append(arr, NewRecord(f.Record))
		rec.Values[pe.Field].Records = arr
	default:
		return fmt.Errorf("schema: patch index %d out of range for %q (len %d)", pe.Index, f.Name, len(arr))
	}
	if len(path) == 1 {
		if v.Records != nil && len(v.Records) == 1 {
			arr[pe.Index] = cloneRecord(v.Records[0])
			return nil
		}
		return fmt.Errorf("schema: array-element patch needs exactly one record value")
	}
	return applyPatch(arr[pe.Index], f.Record, path[1:], v)
}
