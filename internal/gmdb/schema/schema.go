// Package schema implements GMDB's tree object model and online schema
// evolution (paper §III-B): versioned record schemas whose instances are
// trees (records containing primary-typed fields and arrays of nested
// records), with dynamic upgrade/downgrade conversion so clients on
// different schema versions share one stored copy. Objects and deltas
// travel and persist in one binary encoding (codec.go) that writes values
// in schema order over the datum codec of package types.
//
// Evolution rules follow the paper: adding fields is the only allowed
// change; deleting and re-ordering fields are rejected at registration.
// This add-only discipline keeps field positions stable across versions,
// which is what makes both directions of conversion — and delta-object
// conversion — cheap and unambiguous.
package schema

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/types"
)

// FieldKind is the type of one field.
type FieldKind uint8

// Field kinds. RecordArray fields hold ordered lists of nested records
// (the "record type with an array of records" of §III-B).
const (
	String FieldKind = iota
	Number
	Bool
	Bytes
	RecordArray
)

func (k FieldKind) String() string {
	switch k {
	case String:
		return "string"
	case Number:
		return "number"
	case Bool:
		return "bool"
	case Bytes:
		return "bytes"
	case RecordArray:
		return "record[]"
	default:
		return "kind?"
	}
}

// Field describes one record attribute.
type Field struct {
	Name string
	Kind FieldKind
	// Default fills the field when upgrading an object written under an
	// older version that lacks it. Ignored for RecordArray (defaults to
	// empty).
	Default types.Datum
	// Record describes the element schema for RecordArray fields.
	Record *RecordSchema
}

// RecordSchema is an ordered list of fields.
type RecordSchema struct {
	Name   string
	Fields []Field
}

// FieldIndex returns the position of a field by name, or -1.
func (r *RecordSchema) FieldIndex(name string) int {
	for i, f := range r.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Schema is one version of an object type.
type Schema struct {
	// Type is the object type name (e.g. "mme_session").
	Type string
	// Version is the application schema version (the paper's V3, V5, ...).
	Version int
	// Root is the record layout; PrimaryKey names the root field that
	// uniquely identifies an object.
	Root       *RecordSchema
	PrimaryKey string
}

// Validate checks structural sanity.
func (s *Schema) Validate() error {
	if s.Type == "" {
		return fmt.Errorf("schema: empty type name")
	}
	if s.Root == nil {
		return fmt.Errorf("schema: %s v%d has no root record", s.Type, s.Version)
	}
	if i := s.Root.FieldIndex(s.PrimaryKey); i < 0 {
		return fmt.Errorf("schema: %s v%d: primary key %q is not a root field", s.Type, s.Version, s.PrimaryKey)
	}
	return validateRecord(s.Root)
}

func validateRecord(r *RecordSchema) error {
	if len(r.Fields) == 0 {
		return fmt.Errorf("schema: record %s has no fields", r.Name)
	}
	seen := map[string]bool{}
	for _, f := range r.Fields {
		if f.Name == "" {
			return fmt.Errorf("schema: record %s has an unnamed field", r.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("schema: record %s has duplicate field %q", r.Name, f.Name)
		}
		seen[f.Name] = true
		if f.Kind == RecordArray {
			if f.Record == nil {
				return fmt.Errorf("schema: field %s.%s has no element schema", r.Name, f.Name)
			}
			if err := validateRecord(f.Record); err != nil {
				return err
			}
		} else if f.Record != nil {
			return fmt.Errorf("schema: scalar field %s.%s must not carry an element schema", r.Name, f.Name)
		}
	}
	return nil
}

// CheckEvolution verifies that `to` is a legal evolution of `from`: every
// field of `from` must appear at the same position with the same name and
// kind in `to` (recursively), i.e. `to` only appends fields. This enforces
// the paper's "deleting and re-ordering fields are not allowed".
func CheckEvolution(from, to *Schema) error {
	if from.Type != to.Type {
		return fmt.Errorf("schema: type mismatch %q vs %q", from.Type, to.Type)
	}
	if from.PrimaryKey != to.PrimaryKey {
		return fmt.Errorf("schema: primary key may not change (%q -> %q)", from.PrimaryKey, to.PrimaryKey)
	}
	return checkRecordEvolution(from.Root, to.Root, from.Root.Name)
}

func checkRecordEvolution(from, to *RecordSchema, path string) error {
	if len(to.Fields) < len(from.Fields) {
		return fmt.Errorf("schema: record %s: deleting fields is not allowed (%d -> %d)", path, len(from.Fields), len(to.Fields))
	}
	for i, ff := range from.Fields {
		tf := to.Fields[i]
		if ff.Name != tf.Name {
			return fmt.Errorf("schema: record %s: field %d renamed or re-ordered (%q -> %q)", path, i, ff.Name, tf.Name)
		}
		if ff.Kind != tf.Kind {
			return fmt.Errorf("schema: record %s: field %q changed kind (%s -> %s)", path, ff.Name, ff.Kind, tf.Kind)
		}
		if ff.Kind == RecordArray {
			if err := checkRecordEvolution(ff.Record, tf.Record, path+"."+ff.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// Registry holds the registered schema versions of every object type and
// answers which conversions are legal. Conversions are permitted only
// between ADJACENT registered versions, matching the paper's Fig 8 matrix
// (V3→V5 is U1; V3→V6 is ✗).
type Registry struct {
	mu      sync.RWMutex
	schemas map[string]map[int]*Schema
	// order caches each type's sorted version list.
	order map[string][]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{schemas: map[string]map[int]*Schema{}, order: map[string][]int{}}
}

// Register validates and publishes a schema version. The new version must
// be a legal evolution of its registered predecessor (if any) and the
// registered successor (if any) must be a legal evolution of it.
func (r *Registry) Register(s *Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	versions := r.schemas[s.Type]
	if versions == nil {
		versions = map[int]*Schema{}
		r.schemas[s.Type] = versions
	}
	if _, dup := versions[s.Version]; dup {
		return fmt.Errorf("schema: %s v%d already registered", s.Type, s.Version)
	}
	// Find neighbours in version order.
	var prev, next *Schema
	for v, sc := range versions {
		if v < s.Version && (prev == nil || v > prev.Version) {
			prev = sc
		}
		if v > s.Version && (next == nil || v < next.Version) {
			next = sc
		}
	}
	if prev != nil {
		if err := CheckEvolution(prev, s); err != nil {
			return err
		}
	}
	if next != nil {
		if err := CheckEvolution(s, next); err != nil {
			return err
		}
	}
	versions[s.Version] = s
	order := make([]int, 0, len(versions))
	for v := range versions {
		order = append(order, v)
	}
	sort.Ints(order)
	r.order[s.Type] = order
	return nil
}

// Get returns a registered schema.
func (r *Registry) Get(typ string, version int) (*Schema, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.schemas[typ][version]
	return s, ok
}

// Versions returns the registered versions of a type in ascending order.
func (r *Registry) Versions(typ string) []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]int(nil), r.order[typ]...)
}

// Latest returns the highest registered version of a type.
func (r *Registry) Latest(typ string) (*Schema, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	order := r.order[typ]
	if len(order) == 0 {
		return nil, false
	}
	return r.schemas[typ][order[len(order)-1]], true
}

// ConversionKind classifies a legal conversion.
type ConversionKind uint8

// Conversion kinds (paper: upgrade vs downgrade schema evolution).
const (
	NoConversion ConversionKind = iota
	Upgrade
	Downgrade
)

func (k ConversionKind) String() string {
	switch k {
	case Upgrade:
		return "U"
	case Downgrade:
		return "D"
	case NoConversion:
		return "-"
	default:
		return "?"
	}
}

// Conversion reports whether objects can be converted from version `from`
// to version `to`. Only identity and ADJACENT registered versions are
// legal, reproducing Fig 8; everything else returns an error (the ✗
// entries).
func (r *Registry) Conversion(typ string, from, to int) (ConversionKind, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	order := r.order[typ]
	fi, ti := -1, -1
	for i, v := range order {
		if v == from {
			fi = i
		}
		if v == to {
			ti = i
		}
	}
	if fi < 0 {
		return NoConversion, fmt.Errorf("schema: %s v%d is not registered", typ, from)
	}
	if ti < 0 {
		return NoConversion, fmt.Errorf("schema: %s v%d is not registered", typ, to)
	}
	switch {
	case fi == ti:
		return NoConversion, nil
	case ti == fi+1:
		return Upgrade, nil
	case ti == fi-1:
		return Downgrade, nil
	default:
		return NoConversion, fmt.Errorf("schema: no direct conversion %s v%d -> v%d (versions are not adjacent)", typ, from, to)
	}
}

// ConversionPath returns the version chain from -> ... -> to through
// adjacent steps (the multi-hop extension: a V3 client catching up to V8
// converts stepwise). Both endpoints must be registered.
func (r *Registry) ConversionPath(typ string, from, to int) ([]int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	order := r.order[typ]
	fi, ti := -1, -1
	for i, v := range order {
		if v == from {
			fi = i
		}
		if v == to {
			ti = i
		}
	}
	if fi < 0 || ti < 0 {
		return nil, fmt.Errorf("schema: unregistered version in path %s v%d -> v%d", typ, from, to)
	}
	var path []int
	if fi <= ti {
		path = append(path, order[fi:ti+1]...)
	} else {
		for i := fi; i >= ti; i-- {
			path = append(path, order[i])
		}
	}
	return path, nil
}
