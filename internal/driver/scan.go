package driver

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"repro/internal/types"
)

// ErrNoRows is returned by Get when the query matched nothing.
var ErrNoRows = errors.New("driver: no rows in result set")

// scanOne scans the first row of res into dest: a struct pointer mapped by
// column name (`db` tag or lowercased field, sqlx idiom), or a scalar
// pointer for single-column results.
func scanOne(dest any, res *Result) error {
	if len(res.Rows) == 0 {
		return ErrNoRows
	}
	v := reflect.ValueOf(dest)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("driver: scan destination must be a non-nil pointer, got %T", dest)
	}
	return scanRow(v.Elem(), res.Columns, res.Rows[0])
}

// scanAll scans every row of res into dest, which must be a *[]T with T a
// struct (column-mapped) or scalar (single-column results).
func scanAll(dest any, res *Result) error {
	v := reflect.ValueOf(dest)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Slice {
		return fmt.Errorf("driver: scan destination must be a non-nil slice pointer, got %T", dest)
	}
	slice := v.Elem()
	elemT := slice.Type().Elem()
	out := reflect.MakeSlice(slice.Type(), 0, len(res.Rows))
	for _, row := range res.Rows {
		ev := reflect.New(elemT).Elem()
		if err := scanRow(ev, res.Columns, row); err != nil {
			return err
		}
		out = reflect.Append(out, ev)
	}
	slice.Set(out)
	return nil
}

// scanRow fills one destination value from one row.
func scanRow(dst reflect.Value, cols []string, row types.Row) error {
	if dst.Kind() == reflect.Struct && dst.Type() != reflect.TypeOf(time.Time{}) {
		idx := fieldIndex(dst.Type())
		for i, col := range cols {
			if i >= len(row) {
				break
			}
			fi, ok := idx[strings.ToLower(col)]
			if !ok {
				continue
			}
			if err := assignDatum(dst.Field(fi), row[i]); err != nil {
				return fmt.Errorf("driver: column %q: %w", col, err)
			}
		}
		return nil
	}
	// Scalar destination: single-column rows only.
	if len(row) != 1 {
		return fmt.Errorf("driver: scalar destination needs a 1-column result, got %d", len(row))
	}
	return assignDatum(dst, row[0])
}

// fieldIndex maps db column name -> struct field index.
func fieldIndex(t reflect.Type) map[string]int {
	idx := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := f.Tag.Get("db")
		if name == "-" {
			continue
		}
		if name == "" {
			name = strings.ToLower(f.Name)
		}
		idx[name] = i
	}
	return idx
}

// assignDatum converts a wire datum into the destination's Go type.
func assignDatum(dst reflect.Value, d types.Datum) error {
	if !dst.CanSet() {
		return errors.New("destination field not settable")
	}
	if d.Kind() == types.KindNull {
		dst.Set(reflect.Zero(dst.Type()))
		return nil
	}
	if dst.Type() == reflect.TypeOf(types.Datum{}) {
		dst.Set(reflect.ValueOf(d))
		return nil
	}
	if dst.Type() == reflect.TypeOf(time.Time{}) {
		if d.Kind() != types.KindTime {
			return fmt.Errorf("cannot scan %v into time.Time", d.Kind())
		}
		dst.Set(reflect.ValueOf(d.Time()))
		return nil
	}
	switch dst.Kind() {
	case reflect.Bool:
		if d.Kind() != types.KindBool {
			return fmt.Errorf("cannot scan %v into bool", d.Kind())
		}
		dst.SetBool(d.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		switch d.Kind() {
		case types.KindInt:
			dst.SetInt(d.Int())
		case types.KindFloat:
			dst.SetInt(int64(d.Float()))
		default:
			return fmt.Errorf("cannot scan %v into int", d.Kind())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if d.Kind() != types.KindInt {
			return fmt.Errorf("cannot scan %v into uint", d.Kind())
		}
		dst.SetUint(uint64(d.Int()))
	case reflect.Float32, reflect.Float64:
		switch d.Kind() {
		case types.KindFloat:
			dst.SetFloat(d.Float())
		case types.KindInt:
			dst.SetFloat(float64(d.Int()))
		default:
			return fmt.Errorf("cannot scan %v into float", d.Kind())
		}
	case reflect.String:
		if d.Kind() != types.KindString {
			return fmt.Errorf("cannot scan %v into string", d.Kind())
		}
		dst.SetString(d.Str())
	case reflect.Slice:
		if dst.Type().Elem().Kind() == reflect.Uint8 && d.Kind() == types.KindBytes {
			dst.SetBytes(d.Bytes()) // a copy: the caller may keep and change it
			return nil
		}
		return fmt.Errorf("cannot scan %v into %s", d.Kind(), dst.Type())
	default:
		return fmt.Errorf("cannot scan %v into %s", d.Kind(), dst.Type())
	}
	return nil
}
