package driver

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/types"
)

// BindNamed expands :name placeholders in query from arg (a map[string]any
// or a struct using `db` tags, sqlx idiom), rendering each value as a SQL
// literal. Placeholders inside single-quoted strings are left alone
// (” escaping respected). Binding is client-side: the server sees plain
// SQL, lifts the literals back out and keys its statement cache on the
// shape, so the same statement with distinct values is parsed once.
func BindNamed(query string, arg any) (string, error) {
	vals, err := fieldMap(arg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(len(query) + 32)
	inStr := false
	for i := 0; i < len(query); i++ {
		c := query[i]
		if inStr {
			b.WriteByte(c)
			if c == '\'' {
				if i+1 < len(query) && query[i+1] == '\'' {
					b.WriteByte('\'')
					i++
					continue
				}
				inStr = false
			}
			continue
		}
		switch {
		case c == '\'':
			inStr = true
			b.WriteByte(c)
		case c == ':' && i+1 < len(query) && isNameByte(query[i+1]):
			j := i + 1
			for j < len(query) && isNameByte(query[j]) {
				j++
			}
			name := query[i+1 : j]
			v, ok := vals[name]
			if !ok {
				return "", fmt.Errorf("driver: no value for parameter :%s", name)
			}
			lit, err := renderLiteral(v)
			if err != nil {
				return "", fmt.Errorf("driver: parameter :%s: %w", name, err)
			}
			b.WriteString(lit)
			i = j - 1
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}

func isNameByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// fieldMap flattens arg into name -> value. Maps are used as-is; structs
// contribute each exported field under its `db` tag (or lowercased name;
// tag "-" skips).
func fieldMap(arg any) (map[string]any, error) {
	if m, ok := arg.(map[string]any); ok {
		return m, nil
	}
	v := reflect.ValueOf(arg)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return nil, fmt.Errorf("driver: nil parameter source")
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return nil, fmt.Errorf("driver: parameter source must be a map[string]any or struct, got %T", arg)
	}
	out := make(map[string]any, v.NumField())
	t := v.Type()
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
		out[name] = v.Field(i).Interface()
	}
	return out, nil
}

// renderLiteral renders a Go value as a SQL literal the parser accepts.
func renderLiteral(v any) (string, error) {
	switch x := v.(type) {
	case nil:
		return "NULL", nil
	case string:
		return quoteString(x), nil
	case bool:
		if x {
			return "TRUE", nil
		}
		return "FALSE", nil
	case int:
		return strconv.FormatInt(int64(x), 10), nil
	case int8:
		return strconv.FormatInt(int64(x), 10), nil
	case int16:
		return strconv.FormatInt(int64(x), 10), nil
	case int32:
		return strconv.FormatInt(int64(x), 10), nil
	case int64:
		return strconv.FormatInt(x, 10), nil
	case uint:
		return strconv.FormatUint(uint64(x), 10), nil
	case uint8:
		return strconv.FormatUint(uint64(x), 10), nil
	case uint16:
		return strconv.FormatUint(uint64(x), 10), nil
	case uint32:
		return strconv.FormatUint(uint64(x), 10), nil
	case uint64:
		return strconv.FormatUint(x, 10), nil
	case float32:
		return renderFloat(float64(x))
	case float64:
		return renderFloat(x)
	case time.Time:
		return quoteString(x.UTC().Format(time.RFC3339Nano)), nil
	case types.Datum:
		return renderDatum(x)
	default:
		return "", fmt.Errorf("unsupported type %T", v)
	}
}

func renderDatum(d types.Datum) (string, error) {
	switch d.Kind() {
	case types.KindNull:
		return "NULL", nil
	case types.KindBool:
		return renderLiteral(d.Bool())
	case types.KindInt:
		return renderLiteral(d.Int())
	case types.KindFloat:
		return renderLiteral(d.Float())
	case types.KindString:
		return quoteString(d.Str()), nil
	case types.KindTime:
		return renderLiteral(d.Time())
	default:
		return "", fmt.Errorf("unsupported datum kind %v", d.Kind())
	}
}

// renderFloat renders a float so that it reads back as one: always with a
// '.' or an exponent (3.0 as "3.0", not the integer 3). NaN and ±Inf have
// no SQL literal.
func renderFloat(f float64) (string, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return "", fmt.Errorf("float %v has no SQL literal", f)
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s, nil
}

func quoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
