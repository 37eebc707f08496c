package data

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// MarshalJSON encodes the value as standard JSON. Object fields appear in
// sorted name order, so the encoding is deterministic.
func (v Value) MarshalJSON() ([]byte, error) { return []byte(v.String()), nil }

// DecodeJSON parses a JSON document into a Value. Numbers without a
// fractional part or exponent decode as ints; others as doubles.
func DecodeJSON(b []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null(), fmt.Errorf("data: decode json: %w", err)
	}
	return fromGo(raw)
}

// fromGo converts what encoding/json decodes with UseNumber (nil, bool,
// json.Number, string, []any, map[string]any) into a Value.
func fromGo(raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null(), nil
	case bool:
		return Bool(x), nil
	case string:
		return String(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return Null(), fmt.Errorf("data: bad number %q: %w", x.String(), err)
		}
		return Double(f), nil
	case []any:
		elems := make([]Value, len(x))
		for i, e := range x {
			v, err := fromGo(e)
			if err != nil {
				return Null(), err
			}
			elems[i] = v
		}
		return Array(elems...), nil
	case map[string]any:
		fields := make([]Field, 0, len(x))
		for k, e := range x {
			v, err := fromGo(e)
			if err != nil {
				return Null(), err
			}
			fields = append(fields, Field{Name: k, Value: v})
		}
		return Object(fields...), nil
	default:
		return Null(), fmt.Errorf("data: unsupported Go value of type %T", raw)
	}
}
