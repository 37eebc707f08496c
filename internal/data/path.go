package data

import (
	"fmt"
	"strconv"
	"strings"
)

// Step is one component of a Path: either a field access or an array
// index.
type Step struct {
	Name    string // field name when IsIndex is false
	Index   int    // array index when IsIndex is true
	IsIndex bool
}

// Path addresses a nested value, e.g. rs.addr[0].zip. The first step is
// conventionally the relation alias of the row object.
type Path []Step

// ParsePath parses a dotted path with optional array subscripts, such as
// "rs.addr[0].zip". It rejects empty components and malformed subscripts.
func ParsePath(s string) (Path, error) {
	var p Path
	if s == "" {
		return nil, fmt.Errorf("data: empty path")
	}
	rest := s
	for len(rest) > 0 {
		// Field name up to '.' or '['.
		end := len(rest)
		for i, c := range rest {
			if c == '.' || c == '[' {
				end = i
				break
			}
		}
		name := rest[:end]
		if name == "" {
			return nil, fmt.Errorf("data: empty component in path %q", s)
		}
		p = append(p, Step{Name: name})
		rest = rest[end:]
		// Zero or more subscripts.
		for strings.HasPrefix(rest, "[") {
			close := strings.IndexByte(rest, ']')
			if close < 0 {
				return nil, fmt.Errorf("data: unterminated subscript in path %q", s)
			}
			idx, err := strconv.Atoi(rest[1:close])
			if err != nil || idx < 0 {
				return nil, fmt.Errorf("data: bad subscript %q in path %q", rest[1:close], s)
			}
			p = append(p, Step{Index: idx, IsIndex: true})
			rest = rest[close+1:]
		}
		if strings.HasPrefix(rest, ".") {
			rest = rest[1:]
			if rest == "" {
				return nil, fmt.Errorf("data: trailing dot in path %q", s)
			}
		}
	}
	return p, nil
}

// MustParsePath is ParsePath for statically known paths; it panics on
// error.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Eval resolves the path against a value. Missing fields and out-of-range
// indexes yield null (SQL-ish missing-data semantics).
func (p Path) Eval(v Value) Value {
	cur := v
	for _, st := range p {
		if st.IsIndex {
			cur = cur.Index(st.Index)
		} else {
			cur = cur.FieldOr(st.Name)
		}
		if cur.IsNull() {
			return Null()
		}
	}
	return cur
}

// Head returns the first field name of the path ("" for an empty path).
// For row objects keyed by alias this is the relation alias.
func (p Path) Head() string {
	if len(p) == 0 || p[0].IsIndex {
		return ""
	}
	return p[0].Name
}

// String renders the path in its source form.
func (p Path) String() string {
	var sb strings.Builder
	for i, st := range p {
		if st.IsIndex {
			sb.WriteByte('[')
			sb.WriteString(strconv.Itoa(st.Index))
			sb.WriteByte(']')
			continue
		}
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(st.Name)
	}
	return sb.String()
}
