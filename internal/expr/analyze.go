package expr

import (
	"sort"

	"dyno/internal/data"
)

// Aliases returns the set of relation aliases (path heads) referenced by
// the expression.
func Aliases(e Expr) map[string]bool {
	out := make(map[string]bool)
	collectAliases(e, out)
	return out
}

func collectAliases(e Expr, out map[string]bool) {
	switch x := e.(type) {
	case *Col:
		if h := x.Path.Head(); h != "" {
			out[h] = true
		}
	case *Lit:
	case *Cmp:
		collectAliases(x.L, out)
		collectAliases(x.R, out)
	case *And:
		for _, t := range x.Terms {
			collectAliases(t, out)
		}
	case *Or:
		for _, t := range x.Terms {
			collectAliases(t, out)
		}
	case *Not:
		collectAliases(x.E, out)
	case *Arith:
		collectAliases(x.L, out)
		collectAliases(x.R, out)
	case *Call:
		for _, a := range x.Args {
			collectAliases(a, out)
		}
	}
}

// SortedAliases returns the referenced aliases in sorted order.
func SortedAliases(e Expr) []string {
	set := Aliases(e)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// SplitConjuncts flattens nested ANDs into a list of conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, t := range a.Terms {
			out = append(out, SplitConjuncts(t)...)
		}
		return out
	}
	return []Expr{e}
}

// Conjoin combines conjuncts back into a single expression. Zero
// conjuncts yield nil; one yields itself.
func Conjoin(terms []Expr) Expr {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return terms[0]
	default:
		return &And{Terms: terms}
	}
}

// EquiJoinCols reports whether the expression is an equality between
// columns of two different aliases, returning the two paths. This is
// what the join-graph builder and the repartition join key extractor
// consume.
func EquiJoinCols(e Expr) (left, right data.Path, ok bool) {
	c, isCmp := e.(*Cmp)
	if !isCmp || c.Op != EQ {
		return nil, nil, false
	}
	lc, lok := c.L.(*Col)
	rc, rok := c.R.(*Col)
	if !lok || !rok {
		return nil, nil, false
	}
	if lc.Path.Head() == rc.Path.Head() || lc.Path.Head() == "" || rc.Path.Head() == "" {
		return nil, nil, false
	}
	return lc.Path, rc.Path, true
}

// ContainsUDF reports whether the expression invokes any UDF.
func ContainsUDF(e Expr) bool {
	found := false
	walk(e, func(x Expr) {
		if _, ok := x.(*Call); ok {
			found = true
		}
	})
	return found
}

// ColumnPaths returns the distinct column paths referenced by the
// expression, sorted by their source form.
func ColumnPaths(e Expr) []data.Path {
	seen := map[string]data.Path{}
	walk(e, func(x Expr) {
		if c, ok := x.(*Col); ok {
			seen[c.Path.String()] = c.Path
		}
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]data.Path, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// walk visits every node of the expression tree in preorder.
func walk(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *Cmp:
		walk(x.L, f)
		walk(x.R, f)
	case *And:
		for _, t := range x.Terms {
			walk(t, f)
		}
	case *Or:
		for _, t := range x.Terms {
			walk(t, f)
		}
	case *Not:
		walk(x.E, f)
	case *Arith:
		walk(x.L, f)
		walk(x.R, f)
	case *Call:
		for _, a := range x.Args {
			walk(a, f)
		}
	}
}

// Signature returns a canonical string identifying the expression, used
// to key the statistics metastore so recurring leaf expressions reuse
// statistics (§4.1 "Reusability of statistics").
func Signature(e Expr) string {
	if e == nil {
		return "<true>"
	}
	// Conjunct order must not matter: sort the rendered conjuncts.
	terms := SplitConjuncts(e)
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	sort.Strings(parts)
	out := parts[0]
	for _, p := range parts[1:] {
		out += " AND " + p
	}
	return out
}
