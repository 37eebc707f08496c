package wire

import (
	"fmt"
	"sort"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/sqlparse"
)

// SourceSpec is one serialized unit input: the alias to wrap raw
// records with (empty for pre-wrapped intermediates) and the inline
// filter. It mirrors jaql.Source minus the file reference, which
// travels separately as a block path list.
type SourceSpec struct {
	Wrap   string
	Filter *ExprSpec
}

// PruneEntry is one alias of the projection-pushdown live-column map.
// An alias whose whole sub-record stays live is simply omitted (the
// pruner keeps unknown aliases untouched), so entries only list
// aliases with a concrete field set.
type PruneEntry struct {
	Alias  string
	Fields []string
}

// ChainStep is one link of a broadcast probe chain: which build table
// to probe, the probe-side key columns, and the join's residual.
type ChainStep struct {
	Build    string
	Keys     []string
	Residual *ExprSpec
}

// SelectItem serializes one sqlparse.SelectItem with its output name
// frozen (Name() is derived from the raw column node, which decoding
// must not depend on).
type SelectItem struct {
	Expr *ExprSpec
	Agg  string
	Star bool
	As   string
}

// OpSpec declares what a job's tasks compute, covering the four job
// shapes the compiler emits. It is attached to mapreduce.Spec.RemoteOp
// and interpreted by workers; the controller keeps running the
// identical closures for accounting, so an OpSpec must describe the
// exact same transformation.
type OpSpec struct {
	Kind string // scan | repartition | chain | aggregate

	// Source is the scanned/probed input (scan and chain kinds).
	Source *SourceSpec

	// Repartition: the two shuffled sides (input 0 = Left, tag "L";
	// input 1 = Right, tag "R"), their key columns, and the reduce-side
	// residual over merged rows.
	Left      *SourceSpec
	Right     *SourceSpec
	LeftKeys  []string
	RightKeys []string
	Residual  *ExprSpec

	// Steps is the broadcast probe chain (chain kind).
	Steps []ChainStep

	// Prune is the projection-pushdown live map; nil disables pruning.
	Prune []PruneEntry

	// Aggregate: grouping keys, select list, and whether tasks run the
	// map-side combiner (partial aggregation).
	GroupBy []*ExprSpec
	Select  []SelectItem
	Combine bool
}

// EncodePaths serializes column paths through their canonical string
// form (Path.String round-trips through ParsePath for every
// parser-produced path).
func EncodePaths(paths []data.Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = p.String()
	}
	return out
}

// DecodePaths parses the path list back.
func DecodePaths(ss []string) ([]data.Path, error) {
	out := make([]data.Path, len(ss))
	for i, s := range ss {
		p, err := data.ParsePath(s)
		if err != nil {
			return nil, fmt.Errorf("wire: bad key path %q: %v", s, err)
		}
		out[i] = p
	}
	return out, nil
}

// EncodePrune serializes a live-column map (alias -> kept fields; a
// nil field set means the alias is fully live and is omitted, matching
// the pruner's keep-unknown-aliases rule). Entries and fields are
// sorted so the encoding is deterministic.
func EncodePrune(live map[string]map[string]bool) []PruneEntry {
	if live == nil {
		return nil
	}
	var out []PruneEntry
	for alias, set := range live {
		if set == nil {
			continue
		}
		fields := make([]string, 0, len(set))
		for f := range set {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		out = append(out, PruneEntry{Alias: alias, Fields: fields})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Alias < out[k].Alias })
	return out
}

// DecodePrune rebuilds the projection-pushdown row transform,
// replicating jaql.NewPruner exactly: every listed alias keeps only
// its live fields; unlisted aliases pass through whole.
func DecodePrune(entries []PruneEntry) func(data.Value) data.Value {
	if len(entries) == 0 {
		return nil
	}
	live := make(map[string]map[string]bool, len(entries))
	for _, e := range entries {
		set := make(map[string]bool, len(e.Fields))
		for _, f := range e.Fields {
			set[f] = true
		}
		live[e.Alias] = set
	}
	return func(row data.Value) data.Value {
		fields := row.Fields()
		out := make([]data.Field, 0, len(fields))
		for _, f := range fields {
			set, known := live[f.Name]
			if !known || set == nil {
				out = append(out, f)
				continue
			}
			inner := f.Value.Fields()
			kept := make([]data.Field, 0, len(set))
			for _, g := range inner {
				if set[g.Name] {
					kept = append(kept, g)
				}
			}
			out = append(out, data.Field{Name: f.Name, Value: data.ObjectFromSorted(kept)})
		}
		return data.ObjectFromSorted(out)
	}
}

// EncodeSelect serializes a select list, freezing each item's output
// name the way the compiled fast path does (identical semantics: Name
// falls back to the same derivation at evaluation time).
func EncodeSelect(items []sqlparse.SelectItem) ([]SelectItem, error) {
	out := make([]SelectItem, len(items))
	for i, it := range items {
		s := SelectItem{Agg: it.Agg, Star: it.Star, As: it.As}
		if it.E != nil {
			if s.As == "" && !it.Star {
				s.As = it.Name()
			}
			e, err := EncodeExpr(it.E)
			if err != nil {
				return nil, err
			}
			s.Expr = e
		}
		out[i] = s
	}
	return out, nil
}

// DecodeSelect rebuilds the select list.
func DecodeSelect(items []SelectItem) ([]sqlparse.SelectItem, error) {
	out := make([]sqlparse.SelectItem, len(items))
	for i, s := range items {
		it := sqlparse.SelectItem{Agg: s.Agg, Star: s.Star, As: s.As}
		e, err := DecodeExpr(s.Expr)
		if err != nil {
			return nil, err
		}
		it.E = e
		out[i] = it
	}
	return out, nil
}

// EncodeExprs serializes an expression list (group-by keys).
func EncodeExprs(es []expr.Expr) ([]*ExprSpec, error) {
	return encodeExprs(es)
}

// DecodeExprs rebuilds an expression list.
func DecodeExprs(ss []*ExprSpec) ([]expr.Expr, error) {
	return decodeExprs(ss)
}
