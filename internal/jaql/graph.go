package jaql

import (
	"fmt"
	"slices"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/plan"
)

// unitKind classifies a job unit.
type unitKind int

// The job shapes the compiler emits.
const (
	// unitScan materializes a single leaf expression (used for
	// single-relation queries and pilot runs).
	unitScan unitKind = iota
	// unitRepartition is one repartition join: a full MapReduce job.
	unitRepartition
	// unitBroadcastChain is one or more chained broadcast joins in a
	// single map-only job.
	unitBroadcastChain
)

// String names the kind.
func (k unitKind) String() string {
	switch k {
	case unitScan:
		return "scan"
	case unitRepartition:
		return "repartition"
	default:
		return "broadcast-chain"
	}
}

// source describes one input of a unit: either an available file
// (base table or materialized intermediate) or the output of another
// unit.
type source struct {
	Rel    *plan.Rel // set for scans of base/intermediate relations
	Wrap   string    // alias to wrap raw base records with
	Filter expr.Expr // inline local predicate for base scans
	Dep    *Unit     // producing unit, when the input is another join
}

// file resolves the source's input file; dep units must have finished.
func (s *source) file() (*dfs.File, error) {
	if s.Dep != nil {
		if s.Dep.OutRel == nil {
			return nil, fmt.Errorf("jaql: dependency %s not executed", s.Dep.Name)
		}
		return s.Dep.OutRel.File, nil
	}
	if s.Rel == nil || s.Rel.File == nil {
		return nil, fmt.Errorf("jaql: unbound source")
	}
	return s.Rel.File, nil
}

// aliases returns the aliases the source's rows cover.
func (s *source) aliases() []string {
	if s.Dep != nil {
		return s.Dep.Aliases
	}
	return s.Rel.Aliases
}

// Unit is one MapReduce job cut out of a physical plan.
type Unit struct {
	Name    string
	Kind    unitKind
	Deps    []*Unit
	Aliases []string // aliases covered by the unit's output

	// Chain holds the broadcast-chain members bottom-up; for a
	// repartition unit it holds the single join.
	Chain []*plan.Join
	// Probe is the streamed input (repartition left / chain probe /
	// scan input); Right is the repartition right input.
	Probe source
	Right source
	// Builds are the broadcast build sides, aligned with Chain.
	Builds []source

	// EstCost is the optimizer's local cost for the unit's joins (used
	// by the CHEAP strategies); Uncertainty counts its joins (UNC
	// strategies, §5.3).
	EstCost     float64
	Uncertainty int

	// Switched records that the dynamic join operator converted this
	// repartition unit to a broadcast join at submit time (the future
	// work of the paper's §8, see ExecOpts.SwitchMmax).
	Switched bool

	// Execution result.
	OutRel *plan.Rel
}

// Done reports whether the unit has executed.
func (u *Unit) Done() bool { return u.OutRel != nil }

// ready reports whether all dependencies have executed.
func (u *Unit) ready() bool {
	return !slices.ContainsFunc(u.Deps, func(d *Unit) bool { return !d.Done() })
}

// MapOnly reports whether the unit runs without a reduce phase.
func (u *Unit) MapOnly() bool { return u.Kind != unitRepartition || u.Switched }

// String renders the unit.
func (u *Unit) String() string {
	return fmt.Sprintf("%s(%s, joins=%d, cost=%.3g)", u.Name, u.Kind, u.Uncertainty, u.EstCost)
}

// Graph is the job DAG for one physical plan. Units are in dependency
// order: a unit comes after every unit it reads, so the root is last.
type Graph struct {
	Units []*Unit
}

// Ready returns the unexecuted units whose dependencies are done — the
// paper's "leaf jobs" (§5.3).
func (g *Graph) Ready() []*Unit {
	var out []*Unit
	for _, u := range g.Units {
		if !u.Done() && u.ready() {
			out = append(out, u)
		}
	}
	return out
}

// Prepared maps leaf-expression signatures to materialized filtered
// outputs (pilot runs that consumed their whole input, §4.1). BuildGraph
// consults it so those scans read the filtered file directly.
type Prepared map[string]*dfs.File

// BuildGraph cuts a physical plan into job units. namePrefix
// disambiguates output paths across iterations.
func BuildGraph(root plan.Node, prepared Prepared, namePrefix string) (*Graph, error) {
	b := &graphBuilder{prepared: prepared, prefix: namePrefix}
	switch n := root.(type) {
	case *plan.Scan:
		u := &Unit{
			Name:    fmt.Sprintf("%s-scan", namePrefix),
			Kind:    unitScan,
			Probe:   b.scanSource(n),
			Aliases: n.Aliases(),
		}
		return &Graph{Units: []*Unit{u}}, nil
	case *plan.Join:
		if _, err := b.unitFor(n); err != nil {
			return nil, err
		}
		return &Graph{Units: b.units}, nil
	default:
		return nil, fmt.Errorf("jaql: unsupported plan node %T", root)
	}
}

type graphBuilder struct {
	prepared Prepared
	prefix   string
	units    []*Unit
	n        int
}

func (b *graphBuilder) scanSource(s *plan.Scan) source {
	rel := s.Rel
	if rel.IsBase() {
		if b.prepared != nil {
			if f, ok := b.prepared[rel.Leaf.Signature()]; ok {
				// Reuse the pilot run's materialized output: rows are
				// already wrapped and filtered.
				r := *rel
				r.File = f
				return source{Rel: &r}
			}
		}
		return source{Rel: rel, Wrap: rel.Leaf.Alias, Filter: rel.Leaf.Pred}
	}
	return source{Rel: rel}
}

func (b *graphBuilder) sourceFor(n plan.Node) (source, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return b.scanSource(t), nil
	case *plan.Join:
		u, err := b.unitFor(t)
		return source{Dep: u}, err
	default:
		return source{}, fmt.Errorf("jaql: unsupported plan node %T", n)
	}
}

func (b *graphBuilder) unitFor(j *plan.Join) (*Unit, error) {
	b.n++
	u := &Unit{
		Name:    fmt.Sprintf("%s-j%d", b.prefix, b.n),
		Aliases: j.Aliases(),
	}
	if j.Method == plan.Repartition {
		u.Kind = unitRepartition
		u.Chain = []*plan.Join{j}
		var err error
		if u.Probe, err = b.sourceFor(j.Left); err != nil {
			return nil, err
		}
		if u.Right, err = b.sourceFor(j.Right); err != nil {
			return nil, err
		}
	} else {
		u.Kind = unitBroadcastChain
		// Collect the chain top-down, then reverse to bottom-up.
		var members []*plan.Join
		cur := j
		for {
			members = append(members, cur)
			child, ok := cur.Left.(*plan.Join)
			if !ok || !child.Chained {
				break
			}
			cur = child
		}
		for i, k := 0, len(members)-1; i < k; i, k = i+1, k-1 {
			members[i], members[k] = members[k], members[i]
		}
		u.Chain = members
		var err error
		if u.Probe, err = b.sourceFor(members[0].Left); err != nil {
			return nil, err
		}
		for _, m := range members {
			src, err := b.sourceFor(m.Right)
			if err != nil {
				return nil, err
			}
			u.Builds = append(u.Builds, src)
		}
	}
	// Dependencies, local cost, and uncertainty.
	for _, s := range append([]source{u.Probe, u.Right}, u.Builds...) {
		if s.Dep != nil {
			u.Deps = append(u.Deps, s.Dep)
		}
	}
	top := u.Chain[len(u.Chain)-1]
	u.EstCost = top.CostVal
	for _, d := range u.Deps {
		u.EstCost -= d.Chain[len(d.Chain)-1].CostVal
	}
	u.Uncertainty = len(u.Chain)
	b.units = append(b.units, u)
	return u, nil
}

// probeKeyPaths returns, for a join, the key columns on the given side
// (identified by its alias set), in predicate order.
func probeKeyPaths(j *plan.Join, sideAliases []string) []data.Path {
	in := make(map[string]bool, len(sideAliases))
	for _, a := range sideAliases {
		in[a] = true
	}
	var out []data.Path
	for _, c := range j.Conds {
		l, r, ok := expr.EquiJoinCols(c)
		if !ok {
			continue
		}
		if in[l.Head()] {
			out = append(out, l)
		} else {
			out = append(out, r)
		}
	}
	return out
}
