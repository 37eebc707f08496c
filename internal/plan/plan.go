// Package plan defines the query plan structures shared by the
// compiler, the cost-based optimizer, and the dynamic executor:
//
//   - Leaf: a table scan plus its local predicates/UDFs (the paper's
//     leaf expression lexp_R, the unit pilot runs execute);
//   - Rel: a node of a join block — either a base leaf or a materialized
//     intermediate result — together with its statistics;
//   - JoinBlock: the n-way join unit handed to the optimizer (scans,
//     equi-join predicates, and non-local predicates such as UDFs over
//     join results);
//   - Node: physical operator trees (scans, repartition joins, broadcast
//     joins, broadcast chains) with estimated cardinalities and costs.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/stats"
)

// Leaf is a base-table scan with the local predicates and UDFs pushed
// onto it by the rewrite engine.
type Leaf struct {
	Table string
	Alias string
	Pred  expr.Expr // nil when the scan has no local predicates
}

// Signature canonically identifies the leaf expression for statistics
// reuse across queries (§4.1).
func (l *Leaf) Signature() string {
	return fmt.Sprintf("scan(%s AS %s) WHERE %s", l.Table, l.Alias, expr.Signature(l.Pred))
}

// String renders the leaf.
func (l *Leaf) String() string {
	if l.Pred == nil {
		return l.Alias
	}
	return fmt.Sprintf("σ[%s](%s)", l.Pred.String(), l.Alias)
}

// Rel is one node of a join block: a base leaf or an intermediate
// relation materialized by a previous execution step.
type Rel struct {
	Name    string   // table name, or t1, t2, ... for intermediates
	Aliases []string // the query aliases this relation covers
	Leaf    *Leaf    // non-nil for base relations
	File    *dfs.File
	Stats   stats.TableStats
}

// IsBase reports whether the relation is an unexecuted base leaf.
func (r *Rel) IsBase() bool { return r.Leaf != nil }

// Covers reports whether the relation covers the alias.
func (r *Rel) Covers(alias string) bool {
	for _, a := range r.Aliases {
		if a == alias {
			return true
		}
	}
	return false
}

// String renders the relation.
func (r *Rel) String() string {
	if r.IsBase() {
		return r.Leaf.String()
	}
	return fmt.Sprintf("%s{%s}", r.Name, strings.Join(r.Aliases, ","))
}

// JoinBlock is the unit the cost-based optimizer works on: a set of
// relations, the equi-join predicates connecting them, and the
// non-local predicates (including UDFs over join results) that must be
// applied once their aliases are all present.
type JoinBlock struct {
	Rels      []*Rel
	JoinPreds []expr.Expr // equi-joins between two aliases
	NonLocal  []expr.Expr // residual filters (UDFs on join results etc.)
}

// RelFor returns the relation covering the alias, or nil.
func (jb *JoinBlock) RelFor(alias string) *Rel {
	for _, r := range jb.Rels {
		if r.Covers(alias) {
			return r
		}
	}
	return nil
}

// String summarizes the block.
func (jb *JoinBlock) String() string {
	var sb strings.Builder
	sb.WriteString("JoinBlock{")
	for i, r := range jb.Rels {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(r.String())
	}
	sb.WriteString("}")
	for _, p := range jb.JoinPreds {
		fmt.Fprintf(&sb, " ⋈[%s]", p.String())
	}
	for _, p := range jb.NonLocal {
		fmt.Fprintf(&sb, " σ*[%s]", p.String())
	}
	return sb.String()
}

// JoinMethod selects the physical join implementation.
type JoinMethod int

// The two join methods Jaql's runtime supports (§2.2.1).
const (
	Repartition JoinMethod = iota
	BroadcastJoin
)

// String renders the join symbol used in the paper's figures.
func (m JoinMethod) String() string {
	if m == Repartition {
		return "⋈r"
	}
	return "⋈b"
}

// Node is a physical plan operator.
type Node interface {
	// Aliases returns the sorted query aliases the node's output covers.
	Aliases() []string
	// Card returns the estimated output cardinality.
	Card() float64
	// Bytes returns the estimated output size in virtual bytes.
	Bytes() float64
	// Cost returns the estimated cumulative cost of computing the node.
	Cost() float64
	fmt.Stringer
}

// Scan reads a relation (base leaf or intermediate).
type Scan struct {
	Rel *Rel
}

// Aliases implements Node.
func (s *Scan) Aliases() []string {
	out := append([]string(nil), s.Rel.Aliases...)
	sort.Strings(out)
	return out
}

// Card implements Node.
func (s *Scan) Card() float64 { return s.Rel.Stats.Card }

// Bytes implements Node.
func (s *Scan) Bytes() float64 { return s.Rel.Stats.SizeBytes() }

// Cost implements Node: scans are costed inside their consuming join.
func (s *Scan) Cost() float64 { return 0 }

// String implements Node.
func (s *Scan) String() string { return s.Rel.String() }

// Join is a physical binary join. For broadcast joins, Right is the
// build side.
type Join struct {
	Method   JoinMethod
	Left     Node
	Right    Node
	Conds    []expr.Expr // equi-join predicates
	Residual []expr.Expr // non-local filters applied to the join output

	EstCard  float64
	EstBytes float64
	CostVal  float64

	// Chained marks a broadcast join executed in the same map-only job
	// as its (broadcast) parent, per the chain rule of §5.2.
	Chained bool
}

// Aliases implements Node.
func (j *Join) Aliases() []string {
	out := append(j.Left.Aliases(), j.Right.Aliases()...)
	sort.Strings(out)
	return out
}

// Card implements Node.
func (j *Join) Card() float64 { return j.EstCard }

// Bytes implements Node.
func (j *Join) Bytes() float64 { return j.EstBytes }

// Cost implements Node.
func (j *Join) Cost() float64 { return j.CostVal }

// String implements Node.
func (j *Join) String() string {
	return fmt.Sprintf("(%s %s %s)", j.Left.String(), j.Method.String(), j.Right.String())
}

// Format renders the plan as an indented tree, in the spirit of the
// paper's Figures 2 and 3.
func Format(n Node) string {
	var sb strings.Builder
	var rec func(Node, string)
	rec = func(x Node, indent string) {
		switch t := x.(type) {
		case *Scan:
			fmt.Fprintf(&sb, "%s%s  [card=%.0f]\n", indent, t.String(), t.Card())
		case *Join:
			label := t.Method.String()
			if t.Chained {
				label += " (chained)"
			}
			extra := ""
			if len(t.Residual) > 0 {
				parts := make([]string, len(t.Residual))
				for i, r := range t.Residual {
					parts[i] = r.String()
				}
				extra = " σ*[" + strings.Join(parts, " AND ") + "]"
			}
			fmt.Fprintf(&sb, "%s%s%s  [card=%.0f cost=%.3g]\n", indent, label, extra, t.EstCard, t.CostVal)
			rec(t.Left, indent+"  ")
			rec(t.Right, indent+"  ")
		default:
			fmt.Fprintf(&sb, "%s%v\n", indent, x)
		}
	}
	rec(n, "")
	return sb.String()
}
