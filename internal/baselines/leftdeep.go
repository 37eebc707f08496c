package baselines

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"dyno/internal/core"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/optimizer"
	"dyno/internal/plan"
)

// jaqlMethodsTree builds the left-deep tree for a relation order using
// Jaql's static join-method rules (§2.2.2): every join defaults to a
// repartition join; a broadcast join is used only when the build side's
// *file* fits in memory (the compiler checks file sizes, so filters are
// invisible and intermediates can never be builds); consecutive
// broadcast joins whose build files simultaneously fit are chained into
// one map job.
func jaqlMethodsTree(order []*plan.Rel, mmax float64) plan.Node {
	var root plan.Node = &plan.Scan{Rel: order[0]}
	var chainBudget float64
	for _, rel := range order[1:] {
		j := &plan.Join{Left: root, Right: &plan.Scan{Rel: rel}}
		fileSize := math.Inf(1)
		if rel.File != nil {
			fileSize = float64(rel.File.Size())
		}
		if fileSize <= mmax && mmax > 0 {
			j.Method = plan.BroadcastJoin
			if prev, ok := root.(*plan.Join); ok && prev.Method == plan.BroadcastJoin &&
				chainBudget+fileSize <= mmax {
				prev.Chained = true
				chainBudget += fileSize
			} else {
				chainBudget = fileSize
			}
		} else {
			j.Method = plan.Repartition
			chainBudget = 0
		}
		root = j
	}
	return root
}

// bestLeftDeep searches all cartesian-avoiding left-deep relation
// orders, costs each under the block's (oracle) statistics with Jaql's
// method rules, and returns the cheapest tree — the model of "we tried
// all possible orders of relations and picked the best one" (§6.1).
func bestLeftDeep(block *plan.JoinBlock, cfg optimizer.Config) (plan.Node, error) {
	n := len(block.Rels)
	if n == 0 {
		return nil, errors.New("baselines: empty block")
	}
	if n == 1 {
		return &plan.Scan{Rel: block.Rels[0]}, nil
	}
	est := optimizer.NewEstimator(block, cfg)
	var best plan.Node
	bestCost := math.Inf(1)

	order := make([]*plan.Rel, 0, n)
	used := make([]bool, n)
	bound := map[int]bool{}
	var rec func() error
	rec = func() error {
		if len(order) == n {
			tree := jaqlMethodsTree(order, cfg.Mmax)
			if err := est.Annotate(tree); err != nil {
				return err
			}
			if c := tree.Cost(); c < bestCost {
				bestCost = c
				// Re-build so the kept tree is not mutated by later
				// annotation passes.
				best = jaqlMethodsTree(append([]*plan.Rel(nil), order...), cfg.Mmax)
				if err := est.Annotate(best); err != nil {
					return err
				}
			}
			return nil
		}
		// Prefer connected extensions; allow arbitrary ones only when
		// no relation connects (Jaql's own rule: pick a relation that
		// avoids cartesian products when possible).
		anyConnected := false
		if len(order) > 0 {
			for i := 0; i < n; i++ {
				if !used[i] && est.HasEdge(bound, i) {
					anyConnected = true
					break
				}
			}
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if anyConnected && !est.HasEdge(bound, i) {
				continue
			}
			used[i] = true
			bound[i] = true
			order = append(order, block.Rels[i])
			if err := rec(); err != nil {
				return err
			}
			order = order[:len(order)-1]
			delete(bound, i)
			used[i] = false
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	if best == nil {
		return nil, errors.New("baselines: no left-deep order found")
	}
	return best, nil
}

// Variant names the comparison systems of §6.1.
type Variant string

// The four execution-plan variants of the evaluation.
const (
	VariantBestStatic Variant = "BESTSTATIC" // best hand-written left-deep plan
	VariantRelOpt     Variant = "RELOPT"     // static relational optimizer
	VariantSimple     Variant = "DYNOPT-SIMPLE"
	VariantDynOpt     Variant = "DYNOPT"
)

// Variants lists the valid variant names in the order §6.1 introduces
// the comparison systems.
var Variants = []Variant{VariantBestStatic, VariantRelOpt, VariantSimple, VariantDynOpt}

// ParseVariant resolves a variant name; the error for an unknown name
// lists the valid ones.
func ParseVariant(name string) (Variant, error) {
	if slices.Contains(Variants, Variant(name)) {
		return Variant(name), nil
	}
	valid := make([]string, len(Variants))
	for i, v := range Variants {
		valid[i] = string(v)
	}
	return "", fmt.Errorf("baselines: unknown variant %q (valid: %s)", name, strings.Join(valid, " | "))
}

// NewEngine builds an engine configured as one of the paper's
// comparison systems over a shared environment and catalog.
func NewEngine(v Variant, env *mapreduce.Env, cat *jaql.Catalog, optCfg optimizer.Config, opts core.Options) (*core.Engine, error) {
	switch v {
	case VariantDynOpt:
		opts.Reoptimize = true
		opts.DisablePilotRuns = false
	case VariantSimple:
		opts.Reoptimize = false
		opts.DisablePilotRuns = false
		if opts.Strategy == nil {
			opts.Strategy = core.All{}
		}
	case VariantRelOpt:
		sc := NewStatsCatalog(env, cat)
		opts.Reoptimize = false
		opts.DisablePilotRuns = true
		opts.PrepareStats = sc.prepareStats
		opts.Strategy = core.All{}
		// The plan arrives pre-computed ("hand-coded to a Jaql
		// script"); no optimizer time is charged at runtime.
		opts.OptTimePerExpr = 0
	case VariantBestStatic:
		sc := NewStatsCatalog(env, cat)
		opts.Reoptimize = false
		opts.DisablePilotRuns = true
		opts.Strategy = core.All{}
		opts.OptTimePerExpr = 0
		opts.PrepareStats = func(block *plan.JoinBlock) error {
			return sc.oracleStats(block, env.Reg)
		}
		opts.Planner = func(block *plan.JoinBlock, cfg optimizer.Config) (plan.Node, int, error) {
			tree, err := bestLeftDeep(block, cfg)
			return tree, 0, err
		}
	default:
		return nil, fmt.Errorf("baselines: unknown variant %q", v)
	}
	return core.NewEngine(env, cat, optCfg, opts), nil
}
