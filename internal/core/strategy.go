// Package core implements DYNO itself: the PILR pilot-run algorithm
// (§4, Algorithm 1) and the DYNOPT dynamic execution loop (§5,
// Algorithm 2) with its execution strategies (§5.3), on top of the
// compiler, optimizer, and MapReduce substrates.
package core

import (
	"fmt"
	"sort"
	"strings"

	"dyno/internal/jaql"
)

// StrategyNames lists the valid strategy names in the order the paper
// introduces them (§5.3).
var StrategyNames = []string{"UNC-1", "UNC-2", "CHEAP-1", "CHEAP-2", "SO", "MO"}

// ParseStrategy resolves a strategy by its §5.3 name; the error for an
// unknown name lists the valid ones.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "UNC-1":
		return Uncertain{N: 1}, nil
	case "UNC-2":
		return Uncertain{N: 2}, nil
	case "CHEAP-1":
		return Cheap{N: 1}, nil
	case "CHEAP-2":
		return Cheap{N: 2}, nil
	case "SO":
		return One{}, nil
	case "MO":
		return All{}, nil
	}
	return nil, fmt.Errorf("core: unknown strategy %q (valid: %s)", name, strings.Join(StrategyNames, " | "))
}

// Strategy selects which ready leaf jobs to execute next (§5.3). The
// two dimensions are priority (cost or uncertainty) and how many jobs
// run at a time.
type Strategy interface {
	Name() string
	Pick(ready []*jaql.Unit) []*jaql.Unit
}

// Cheap executes the N cheapest leaf jobs first, reaching
// re-optimization points as soon as possible.
type Cheap struct{ N int }

// Name implements Strategy.
func (s Cheap) Name() string {
	if s.N <= 1 {
		return "CHEAP-1"
	}
	return "CHEAP-2"
}

// Pick implements Strategy.
func (s Cheap) Pick(ready []*jaql.Unit) []*jaql.Unit {
	sorted := append([]*jaql.Unit(nil), ready...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return sorted[a].EstCost < sorted[b].EstCost
	})
	return take(sorted, s.N)
}

// Uncertain executes the most uncertain leaf jobs first (uncertainty =
// number of joins in the job, since estimation error grows
// exponentially with join count [Ioannidis & Christodoulakis 1991]),
// gathering actual statistics about them early so re-optimization can
// fix the remaining plan.
type Uncertain struct{ N int }

// Name implements Strategy.
func (s Uncertain) Name() string {
	if s.N <= 1 {
		return "UNC-1"
	}
	return "UNC-2"
}

// Pick implements Strategy: most uncertain first, cheapest among
// equally uncertain (the paper's UNC-2 runs "the two cheapest most
// uncertain" jobs).
func (s Uncertain) Pick(ready []*jaql.Unit) []*jaql.Unit {
	sorted := append([]*jaql.Unit(nil), ready...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Uncertainty != sorted[b].Uncertainty {
			return sorted[a].Uncertainty > sorted[b].Uncertainty
		}
		return sorted[a].EstCost < sorted[b].EstCost
	})
	return take(sorted, s.N)
}

// One runs a single leaf job at a time in graph order
// (DYNOPT-SIMPLE_SO).
type One struct{}

// Name implements Strategy.
func (One) Name() string { return "SO" }

// Pick implements Strategy.
func (One) Pick(ready []*jaql.Unit) []*jaql.Unit { return take(ready, 1) }

// All runs every ready leaf job simultaneously (DYNOPT-SIMPLE_MO).
type All struct{}

// Name implements Strategy.
func (All) Name() string { return "MO" }

// Pick implements Strategy.
func (All) Pick(ready []*jaql.Unit) []*jaql.Unit { return ready }

func take(units []*jaql.Unit, n int) []*jaql.Unit {
	if n = max(n, 1); len(units) > n {
		units = units[:n]
	}
	return units
}
