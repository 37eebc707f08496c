package baselines

import (
	"fmt"
	"sync"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/plan"
	"dyno/internal/stats"
)

// histogramBuckets is the equi-depth resolution RELOPT's statistics use.
const histogramBuckets = 64

// tableProfile holds the full pre-collected statistics for one table.
type tableProfile struct {
	card    float64
	avgSize float64
	ndv     map[string]float64
	hist    map[string]*histogram
}

// StatsCatalog computes and caches full-scan base-table statistics —
// what a DBMS collects with RUNSTATS before the query arrives. The scan
// is harness-side (it is "prior to query execution" in the paper) and
// charges no virtual time.
type StatsCatalog struct {
	env *mapreduce.Env
	cat *jaql.Catalog

	mu       sync.Mutex
	profiles map[string]*tableProfile
}

// NewStatsCatalog wraps a catalog with statistics collection.
func NewStatsCatalog(env *mapreduce.Env, cat *jaql.Catalog) *StatsCatalog {
	return &StatsCatalog{env: env, cat: cat, profiles: make(map[string]*tableProfile)}
}

// profile computes (once) the table's statistics over all columns.
func (sc *StatsCatalog) profile(table string) (*tableProfile, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if p, ok := sc.profiles[table]; ok {
		return p, nil
	}
	f, ok := sc.cat.Lookup(table)
	if !ok {
		return nil, fmt.Errorf("baselines: unknown table %q", table)
	}
	p := &tableProfile{
		ndv:  map[string]float64{},
		hist: map[string]*histogram{},
	}
	colValues := map[string][]data.Value{}
	distinct := map[string]map[uint64]bool{}
	var bytes int64
	for _, rec := range f.AllRecords() {
		p.card++
		bytes += rec.EncodedSize() + 1
		for _, fl := range rec.Fields() {
			if fl.Value.IsNull() {
				continue
			}
			col := fl.Name
			colValues[col] = append(colValues[col], fl.Value)
			d, ok := distinct[col]
			if !ok {
				d = map[uint64]bool{}
				distinct[col] = d
			}
			d[data.Hash64(fl.Value)] = true
		}
	}
	if p.card > 0 {
		p.avgSize = float64(bytes) / p.card * sc.env.FS.ByteScale()
	}
	for col, d := range distinct {
		p.ndv[col] = float64(len(d))
	}
	for col, vals := range colValues {
		p.hist[col] = buildHistogram(vals, histogramBuckets)
	}
	sc.profiles[table] = p
	return p, nil
}

// LeafStats derives a leaf expression's statistics the way a static
// optimizer does: full-table statistics, per-conjunct selectivities
// (histograms for ranges, 1/NDV for equalities), combined under the
// independence assumption, with selectivity 1 for UDFs (RELOPT "does
// not have enough information to estimate selectivity of UDFs").
func (sc *StatsCatalog) LeafStats(leaf *plan.Leaf) (stats.TableStats, error) {
	p, err := sc.profile(leaf.Table)
	if err != nil {
		return stats.TableStats{}, err
	}
	sel := 1.0
	for _, conj := range expr.SplitConjuncts(leaf.Pred) {
		sel *= sc.selectivity(p, leaf.Alias, conj)
	}
	card := max(p.card*sel, 1)
	// Scans wrap records as {alias: rec}, so runtime rows are slightly
	// larger than the raw table records.
	wrapOverhead := float64(len(leaf.Alias)+5) * sc.env.FS.ByteScale()
	ts := stats.TableStats{
		Card:       card,
		AvgRecSize: p.avgSize + wrapOverhead,
		Cols:       make(map[string]stats.ColStats, len(p.ndv)),
	}
	for col, ndv := range p.ndv {
		ts.Cols[leaf.Alias+"."+col] = stats.ColStats{NDV: min(ndv, card)}
	}
	return ts, nil
}

// selectivity estimates one predicate's selectivity from the profile.
func (sc *StatsCatalog) selectivity(p *tableProfile, alias string, e expr.Expr) float64 {
	switch x := e.(type) {
	case *expr.Cmp:
		col, lit, op, ok := normalizeCmp(x, alias)
		if !ok {
			return defaultSel
		}
		h := p.hist[col]
		ndv := p.ndv[col]
		switch op {
		case expr.EQ:
			if ndv > 0 {
				return 1 / ndv
			}
			return defaultSel
		case expr.NE:
			if ndv > 0 {
				return clamp01(1 - 1/ndv)
			}
			return defaultSel
		case expr.LT:
			if h != nil {
				return clampSel(h.fractionLT(lit))
			}
		case expr.LE:
			if h != nil {
				return clampSel(h.fractionLE(lit))
			}
		case expr.GT:
			if h != nil {
				return clampSel(h.fractionGT(lit))
			}
		case expr.GE:
			if h != nil {
				return clampSel(h.fractionGE(lit))
			}
		}
		return defaultSel
	case *expr.And:
		// Independence assumption: multiply.
		sel := 1.0
		for _, t := range x.Terms {
			sel *= sc.selectivity(p, alias, t)
		}
		return sel
	case *expr.Or:
		keep := 1.0
		for _, t := range x.Terms {
			keep *= 1 - sc.selectivity(p, alias, t)
		}
		return clamp01(1 - keep)
	case *expr.Not:
		return clamp01(1 - sc.selectivity(p, alias, x.E))
	case *expr.Call:
		// Opaque UDF: assume it keeps everything.
		return 1.0
	default:
		return defaultSel
	}
}

// defaultSel is the textbook fallback selectivity for predicates the
// optimizer cannot analyze.
const defaultSel = 1.0 / 3

func clampSel(s float64) float64 { return min(max(s, 1e-6), 1) }

// normalizeCmp extracts (column, literal, op) from a comparison in
// either orientation, requiring the column to belong to the alias.
func normalizeCmp(c *expr.Cmp, alias string) (col string, lit data.Value, op expr.CmpOp, ok bool) {
	if cl, isCol := c.L.(*expr.Col); isCol {
		if l, isLit := c.R.(*expr.Lit); isLit && cl.Path.Head() == alias {
			return lastComponent(cl.Path), l.V, c.Op, true
		}
	}
	if cr, isCol := c.R.(*expr.Col); isCol {
		if l, isLit := c.L.(*expr.Lit); isLit && cr.Path.Head() == alias {
			return lastComponent(cr.Path), l.V, c.Op.Flip(), true
		}
	}
	return "", data.Null(), 0, false
}

func lastComponent(p data.Path) string {
	last := p[len(p)-1]
	if last.IsIndex {
		return ""
	}
	return last.Name
}

// prepareStats returns a hook for core.Options.PrepareStats that
// attaches statically derived statistics to every base relation.
func (sc *StatsCatalog) prepareStats(block *plan.JoinBlock) error {
	for _, rel := range block.Rels {
		if !rel.IsBase() {
			continue
		}
		ts, err := sc.LeafStats(rel.Leaf)
		if err != nil {
			return err
		}
		rel.Stats = ts
	}
	return nil
}

// oracleStats attaches *true* filtered statistics to the block's base
// relations by actually evaluating each leaf expression (the harness's
// stand-in for "the human measured every alternative" when selecting
// the best static plan).
func (sc *StatsCatalog) oracleStats(block *plan.JoinBlock, reg *expr.Registry) error {
	for _, rel := range block.Rels {
		if !rel.IsBase() {
			continue
		}
		f, ok := sc.cat.Lookup(rel.Leaf.Table)
		if !ok {
			return fmt.Errorf("baselines: unknown table %q", rel.Leaf.Table)
		}
		var paths []data.Path
		for _, rec := range f.AllRecords() {
			for _, fl := range rec.Fields() {
				paths = append(paths, data.Path{{Name: rel.Leaf.Alias}, {Name: fl.Name}})
			}
			break
		}
		col := stats.NewCollector(paths, stats.DefaultKMVSize)
		ectx := &expr.Ctx{Reg: reg}
		for _, rec := range f.AllRecords() {
			col.ObserveInputs(1)
			row := data.ObjectFromSorted([]data.Field{{Name: rel.Leaf.Alias, Value: rec}})
			if rel.Leaf.Pred != nil && !rel.Leaf.Pred.Eval(ectx, row).Truthy() {
				continue
			}
			col.ObserveOutput(row, sc.env.VirtualSize(row))
		}
		if ectx.Err != nil {
			return ectx.Err
		}
		rel.Stats = col.Partial().Exact()
	}
	return nil
}
