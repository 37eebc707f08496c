// Package experiments regenerates every table and figure of the
// paper's evaluation (§6). Each experiment returns a Table whose rows
// mirror the paper's series; absolute numbers are deterministic
// virtual-clock seconds from the cluster simulator, so the comparisons
// of interest are the ratios and orderings.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/optimizer"
	"dyno/internal/tpch"
)

// Config controls the experiment environment.
type Config struct {
	// Scale multiplies the generated row counts (virtual byte volumes
	// stay at SF × 1 GB regardless). The default 0.25 regenerates the
	// paper's shapes in seconds per measurement; benchmarks may lower
	// it further.
	Scale float64
	// Seed fixes data generation.
	Seed int64
	// UDF parameters; zero value uses the defaults of §6.1.
	UDF tpch.UDFParams
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config { return Config{Scale: 0.25, Seed: 2014, UDF: tpch.DefaultUDFParams()} }

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 2014
	}
	if c.UDF == (tpch.UDFParams{}) {
		c.UDF = tpch.DefaultUDFParams()
	}
	return c
}

// lab caches one generated dataset per (SF, Scale, Seed); measurements
// share the base tables but get fresh cluster clocks and registries.
type lab struct {
	fs  *dfs.FS
	cat *jaql.Catalog
}

var (
	labMu   sync.Mutex
	labPool = map[string]*lab{}
)

func getLab(sf float64, cfg Config) (*lab, error) {
	labMu.Lock()
	defer labMu.Unlock()
	key := fmt.Sprintf("%g/%g/%d", sf, cfg.Scale, cfg.Seed)
	if l, ok := labPool[key]; ok {
		return l, nil
	}
	fs := dfs.New()
	cat, err := tpch.Generate(fs, tpch.Config{SF: sf, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	l := &lab{fs: fs, cat: cat}
	labPool[key] = l
	return l, nil
}

// setup is everything a measurement sets besides its data: the
// engine's options, the optimizer's configuration, the simulated
// cluster, and whether the runtime is the Hive profile (broadcast
// builds shipped once per node through the distributed cache).
type setup struct {
	opts    core.Options
	opt     optimizer.Config
	cluster cluster.Config
	hive    bool
}

// defaults is the setup every experiment starts from: the paper's
// cluster, the optimizer's broadcast bound derived from that cluster's
// slot memory, and the engine's default options.
func defaults() setup {
	s := setup{opts: core.DefaultOptions(), cluster: cluster.DefaultConfig()}
	s.opt = optimizer.DefaultConfig(float64(s.cluster.SlotMemory))
	return s
}

// newEngine builds a variant's engine over a fresh environment (its own
// cluster clock and UDF registry) on the (sf, cfg) lab's storage, with
// defaults adjusted by tweak when non-nil. Every measurement is one
// such engine: an experiment differs from another only by its tweak.
func newEngine(v baselines.Variant, sf float64, cfg Config, tweak func(*setup)) (*core.Engine, *mapreduce.Env, error) {
	l, err := getLab(sf, cfg)
	if err != nil {
		return nil, nil, err
	}
	s := defaults()
	if tweak != nil {
		tweak(&s)
	}
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, cfg.UDF)
	env := &mapreduce.Env{FS: l.fs, Sim: cluster.New(s.cluster), Reg: reg, DistributedCache: s.hive}
	eng, err := baselines.NewEngine(v, env, l.cat, s.opt, s.opts)
	return eng, env, err
}

// run executes one named query on a newEngine and returns its result
// and environment.
func run(v baselines.Variant, sf float64, cfg Config, query string, tweak func(*setup)) (*core.Result, *mapreduce.Env, error) {
	eng, env, err := newEngine(v, sf, cfg, tweak)
	if err != nil {
		return nil, nil, err
	}
	res, err := eng.ExecuteSQL(tpch.MustQuerySQL(query))
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s SF%g: %w", v, query, sf, err)
	}
	return res, env, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
