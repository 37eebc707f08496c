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

	// parallelism, when positive, sets the cluster simulator's
	// wall-clock worker pool (1 runs every wave inline on the scheduler
	// goroutine); 0 keeps the simulator default (GOMAXPROCS).
	// Virtual-time results are identical either way; the executor
	// differential tests pin it.
	parallelism int
	// faults, set by the faults experiment, injects one fault profile
	// on its small cluster.
	faults *faultProfile
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

// clusterConfig resolves the simulator configuration for a Config.
func (c Config) clusterConfig() cluster.Config {
	ccfg := cluster.DefaultConfig()
	if c.parallelism > 0 {
		ccfg.Parallelism = c.parallelism
	}
	if p := c.faults; p != nil {
		ccfg.Workers = faultsWorkers
		ccfg.MapSlotsPerWorker = faultsMapSlotsPerWorker
		ccfg.ReduceSlotsPerWorker = faultsRedSlotsPerWorker
		ccfg.FailEveryN = p.FailEveryN
		ccfg.FailurePenalty = p.FailurePenalty
		ccfg.StragglerEveryN = p.StragglerEveryN
		ccfg.SlowdownFactor = p.SlowdownFactor
		ccfg.SpeculativeBeta = p.SpeculativeBeta
	}
	return ccfg
}

// newEnv builds a fresh measurement environment over a lab's storage.
func (l *lab) newEnv(hiveProfile bool, cfg Config) *mapreduce.Env {
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, cfg.UDF)
	return &mapreduce.Env{
		FS:               l.fs,
		Sim:              cluster.New(cfg.clusterConfig()),
		Reg:              reg,
		DistributedCache: hiveProfile,
	}
}

// measurement captures one query execution.
type measurement struct {
	res *core.Result
	env *mapreduce.Env
}

// runVariant executes one named query under a comparison variant.
func runVariant(v baselines.Variant, sf float64, cfg Config, query string,
	hiveProfile bool, tweak func(*core.Options)) (*measurement, error) {
	return runVariantFull(v, sf, cfg, query, hiveProfile, tweak, nil)
}

// optCfgFor derives the optimizer configuration for an environment.
func optCfgFor(env *mapreduce.Env) optimizer.Config {
	return optimizer.DefaultConfig(float64(env.Sim.Config().SlotMemory))
}

// newEngine builds a variant's engine over a fresh environment on the
// (sf, cfg) lab, with experimentOptions and optCfgFor, each adjusted by
// its tweak when non-nil.
func newEngine(v baselines.Variant, sf float64, cfg Config, hiveProfile bool,
	tweak func(*core.Options), optTweak func(*optimizer.Config)) (*core.Engine, *mapreduce.Env, error) {
	l, err := getLab(sf, cfg)
	if err != nil {
		return nil, nil, err
	}
	env := l.newEnv(hiveProfile, cfg)
	opts := experimentOptions()
	if tweak != nil {
		tweak(&opts)
	}
	optCfg := optCfgFor(env)
	if optTweak != nil {
		optTweak(&optCfg)
	}
	eng, err := baselines.NewEngine(v, env, l.cat, optCfg, opts)
	return eng, env, err
}

// runVariantFull additionally lets callers tweak the optimizer
// configuration (ablations toggle individual rules).
func runVariantFull(v baselines.Variant, sf float64, cfg Config, query string,
	hiveProfile bool, tweak func(*core.Options), optTweak func(*optimizer.Config)) (*measurement, error) {
	eng, env, err := newEngine(v, sf, cfg, hiveProfile, tweak, optTweak)
	if err != nil {
		return nil, err
	}
	sql, err := tpch.QuerySQL(query)
	if err != nil {
		return nil, err
	}
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		return nil, fmt.Errorf("%s/%s SF%g: %w", v, query, sf, err)
	}
	return &measurement{res: res, env: env}, nil
}

// experimentOptions returns the engine options used by every
// experiment. The pilot sample target k is scaled to the reduced row
// counts of the generated data (the paper's k=1024 was chosen against
// billions of rows; what matters is that the sample stays a small
// fraction of each table while large enough for stable estimates).
func experimentOptions() core.Options {
	opts := core.DefaultOptions()
	opts.K = 256
	opts.KMVSize = 512
	return opts
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
