package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dyno/internal/baselines"
)

// HotpathBenchEntry is one query's wall-clock comparison of the
// execution arms under the serial executor, so the measurement
// isolates per-record cost rather than scheduling: the columnar batch
// arm (the default), the compiled fast path with batching disabled
// (PR 4's configuration), and the legacy per-record path. VirtualSec
// is the simulated query time, asserted equal across all three arms
// (the accelerators must not change what the engine computes, only how
// fast the host computes it).
type HotpathBenchEntry struct {
	Name         string  `json:"name"`
	Query        string  `json:"query"`
	SF           float64 `json:"sf"`
	BatchSec     float64 `json:"batch_sec"`
	FastSec      float64 `json:"fast_sec"`
	LegacySec    float64 `json:"legacy_sec"`
	Speedup      float64 `json:"speedup"`       // legacy_sec / fast_sec
	BatchSpeedup float64 `json:"batch_speedup"` // fast_sec / batch_sec
	VirtualSec   float64 `json:"virtual_sec"`
}

// HotpathBenchReport is the machine-readable output of HotpathBench
// (written to BENCH_batch.json by cmd/dynobench -batchbench).
type HotpathBenchReport struct {
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Scale      float64             `json:"scale"`
	Seed       int64               `json:"seed"`
	Repeats    int                 `json:"repeats"`
	Entries    []HotpathBenchEntry `json:"entries"`
}

// HotpathBench measures wall-clock time of representative DYNOPT
// executions across the three execution arms: batch (fast path +
// columnar batching, the default), fast (Config.DisableBatch — PR 4's
// fast path alone), and legacy (Config.DisableFastPath — the
// per-record baseline). Each query runs `repeats` times per arm and
// keeps the best time. All arms run serially so the ratios reflect
// per-record execution cost only.
func HotpathBench(cfg Config, repeats int) (*HotpathBenchReport, error) {
	cfg = cfg.normalized()
	if repeats < 1 {
		repeats = 1
	}
	rep := &HotpathBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		Repeats:    repeats,
	}
	scenarios := []struct {
		name, query string
		sf          float64
	}{
		{"hotpath-q8p", "Q8p", 100},
		{"hotpath-q9p", "Q9p", 100},
		{"hotpath-q10", "Q10", 100},
	}
	// Warm the dataset cache so generation cost stays out of the
	// measurements (all arms share the lab).
	if _, err := getLab(100, cfg); err != nil {
		return nil, err
	}
	measure := func(c Config, query string, sf float64) (wall, virtual float64, err error) {
		wall = math.Inf(1)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			m, err := runVariant(baselines.VariantDynOpt, sf, c, query, false, nil)
			if err != nil {
				return 0, 0, err
			}
			if el := time.Since(start).Seconds(); el < wall {
				wall = el
			}
			virtual = m.res.TotalSec
		}
		return wall, virtual, nil
	}
	for _, sc := range scenarios {
		batchCfg := cfg
		batchCfg.Parallelism = -1
		batchCfg.DisableFastPath = false
		batchCfg.DisableBatch = false
		fastCfg := batchCfg
		fastCfg.DisableBatch = true
		legacyCfg := fastCfg
		legacyCfg.DisableFastPath = true
		bWall, bVirt, err := measure(batchCfg, sc.query, sc.sf)
		if err != nil {
			return nil, fmt.Errorf("experiments: hotpath %s batch: %w", sc.name, err)
		}
		fWall, fVirt, err := measure(fastCfg, sc.query, sc.sf)
		if err != nil {
			return nil, fmt.Errorf("experiments: hotpath %s fast: %w", sc.name, err)
		}
		lWall, lVirt, err := measure(legacyCfg, sc.query, sc.sf)
		if err != nil {
			return nil, fmt.Errorf("experiments: hotpath %s legacy: %w", sc.name, err)
		}
		if fVirt != lVirt || bVirt != lVirt {
			return nil, fmt.Errorf("experiments: hotpath %s: virtual time diverged (batch %v, fast %v, legacy %v)",
				sc.name, bVirt, fVirt, lVirt)
		}
		speedup := 0.0
		if fWall > 0 {
			speedup = lWall / fWall
		}
		batchSpeedup := 0.0
		if bWall > 0 {
			batchSpeedup = fWall / bWall
		}
		rep.Entries = append(rep.Entries, HotpathBenchEntry{
			Name:         sc.name,
			Query:        sc.query,
			SF:           sc.sf,
			BatchSec:     bWall,
			FastSec:      fWall,
			LegacySec:    lWall,
			Speedup:      speedup,
			BatchSpeedup: batchSpeedup,
			VirtualSec:   fVirt,
		})
	}
	return rep, nil
}
