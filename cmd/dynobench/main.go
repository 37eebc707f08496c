// Command dynobench regenerates the paper's evaluation tables and
// figures (§6) on the simulated cluster and prints them in the paper's
// layout.
//
// Usage:
//
//	dynobench -exp all
//	dynobench -exp fig7 -scale 0.25
//	dynobench -exp table1,fig6 -seed 2014
//	dynobench -exp optbench -optbenchout BENCH_optbench.json
//	dynobench -exp load -load-clients 1,16,256 -load-shards 1,4
//	dynobench -parbench BENCH_parallel.json
//	dynobench -exp fig7 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"dyno/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp         = flag.String("exp", "all", "experiments to run: table1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, faults, ablations, service, optbench, load, all (comma-separated; load is not part of all)")
		scale       = flag.Float64("scale", 0.25, "row-count multiplier (virtual data volume stays at SF x 1 GB)")
		seed        = flag.Int64("seed", 2014, "data generation seed")
		faultsOut   = flag.String("faultsout", "BENCH_faults.json", "file for the faults experiment's raw sweep points (JSON)")
		serviceOut  = flag.String("serviceout", "BENCH_service.json", "file for the service experiment's report (JSON)")
		svcClients  = flag.Int("service-clients", 4, "concurrent clients for the service experiment")
		svcQueries  = flag.Int("service-queries", 3, "queries per client for the service experiment")
		loadOut     = flag.String("loadout", "BENCH_load.json", "file for the load experiment's saturation curves (JSON)")
		loadClients = flag.String("load-clients", "1,4,16,64,256,1024", "comma-separated client-count sweep for the load experiment")
		loadShards  = flag.String("load-shards", "1,4", "comma-separated shard counts to compare in the load experiment")
		loadQueries = flag.Int("load-queries", 20, "queries per client at each load sweep point")
		loadZipf    = flag.Float64("load-zipf", 1.3, "Zipf skew (>1) of the load experiment's query mix")

		optOut     = flag.String("optbenchout", "BENCH_optbench.json", "file for the optbench experiment's report (JSON)")
		optRepeats = flag.Int("optbench-repeats", 3, "runs per arm for optbench; the best wall time is kept")
		parbench   = flag.String("parbench", "", "measure serial vs parallel wall-clock time and write a JSON report to this file (skips -exp)")
		repeats    = flag.Int("parbench-repeats", 3, "runs per mode for -parbench; the best time is kept")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dynobench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dynobench: memprofile: %v\n", err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed

	if *parbench != "" {
		if runtime.GOMAXPROCS(0) == 1 {
			fmt.Fprintln(os.Stderr, "dynobench: warning: GOMAXPROCS=1 — the parallel arm has no extra cores; entries will be marked single_core and speedups are noise")
		}
		rep, err := experiments.ParallelBench(cfg, *repeats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: parbench: %v\n", err)
			return 1
		}
		if err := writeJSON(*parbench, rep); err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: parbench: %v\n", err)
			return 1
		}
		fmt.Printf("parallel bench (GOMAXPROCS=%d) written to %s\n", rep.GOMAXPROCS, *parbench)
		for _, e := range rep.Entries {
			note := ""
			if e.SingleCore {
				note = "  [single-core: speedup is noise]"
			}
			fmt.Printf("  %-18s serial %.3fs  parallel %.3fs  speedup %.2fx%s\n",
				e.Name, e.SerialSec, e.ParallelSec, e.Speedup, note)
		}
		return 0
	}

	type tableExp struct {
		name string
		run  func(experiments.Config) (*experiments.Table, error)
	}
	tables := []tableExp{
		{"table1", experiments.Table1},
		{"fig4", experiments.Figure4},
		{"fig5", experiments.Figure5},
		{"fig6", experiments.Figure6},
		{"fig7", experiments.Figure7},
		{"fig8", experiments.Figure8},
	}
	plans := map[string]func(experiments.Config) (*experiments.PlanEvolution, error){
		"fig2": experiments.Figure2Plans,
		"fig3": experiments.Figure3Plans,
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]

	ran := 0
	if all || want["optbench"] {
		rep, err := experiments.OptBench(*seed, *optRepeats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: optbench: %v\n", err)
			return 1
		}
		fmt.Printf("optimizer bench (GOMAXPROCS=%d, seed %d)\n", rep.GOMAXPROCS, rep.Seed)
		for _, e := range rep.Entries {
			ok := "plans identical"
			if !e.CostsIdentical || !e.PlansIdentical {
				ok = "PLANS DIVERGED"
			}
			fmt.Printf("  %-10s expanded scratch %5d  incremental %5d  pruned %5d  reopt reduction %5.1fx  [%s]\n",
				e.Graph, e.ScratchExpanded, e.IncrementalExpanded, e.PrunedExpanded, e.ReoptReduction, ok)
		}
		if *optOut != "" {
			if err := writeJSON(*optOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "dynobench: optbench: %v\n", err)
				return 1
			}
			fmt.Printf("optbench report written to %s\n\n", *optOut)
		}
		ran++
	}
	if want["load"] { // deliberately not part of "all": the full sweep is long
		if runtime.GOMAXPROCS(0) == 1 {
			fmt.Fprintln(os.Stderr, "dynobench: warning: GOMAXPROCS=1 — concurrent clients and shards share one core; the report will carry single_core and cross-arm throughput is noise")
		}
		clientSweep, err := parseIntList(*loadClients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: load: -load-clients: %v\n", err)
			return 1
		}
		shardArms, err := parseIntList(*loadShards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: load: -load-shards: %v\n", err)
			return 1
		}
		rep, err := experiments.LoadBench(cfg, experiments.LoadOptions{
			Shards:    shardArms,
			Clients:   clientSweep,
			PerClient: *loadQueries,
			ZipfS:     *loadZipf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: load: %v\n", err)
			return 1
		}
		fmt.Printf("load sweep (GOMAXPROCS=%d, zipf s=%.2f over %v, %d queries/client)\n",
			rep.GOMAXPROCS, rep.ZipfS, rep.Mix, rep.PerClient)
		for _, arm := range rep.Arms {
			fmt.Printf("  shards=%d\n", arm.Shards)
			for _, pt := range arm.Points {
				fmt.Printf("    %5d clients  %8.0f q/s  p50 %6.2fms  p95 %6.2fms  p99 %6.2fms  result %3.0f%%  dedup %3.0f%%  plan %3.0f%%  full %d\n",
					pt.Clients, pt.QPS, pt.P50Millis, pt.P95Millis, pt.P99Millis,
					100*pt.ResultHitRate, 100*pt.DedupRate, 100*pt.PlanHitRate, pt.FullRuns)
			}
		}
		if *loadOut != "" {
			if err := writeJSON(*loadOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "dynobench: load: %v\n", err)
				return 1
			}
			fmt.Printf("load report written to %s\n\n", *loadOut)
		}
		ran++
	}
	if all || want["service"] {
		rep, err := experiments.ServiceBench(cfg, *svcClients, *svcQueries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: service: %v\n", err)
			return 1
		}
		fmt.Printf("query service: %d clients x %d queries in %.2fs wall (%.1f q/s)\n",
			rep.Clients, rep.QueriesPerClient, rep.WallSec, rep.QPS)
		fmt.Printf("  latency p50 %.1fms  p95 %.1fms  mean %.1fms\n",
			rep.P50Millis, rep.P95Millis, rep.MeanMillis)
		fmt.Printf("  plan cache %d hits / %d misses (%.0f%%)  stats reuse %d leaves, %d pilot jobs (%.0f%%)\n",
			rep.PlanCacheHits, rep.PlanCacheMisses, 100*rep.PlanHitRate,
			rep.StatsReusedLeaves, rep.PilotJobs, 100*rep.StatsReuseRate)
		if *serviceOut != "" {
			if err := writeJSON(*serviceOut, rep); err != nil {
				fmt.Fprintf(os.Stderr, "dynobench: service: %v\n", err)
				return 1
			}
			fmt.Printf("service report written to %s\n\n", *serviceOut)
		}
		ran++
	}
	if all || want["ablations"] {
		ts, err := experiments.Ablations(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: ablations: %v\n", err)
			return 1
		}
		for _, t := range ts {
			fmt.Println(t)
		}
		ran++
	}
	if all || want["faults"] {
		points, err := experiments.MeasureFaults(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: faults: %v\n", err)
			return 1
		}
		fmt.Println(experiments.FaultsTable(points))
		if *faultsOut != "" {
			if err := writeJSON(*faultsOut, points); err != nil {
				fmt.Fprintf(os.Stderr, "dynobench: faults: %v\n", err)
				return 1
			}
			fmt.Printf("faults sweep points written to %s\n\n", *faultsOut)
		}
		ran++
	}
	for _, te := range tables {
		if !all && !want[te.name] {
			continue
		}
		t, err := te.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: %s: %v\n", te.name, err)
			return 1
		}
		fmt.Println(t)
		ran++
	}
	for name, run := range plans {
		if !all && !want[name] {
			continue
		}
		ev, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("%s (%s plan evolution)\n%s\n", strings.ToUpper(name), ev.Query, ev)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dynobench: nothing matched -exp=%s\n", *exp)
		return 2
	}
	return 0
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("%q is not a positive integer", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// writeJSON marshals v with indentation and writes it to path with a
// trailing newline.
func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
