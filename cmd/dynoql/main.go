// Command dynoql executes a query on the simulated cluster under one
// of the paper's optimizer variants and shows what DYNO did: the pilot
// runs, the plan chosen at each (re-)optimization point, the MapReduce
// jobs with their virtual timings, and a sample of the result.
//
// Usage:
//
//	dynoql -query Q8p -variant DYNOPT -sf 100
//	dynoql -sql "SELECT c.c_name FROM customer c LIMIT 5" -sf 10
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/optimizer"
	"dyno/internal/runtime"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/tpch"
)

func main() {
	var (
		queryName = flag.String("query", "Q8p", "named evaluation query (Q2, Q7, Q8p, Q9p, Q10)")
		sqlText   = flag.String("sql", "", "raw SQL (overrides -query)")
		variant   = flag.String("variant", "DYNOPT", "BESTSTATIC | RELOPT | DYNOPT-SIMPLE | DYNOPT")
		sf        = flag.Float64("sf", 100, "scale factor")
		scale     = flag.Float64("scale", 0.25, "row-count multiplier")
		seed      = flag.Int64("seed", 2014, "generation seed")
		hiveMode  = flag.Bool("hive", false, "use the Hive runtime profile (distributed-cache broadcasts)")
		strategy  = flag.String("strategy", "UNC-1", "leaf-job strategy: UNC-1 | UNC-2 | CHEAP-1 | CHEAP-2 | SO | MO")
		showJobs  = flag.Bool("jobs", true, "print per-job virtual timings")
		pushdown  = flag.Bool("pushdown", false, "enable projection pushdown")
		dynJoin   = flag.Bool("dynamic-join", false, "enable the runtime repartition-to-broadcast switch")
		combiner  = flag.Bool("combiner", false, "enable map-side partial aggregation for the grouping job")
		maxRows   = flag.Int("rows", 10, "result rows to print")

		runtimeName = flag.String("runtime", "sim", "execution backend: sim (in-process simulator) | proc (dynoworker processes)")
		ctrlAddr    = flag.String("controller-addr", "127.0.0.1:0", "proc backend: controller listen address for worker registration")
		minWorkers  = flag.Int("min-workers", 1, "proc backend: workers to wait for before executing")
		workerWait  = flag.Duration("worker-wait", 60*time.Second, "proc backend: how long to wait for -min-workers")
	)
	flag.Parse()

	sql := *sqlText
	if sql == "" {
		var err error
		sql, err = tpch.QuerySQL(*queryName)
		if err != nil {
			usage(fmt.Sprintf("unknown query %q; valid names: %s",
				*queryName, strings.Join(tpch.QueryNames, ", ")))
		}
	}
	if _, err := baselines.ParseVariant(*variant); err != nil {
		usage(err.Error())
	}
	strat, err := core.ParseStrategy(*strategy)
	if err != nil {
		usage(err.Error())
	}

	ccfg := cluster.DefaultConfig()
	var rt runtime.Runtime
	var procFleet *procruntime.Fleet
	switch *runtimeName {
	case "sim":
		rt = simruntime.New(ccfg)
	case "proc":
		fleet, err := procruntime.NewFleet(procruntime.Config{
			Addr: *ctrlAddr,
			Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			fail(err)
		}
		defer fleet.Close()
		fmt.Fprintf(os.Stderr, "dynoql: proc controller listening at %s (start workers with: dynoworker -controller %s)\n",
			fleet.URL(), fleet.URL())
		if *minWorkers > 0 {
			if err := fleet.WaitForWorkers(*minWorkers, *workerWait); err != nil {
				fail(err)
			}
		}
		rt = procruntime.New(fleet, ccfg)
		procFleet = fleet
	default:
		usage(fmt.Sprintf("unknown -runtime %q (sim | proc)", *runtimeName))
	}
	defer rt.Close()
	cat, err := tpch.Generate(rt.FS(), tpch.Config{SF: *sf, Scale: *scale, Seed: *seed})
	if err != nil {
		fail(err)
	}
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, tpch.DefaultUDFParams())
	env := rt.NewEnv(reg)
	env.UseCombiner = *combiner
	env.DistributedCache = *hiveMode
	optCfg := optimizer.DefaultConfig(float64(ccfg.SlotMemory))

	if *showJobs {
		ready := map[string]float64{}
		env.Sim.SetTrace(func(ev cluster.TraceEvent) {
			switch ev.Kind {
			case "job-ready":
				ready[ev.Job] = ev.Time
			case "job-done", "job-failed":
				fmt.Printf("  job %-24s t=%8.1fs dur=%7.1fs %s\n",
					ev.Job, ev.Time, ev.Time-ready[ev.Job], ev.Kind)
			}
		})
	}

	opts := core.DefaultOptions()
	opts.K = 256
	opts.KMVSize = 512
	opts.ProjectionPushdown = *pushdown
	opts.DynamicJoin = *dynJoin
	opts.Strategy = strat
	eng, err := baselines.NewEngine(baselines.Variant(*variant), env, cat, optCfg, opts)
	if err != nil {
		fail(err)
	}
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		fail(err)
	}

	fmt.Printf("\n%s on SF=%g (%s profile)\n", *variant, *sf, profileName(*hiveMode))
	if res.Pilot != nil {
		fmt.Printf("pilot runs (%s): %d jobs, %d reused, %d inputs fully consumed, %.1fs\n",
			res.Pilot.Mode, res.Pilot.Jobs, res.Pilot.Reused, res.Pilot.Consumed, res.PilotSec)
	}
	for i, it := range res.Evolution {
		changed := ""
		if it.PlanChanged {
			changed = "   <-- plan changed"
		}
		fmt.Printf("\nplan%d (jobs: %v)%s\n%s", i+1, it.JobsRun, changed, it.Plan)
	}
	fmt.Printf("\ntotal %.1fs virtual  (pilot %.1fs, optimize %.2fs, %d jobs: %d map-only, %d map-reduce, %d switched, %d plan changes)\n",
		res.TotalSec, res.PilotSec, res.OptimizeSec, res.Jobs, res.MapOnlyJobs, res.MapReduceJobs, res.SwitchedJobs, res.PlanChanges)
	fmt.Printf("\n%d result rows:\n%s", len(res.Rows), jaql.FormatRows(res.Rows, *maxRows))
	if procFleet != nil {
		// Stderr, not stdout: CI byte-diffs stdout against the sim run.
		st := procFleet.WireStats()
		fmt.Fprintf(os.Stderr, "dynoql: wire stats rpcs=%d tasks=%d bytesOut=%d bytesIn=%d peerShuffleBytes=%d peerFetches=%d\n",
			st.RPCs, st.Tasks, st.BytesOut, st.BytesIn, st.PeerShuffleBytes, st.PeerFetches)
	}
}

func profileName(hive bool) string {
	if hive {
		return "Hive"
	}
	return "Jaql"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dynoql:", err)
	os.Exit(1)
}

// usage reports a bad flag value, lists the valid choices, and exits
// with a distinct status so scripts can tell misuse from run failures.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "dynoql:", msg)
	fmt.Fprintf(os.Stderr, "  queries:    %s (or pass raw SQL with -sql)\n", strings.Join(tpch.QueryNames, ", "))
	fmt.Fprintf(os.Stderr, "  variants:   %s\n", joinVariants())
	fmt.Fprintf(os.Stderr, "  strategies: %s\n", strings.Join(core.StrategyNames, ", "))
	os.Exit(2)
}

func joinVariants() string {
	names := make([]string, len(baselines.Variants))
	for i, v := range baselines.Variants {
		names[i] = string(v)
	}
	return strings.Join(names, ", ")
}
