// Command dynobench regenerates the paper's evaluation tables and
// figures (§6) on the simulated cluster and prints them in the paper's
// layout.
//
// Usage:
//
//	dynobench -exp all
//	dynobench -exp fig7 -scale 0.25
//	dynobench -exp table1,fig6 -seed 2014
//	dynobench -exp fig7 -cpuprofile cpu.prof -memprofile mem.prof
//
// Every number it prints is virtual time from the cluster simulator;
// host wall-clock is measured by the benchmark in bench/ and nowhere
// else.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dyno/internal/experiments"
)

func main() {
	os.Exit(run())
}

var (
	exp        = flag.String("exp", "all", "experiments to run, comma-separated: "+strings.Join(experimentNames(), ", ")+", or all")
	scale      = flag.Float64("scale", 0.25, "row-count multiplier (virtual data volume stays at SF x 1 GB)")
	seed       = flag.Int64("seed", 2014, "data generation seed")
	faultsOut  = flag.String("faultsout", "BENCH_faults.json", "file for the faults experiment's raw sweep points (JSON)")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

func run() int {
	flag.Parse()

	// Validate before any profile starts: a misspelt or retired name
	// must fail the whole invocation, not quietly run less.
	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name != "all" && !knownExperiment(name) {
			fmt.Fprintf(os.Stderr, "dynobench: unknown experiment %q in -exp=%s (valid: %s, all)\n",
				name, *exp, strings.Join(experimentNames(), ", "))
			return 2
		}
		want[name] = true
	}

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

	for _, e := range experimentList {
		if !want["all"] && !want[e.name] {
			continue
		}
		if err := e.run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "dynobench: %s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
}

// experiment is one -exp value: run prints its tables to stdout.
type experiment struct {
	name string
	run  func(experiments.Config) error
}

// experimentList is the one ordered list of experiments: -exp is
// validated against it, the flag's help text is generated from it,
// and -exp all prints in this order.
var experimentList = []experiment{
	{"table1", table(experiments.Table1)},
	{"fig2", planEvolution("FIG2", experiments.Figure2Plans)},
	{"fig3", planEvolution("FIG3", experiments.Figure3Plans)},
	{"fig4", table(experiments.Figure4)},
	{"fig5", table(experiments.Figure5)},
	{"fig6", table(experiments.Figure6)},
	{"fig7", table(experiments.Figure7)},
	{"fig8", table(experiments.Figure8)},
	{"faults", faults},
	{"ablations", ablations},
}

func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
}

func knownExperiment(name string) bool {
	for _, e := range experimentList {
		if e.name == name {
			return true
		}
	}
	return false
}

func table(f func(experiments.Config) (*experiments.Table, error)) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		t, err := f(cfg)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	}
}

func planEvolution(label string, f func(experiments.Config) (*experiments.PlanEvolution, error)) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		ev, err := f(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%s plan evolution)\n%s\n", label, ev.Query, ev)
		return nil
	}
}

// faults also writes the raw sweep points to -faultsout.
func faults(cfg experiments.Config) error {
	points, err := experiments.MeasureFaults(cfg)
	if err != nil {
		return err
	}
	fmt.Println(experiments.FaultsTable(points))
	if *faultsOut == "" {
		return nil
	}
	blob, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*faultsOut, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("faults sweep points written to %s\n\n", *faultsOut)
	return nil
}

func ablations(cfg experiments.Config) error {
	ts, err := experiments.Ablations(cfg)
	if err != nil {
		return err
	}
	for _, t := range ts {
		fmt.Println(t)
	}
	return nil
}
