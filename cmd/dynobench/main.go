// Command dynobench regenerates the paper's evaluation tables and
// figures (§6) on the simulated cluster and prints them in the paper's
// layout.
//
// Usage:
//
//	dynobench -exp all
//	dynobench -exp fig7 -scale 0.25
//	dynobench -exp table1,fig6 -seed 2014
//
// Every number it prints is virtual time from the cluster simulator;
// host wall-clock is measured by the benchmark in bench/ and nowhere
// else.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"dyno/internal/experiments"
)

var (
	exp   = flag.String("exp", "all", "experiments to run, comma-separated: "+strings.Join(experimentNames(), ", ")+", or all")
	scale = flag.Float64("scale", 0.25, "row-count multiplier (virtual data volume stays at SF x 1 GB)")
	seed  = flag.Int64("seed", 2014, "data generation seed")
)

func main() {
	flag.Parse()

	// Validate before anything runs: a misspelt or retired name must
	// fail the whole invocation, not quietly run less.
	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		if name != "all" && !slices.Contains(experimentNames(), name) {
			fmt.Fprintf(os.Stderr, "dynobench: unknown experiment %q in -exp=%s (valid: %s, all)\n",
				name, *exp, strings.Join(experimentNames(), ", "))
			os.Exit(2)
		}
		want[name] = true
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
			os.Exit(1)
		}
	}
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
	{"faults", table(experiments.Faults)},
	{"ablations", ablations},
}

func experimentNames() []string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return names
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
