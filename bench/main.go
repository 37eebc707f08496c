// Command bench is the repository's one benchmark: four seeded
// workloads, the same end-to-end metrics on each, and a traced run
// that attributes time to the layers. See README.md in this directory
// and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the driver's contract,
// exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples counts the observations behind each metric that is a
	// statistic; printed beside the value and kept in the -out report.
	samples map[string]int
}

// report is what -out writes: the result, stamped with everything
// needed to tell two reports apart, plus the spans of a traced run.
type report struct {
	Stamp    stamp             `json:"stamp"`
	Workload string            `json:"workload"`
	Sizes    map[string]any    `json:"sizes"`
	Result   result            `json:"result"`
	Samples  map[string]int    `json:"samples,omitempty"`
	Notes    map[string]string `json:"notes,omitempty"`
	Spans    []span            `json:"spans,omitempty"`
}

type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	NumCPU     int     `json:"numCPU"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func newStamp(seed int64, seconds float64, traced bool) stamp {
	// The toolchain stamps the revision into binaries built inside a
	// git work tree (bench/aa.sh builds that way); a checkout that is
	// not a repository has none to give.
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Traced: traced,
	}
}

// runConfig is one invocation's parameters.
type runConfig struct {
	Seed      int64
	Seconds   float64
	Trace     bool
	SpillRoot string
	// SetupReps is how many times set-up runs; setup_s is the median.
	// Reps repeats each staged-replay stage and kernel probe of the
	// traced run likewise.
	SetupReps, Reps int
	Logf            func(format string, args ...any)
}

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seeds data generation, operation order and query parameters")
	seconds := flag.Float64("seconds", 20, "length of the timed section")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	out := flag.String("out", "", "write the stamped report (and a traced run's spans) to this file")
	compare := flag.String("compare", "", "compare two -out reports, given as base,candidate, against the end-to-end bounds")
	flag.Parse()

	if *compare != "" {
		os.Exit(compareReports(*compare))
	}
	var specs []spec
	if *workload == "all" {
		specs = workloads
	} else if sp, ok := findSpec(*workload); ok {
		specs = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := runConfig{
		Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		SpillRoot: ".bench_build", SetupReps: 3, Reps: reps,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	var reports []report
	for _, sp := range specs {
		rep, err := runWorkload(sp, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.Name, err)
			os.Exit(1)
		}
		reports = append(reports, *rep)
		printResult(sp.Name, rep.Result)
	}
	if *out != "" {
		buf, err := json.MarshalIndent(reports, "", " ")
		if err == nil {
			err = os.WriteFile(*out, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
}

// printResult prints every metric as "workload metric unit value",
// then the contract's JSON line.
func printResult(workload string, res result) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		line := fmt.Sprintf("%s %s %s %v", workload, name, m.Unit, m.Value)
		if n := res.samples[name]; n > 0 {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Println(line)
	}
	buf, _ := json.Marshal(res)
	fmt.Println(string(buf))
}

// outcome is what one workload's run produced.
type outcome struct {
	res   *result
	spans []span            // traced runs only
	notes map[string]string // what the run saw that is not a metric
}

// runWorkload sets a workload up, measures it, checks it and stamps
// the report.
func runWorkload(sp spec, cfg runConfig) (*report, error) {
	run := runAdhoc
	if sp.Kind == "serve" {
		run = runServe
	}
	out, err := run(sp, cfg)
	if err != nil {
		return nil, err
	}
	for name, m := range out.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return &report{
		Stamp:    newStamp(cfg.Seed, cfg.Seconds, cfg.Trace),
		Workload: sp.Name,
		Sizes:    map[string]any{"sf": sp.SF, "scale": sp.Scale, "operations": out.res.Attempted},
		Result:   *out.res,
		Samples:  out.res.samples,
		Notes:    out.notes,
		Spans:    out.spans,
	}, nil
}
