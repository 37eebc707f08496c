package experiments

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/coord"
	"dyno/internal/core"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/mapreduce"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/wire"
	"dyno/internal/tpch"
)

// The golden files under testdata/golden freeze the differential
// contract: for every case, the result rows, the job counters, the
// plan evolution and the virtual timeline, floats written bit-exactly.
// Both execution arms — the sim runtime and the proc runtime over two
// workers — must reproduce the same file. The files were generated
// while the legacy arm (uncompiled lookups, Compare-sorted shuffle,
// unpooled buffers), the workers' own row interpreter and the
// per-record map kernels still ran and agreed with them; they are what
// lets the contract outlive those arms.
//
// Regenerate with: go test ./internal/experiments -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the sim runtime's arm")

type goldenCase struct {
	name     string
	query    string
	variant  baselines.Variant
	tweak    func(*core.Options)
	combiner bool
}

// goldenCases is full TPC-H × every comparison variant, plus the
// PILR_MT/UNC-2 arm (most concurrent jobs in flight) and the pushdown
// + dynamic-join + combiner matrix (prune maps, submit-time chain
// ops, partial aggregation with the CPU double-add).
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, q := range tpch.QueryNames {
		for _, v := range baselines.Variants {
			cases = append(cases, goldenCase{name: q + "-" + string(v), query: q, variant: v})
		}
	}
	for _, q := range []string{"Q8p", "Q10"} {
		cases = append(cases, goldenCase{name: q + "-PILR_MT-UNC2", query: q, variant: baselines.VariantDynOpt,
			tweak: func(o *core.Options) {
				o.PilotMode = core.PilotMT
				o.Strategy = core.Uncertain{N: 2}
			}})
	}
	for _, q := range []string{"Q9p", "Q10"} {
		cases = append(cases, goldenCase{name: q + "-pushdown-dynjoin-combiner", query: q, variant: baselines.VariantDynOpt,
			combiner: true,
			tweak: func(o *core.Options) {
				o.ProjectionPushdown = true
				o.DynamicJoin = true
			}})
	}
	return cases
}

type goldenIteration struct {
	Plan        string   `json:"plan"`
	JobsRun     []string `json:"jobsRun"`
	OptimizeSec string   `json:"optimizeSec"`
	PlanChanged bool     `json:"planChanged"`
}

type goldenEvent struct {
	Time string `json:"time"`
	Job  string `json:"job"`
	Kind string `json:"kind"`
}

// goldenRecord is one case's frozen outcome. Floats are strings in
// strconv.FormatFloat(x, 'g', -1, 64) form so the files compare
// bit-exactly.
type goldenRecord struct {
	Rows          []string          `json:"rows"`
	Jobs          int               `json:"jobs"`
	MapOnlyJobs   int               `json:"mapOnlyJobs"`
	MapReduceJobs int               `json:"mapReduceJobs"`
	SwitchedJobs  int               `json:"switchedJobs"`
	PilotJobs     int               `json:"pilotJobs"`
	Iterations    int               `json:"iterations"`
	PlanChanges   int               `json:"planChanges"`
	TotalSec      string            `json:"totalSec"`
	PilotSec      string            `json:"pilotSec"`
	OptimizeSec   string            `json:"optimizeSec"`
	FinalPlan     string            `json:"finalPlan"`
	Evolution     []goldenIteration `json:"evolution"`
	Timeline      []goldenEvent     `json:"timeline"`
}

func exactFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// goldenArm builds one arm's execution environment and catalog.
type goldenArm struct {
	name string
	env  func(t *testing.T) (*mapreduce.Env, *jaql.Catalog)
}

func goldenArms(t *testing.T) []goldenArm {
	cfg := testConfig()
	sim := goldenArm{name: "sim", env: func(t *testing.T) (*mapreduce.Env, *jaql.Catalog) {
		l, err := getLab(100, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return l.newEnv(false, cfg), l.cat
	}}

	// The proc arm: one fleet of two in-process workers (the handler
	// cmd/dynoworker serves) and one generated dataset shared by every
	// case; each case gets a fresh simulator clock and coordination
	// service, like the sim arm.
	fleet, err := procruntime.NewFleet(procruntime.Config{StaleAfter: time.Hour, UDF: cfg.UDF})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	caps := wire.Caps{Codecs: []string{wire.CodecBinary, wire.CodecJSON}, Batch: true, PeerShuffle: true}
	for i := 0; i < 2; i++ {
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, cfg.UDF)
		ts := httptest.NewServer(procruntime.NewWorker(reg).Handler())
		t.Cleanup(ts.Close)
		if _, err := fleet.RegisterWorkerCaps(ts.URL, caps); err != nil {
			t.Fatal(err)
		}
	}
	rt := procruntime.New(fleet, cfg.clusterConfig())
	procCat, err := tpch.Generate(rt.FS(), tpch.Config{SF: 100, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	proc := goldenArm{name: "proc", env: func(t *testing.T) (*mapreduce.Env, *jaql.Catalog) {
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, cfg.UDF)
		env := rt.NewEnv(reg)
		// A wide executor pool overlaps the task round trips; the
		// virtual timeline does not depend on it.
		ccfg := cfg.clusterConfig()
		ccfg.Parallelism = 16
		env.Sim = cluster.New(ccfg)
		env.Coord = coord.NewService()
		return env, procCat
	}}

	return []goldenArm{sim, proc}
}

func runGoldenCase(t *testing.T, c goldenCase, arm goldenArm) *goldenRecord {
	t.Helper()
	env, cat := arm.env(t)
	env.UseCombiner = c.combiner
	rec := &goldenRecord{}
	env.Sim.SetTrace(func(ev cluster.TraceEvent) {
		switch ev.Kind {
		case "job-ready", "job-done", "job-failed":
			rec.Timeline = append(rec.Timeline, goldenEvent{Time: exactFloat(ev.Time), Job: ev.Job, Kind: ev.Kind})
		}
	})
	opts := experimentOptions()
	if c.tweak != nil {
		c.tweak(&opts)
	}
	eng, err := baselines.NewEngine(c.variant, env, cat, optCfgFor(env, false), opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.name, arm.name, err)
	}
	res, err := eng.ExecuteSQL(tpch.MustQuerySQL(c.query))
	if err != nil {
		t.Fatalf("%s/%s: %v", c.name, arm.name, err)
	}
	for _, r := range res.Rows {
		rec.Rows = append(rec.Rows, r.String())
	}
	rec.Jobs, rec.MapOnlyJobs, rec.MapReduceJobs = res.Jobs, res.MapOnlyJobs, res.MapReduceJobs
	rec.SwitchedJobs, rec.Iterations, rec.PlanChanges = res.SwitchedJobs, res.Iterations, res.PlanChanges
	if res.Pilot != nil {
		rec.PilotJobs = res.Pilot.Jobs
	}
	rec.TotalSec, rec.PilotSec, rec.OptimizeSec = exactFloat(res.TotalSec), exactFloat(res.PilotSec), exactFloat(res.OptimizeSec)
	rec.FinalPlan = res.FinalPlan
	for _, it := range res.Evolution {
		rec.Evolution = append(rec.Evolution, goldenIteration{
			Plan: it.Plan, JobsRun: it.JobsRun, OptimizeSec: exactFloat(it.OptimizeSec), PlanChanged: it.PlanChanged,
		})
	}
	return rec
}

func (r *goldenRecord) marshal(t *testing.T) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// firstDiff names the first line two golden images disagree on.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  golden: " + w[i] + "\n  got:    " + g[i]
		}
	}
	return "lengths differ: golden " + strconv.Itoa(len(w)) + " lines, got " + strconv.Itoa(len(g))
}

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full TPC-H × variants matrix on every arm")
	}
	arms := goldenArms(t)
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", c.name+".json")
			if *updateGolden {
				rec := runGoldenCase(t, c, arms[0])
				if len(rec.Rows) == 0 {
					t.Fatalf("%s yields no rows at test scale; golden would be vacuous", c.name)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, rec.marshal(t), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			for _, arm := range arms {
				if got := runGoldenCase(t, c, arm).marshal(t); string(got) != string(want) {
					t.Errorf("%s: %s arm diverges from %s at %s", c.name, arm.name, path, firstDiff(want, got))
				}
			}
		})
	}
}
