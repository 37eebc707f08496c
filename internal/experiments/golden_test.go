package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/expr"
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
	name    string
	query   string
	variant baselines.Variant
	tweak   func(*setup)
}

// goldenCases is full TPC-H × every comparison variant, plus the
// PILR_MT/UNC-2 arm (most concurrent jobs in flight) and the pushdown
// + dynamic-join matrix (prune maps, submit-time chain ops).
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, q := range tpch.QueryNames {
		for _, v := range baselines.Variants {
			cases = append(cases, goldenCase{name: q + "-" + string(v), query: q, variant: v})
		}
	}
	for _, q := range []string{"Q8p", "Q10"} {
		cases = append(cases, goldenCase{name: q + "-PILR_MT-UNC2", query: q, variant: baselines.VariantDynOpt,
			tweak: func(s *setup) {
				s.opts.PilotMode = core.PilotMT
				s.opts.Strategy = core.Uncertain{N: 2}
			}})
	}
	for _, q := range []string{"Q9p", "Q10"} {
		cases = append(cases, goldenCase{name: q + "-pushdown-dynjoin", query: q, variant: baselines.VariantDynOpt,
			tweak: func(s *setup) {
				s.opts.ProjectionPushdown = true
				s.opts.DynamicJoin = true
			}})
	}
	return cases
}

type goldenIteration struct {
	Plan        string   `json:"plan"`
	JobsRun     []string `json:"jobsRun"`
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

// goldenArm builds one arm's engine for a variant and a tweak of
// defaults, over a fresh simulator clock.
type goldenArm struct {
	name   string
	engine func(v baselines.Variant, tweak func(*setup)) (*core.Engine, *mapreduce.Env, error)
}

func goldenArms(t *testing.T) []goldenArm {
	cfg := testConfig()
	sim := goldenArm{name: "sim", engine: func(v baselines.Variant, tweak func(*setup)) (*core.Engine, *mapreduce.Env, error) {
		return newEngine(v, 100, cfg, tweak)
	}}

	// The proc arm: one fleet of two in-process workers (the handler
	// cmd/dynoworker serves) and one generated dataset shared by every
	// case; each case gets a fresh simulator clock, like the sim arm.
	fleet, err := procruntime.NewFleet(procruntime.Config{StaleAfter: time.Hour})
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
	rt := procruntime.New(fleet, defaults().cluster)
	procCat, err := tpch.Generate(rt.FS(), tpch.Config{SF: 100, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	proc := goldenArm{name: "proc", engine: func(v baselines.Variant, tweak func(*setup)) (*core.Engine, *mapreduce.Env, error) {
		s := defaults()
		if tweak != nil {
			tweak(&s)
		}
		// A wide executor pool overlaps the task round trips; the
		// virtual timeline does not depend on it.
		s.cluster.Parallelism = 16
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, cfg.UDF)
		env := rt.NewEnv(reg)
		env.Sim = cluster.New(s.cluster)
		eng, err := baselines.NewEngine(v, env, procCat, s.opt, s.opts)
		return eng, env, err
	}}

	return []goldenArm{sim, proc}
}

func runGoldenCase(t *testing.T, c goldenCase, arm goldenArm) *goldenRecord {
	t.Helper()
	eng, env, err := arm.engine(c.variant, c.tweak)
	if err != nil {
		t.Fatalf("%s/%s: %v", c.name, arm.name, err)
	}
	rec := &goldenRecord{}
	env.Sim.SetTrace(func(ev cluster.TraceEvent) {
		switch ev.Kind {
		case "job-ready", "job-done", "job-failed":
			rec.Timeline = append(rec.Timeline, goldenEvent{Time: exactFloat(ev.Time), Job: ev.Job, Kind: ev.Kind})
		}
	})
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
			Plan: it.Plan, JobsRun: it.JobsRun, PlanChanged: it.PlanChanged,
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

// maxDiffLines caps the differing lines goldenDiff prints.
const maxDiffLines = 40

// goldenKey matches a line of MarshalIndent output that opens with an
// object key.
var goldenKey = regexp.MustCompile(`^"((?:[^"\\]|\\.)*)":`)

// keyPaths gives each line of a MarshalIndent image the dotted path of
// the JSON key it sits under ("totalSec", "timeline.time", "rows").
func keyPaths(lines []string) []string {
	type open struct {
		indent int
		path   string
	}
	var stack []open
	paths := make([]string, len(lines))
	for i, l := range lines {
		t := strings.TrimLeft(l, " ")
		indent := len(l) - len(t)
		for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}
		path := ""
		if len(stack) > 0 {
			path = stack[len(stack)-1].path
		}
		if m := goldenKey.FindStringSubmatch(t); m != nil {
			path = strings.TrimPrefix(path+"."+m[1], ".")
		}
		if strings.HasSuffix(t, "{") || strings.HasSuffix(t, "[") {
			stack = append(stack, open{indent, path})
		}
		paths[i] = path
	}
	return paths
}

// goldenDiff reports how many lines two golden images disagree on, how
// many of those sit under each JSON key, and the first maxDiffLines of
// them, each with its key, so one failing run shows whether only
// virtual-time fields moved.
func goldenDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	wk, gk := keyPaths(w), keyPaths(g)
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(no line)"
	}
	var lines strings.Builder
	perKey := map[string]int{}
	var keys []string
	n := 0
	for i := range max(len(w), len(g)) {
		if i < len(w) && i < len(g) && w[i] == g[i] {
			continue
		}
		key := ""
		if i < len(w) {
			key = wk[i]
		} else {
			key = gk[i]
		}
		if key == "" {
			key = "(top)"
		}
		if perKey[key] == 0 {
			keys = append(keys, key)
		}
		perKey[key]++
		if n++; n <= maxDiffLines {
			fmt.Fprintf(&lines, "  line %d (%s):\n    golden: %s\n    got:    %s\n", i+1, key, line(w, i), line(g, i))
		}
	}
	if n > maxDiffLines {
		fmt.Fprintf(&lines, "  ... %d more\n", n-maxDiffLines)
	}
	counts := make([]string, len(keys))
	for i, k := range keys {
		counts[i] = fmt.Sprintf("%s %d", k, perKey[k])
	}
	return fmt.Sprintf("%d lines (golden %d, got %d); by key: %s\n%s",
		n, len(w), len(g), strings.Join(counts, ", "), lines.String())
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
					t.Errorf("%s: %s arm diverges from %s in %s", c.name, arm.name, path, goldenDiff(want, got))
				}
			}
		})
	}
}
