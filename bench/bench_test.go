package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {-1, 1}, {2, 5},
	} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(v, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN, not a fast run")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{7}); math.Abs(got-7) > 1e-12 {
		t.Errorf("geomean(7) = %v", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}} {
		if !math.IsNaN(geomean(bad)) {
			t.Errorf("geomean(%v) must be NaN", bad)
		}
	}
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		base, cand float64
		better     string
		want       float64
	}{
		{100, 110, "lower", 0.10},   // slower latency is worse
		{100, 90, "lower", -0.10},   // faster is better
		{100, 90, "higher", 0.10},   // lower throughput is worse
		{100, 120, "higher", -0.20}, // higher throughput is better
		{0, 0, "lower", 0},
	} {
		if got := worsening(c.base, c.cand, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", c.base, c.cand, c.better, got, c.want)
		}
	}
	if !math.IsInf(worsening(0, 1, "lower"), 1) {
		t.Error("any value is infinitely worse than a zero base")
	}
}

// Three replays of two slots: a slot's latency is the median of its
// repetitions, the percentiles and the throughput are taken over the
// slots, and every time is divided by the host factor.
func TestEndToEndOf(t *testing.T) {
	replay := func(light, heavy float64, heavyFailed bool) unit {
		return unit{CPUSec: 0.2, AllocB: 2 << 20, OverheadSec: 0.01, Ops: []opResult{
			{Slot: 1, Type: "heavy", LatencySec: heavy, Failed: heavyFailed},
			{Slot: 0, Type: "light", LatencySec: light},
		}}
	}
	units := []unit{replay(0.010, 0.100, false), replay(0.030, 0.900, false), replay(0.020, 0.300, false)}
	const host = 2.0
	res := endToEndOf(units, 1.5, 42, host)
	want := map[string]float64{
		"setup_s":            1.5, // the caller has normalised it already
		"queries_per_s":      2 / ((0.020 + 0.300 + 0.010) / host),
		"query_p50_ms":       (20.0 + 300.0) / 2 / host,
		"query_p95_ms":       (20 + 0.95*(300-20)) / host,
		"query_geomean_ms":   math.Sqrt(20*300) / host,
		"cpu_ms_per_query":   100 / host,
		"alloc_mb_per_query": 1,
		"virtual_s":          42,
	}
	for name, w := range want {
		if got := res.Metrics[name].Value; math.Abs(got-w) > 1e-9*w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if !res.Correct || res.Attempted != 6 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want true 6 0", res.Correct, res.Attempted, res.Failed)
	}

	// A failed repetition counts against the run and lends no latency.
	units[1] = replay(0.030, 0.001, true)
	res = endToEndOf(units, 1.5, 42, 1)
	if res.Correct || res.Failed != 1 {
		t.Errorf("correct=%v failed=%d after one failed operation", res.Correct, res.Failed)
	}
	if got := res.Metrics["query_p95_ms"].Value; got < 100 {
		t.Errorf("query_p95_ms = %v: the failed repetition's 1 ms was counted", got)
	}
}

func TestHostFactor(t *testing.T) {
	if got := (spec{HostBound: 1}).hostFactor(1.8); got != 1.8 {
		t.Errorf("a fully host-bound workload slows with the kernel: factor %v, want 1.8", got)
	}
	if got := (spec{HostBound: 0.5}).hostFactor(1.8); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("half host-bound at slowdown 1.8: factor %v, want 1.4", got)
	}
	for _, w := range workloads {
		if w.HostBound <= 0 || w.HostBound > 1 {
			t.Errorf("%s: HostBound %v outside (0, 1]", w.Name, w.HostBound)
		}
		if got := w.hostFactor(1); got != 1 {
			t.Errorf("%s: on the reference machine nothing is rescaled, got factor %v", w.Name, got)
		}
	}
	var cal speedometer
	for i := 0; i < 3; i++ {
		cal.sample()
	}
	if s := cal.slowdown(); !(s > 0.05 && s < 50) || cal.allocB <= 0 || cal.cpuSec < 0 {
		t.Errorf("calibration: slowdown %v, allocated %v bytes", s, cal.allocB)
	}
	var none *speedometer
	none.sample() // traced runs carry no speedometer
}

func TestComparisonAgainstBounds(t *testing.T) {
	mk := func(seed int64, scale float64) map[string]report {
		res := result{Attempted: 10, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			v := 100.0
			if d.Name != "virtual_s" {
				// Move every metric in its bad direction by the same share.
				if d.Better == "higher" {
					v /= scale
				} else {
					v *= scale
				}
			}
			res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
		return map[string]report{"sim-adhoc": {Stamp: stamp{Seed: seed}, Workload: "sim-adhoc", Result: res}}
	}
	if code := printComparison(mk(1, 1), mk(1, 1.04)); code != 0 {
		t.Errorf("4%% worse is inside every bound, got exit %d", code)
	}
	if code := printComparison(mk(1, 1), mk(1, 1.30)); code == 0 {
		t.Error("30% worse breaches every bound, got exit 0")
	}
	drift := mk(1, 1)
	drift["sim-adhoc"].Result.Metrics["virtual_s"] = metric{Value: 100.0001, Unit: "s"}
	if code := printComparison(mk(1, 1), drift); code == 0 {
		t.Error("virtual_s moved on the same seed: a plan or accounting change must breach")
	}
}

// benchmarkJSON is the contract file's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The driver reads BENCHMARK.json, the program reports from its own
// tables: they must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	sp, _ := findSpec("serve-mix")
	draw := func(seed int64) ([]string, []int) {
		texts, zipf := traffic(sp, seed)
		return texts, append(zipf.cycle(sp.Invalidate), zipf.cycle(sp.Invalidate)...)
	}
	texts1, seq1 := draw(7)
	texts2, seq2 := draw(7)
	if !reflect.DeepEqual(texts1, texts2) || !reflect.DeepEqual(seq1, seq2) {
		t.Error("the same seed must give the same texts and the same request sequence")
	}
	texts3, seq3 := draw(8)
	if reflect.DeepEqual(texts1, texts3) || reflect.DeepEqual(seq1, seq3) {
		t.Error("another seed must give other texts and another sequence")
	}
	if len(texts1) != sp.Universe {
		t.Errorf("universe has %d texts, want %d", len(texts1), sp.Universe)
	}
	seen := map[string]bool{}
	for _, sql := range texts1 {
		if seen[sql] {
			t.Fatalf("universe repeats a text: %s", sql)
		}
		seen[sql] = true
	}

	orders := func(seed int64) [][]string {
		rng := rand.New(rand.NewSource(seed))
		var out [][]string
		for i := 0; i < 8; i++ {
			out = append(out, passOrder(rng))
		}
		return out
	}
	if !reflect.DeepEqual(orders(7), orders(7)) {
		t.Error("the same seed must give the same pass orders")
	}
	if reflect.DeepEqual(orders(7), orders(8)) {
		t.Error("another seed must give other pass orders")
	}
}

// tiny shrinks a workload until the whole smoke fits tier-1's budget;
// the code paths are the full-size ones.
func tiny(sp spec) spec {
	switch sp.Kind {
	case "sim":
		sp.SF, sp.Scale = 20, 0.1
	case "proc":
		sp.SF, sp.Scale = 2, 1
	case "serve":
		sp.Scale, sp.Universe, sp.Invalidate = 0.02, 24, 16
	}
	sp.JoinProbeSF, sp.JoinProbeScale = 20, 0.1
	return sp
}

// TestSmoke runs every workload, untraced and traced, at tiny scale
// and requires every metric the contract names: present, finite, with
// its unit, and nothing failed.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	cfg := runConfig{Seed: 3, Seconds: 0.1, SpillRoot: t.TempDir(), SetupReps: 1, Reps: 1, Logf: t.Logf}
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.Trace = traced
			rep, err := runWorkload(tiny(sp), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.Name, traced, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, d := range b.PerLayer {
					want[d.Name] = d.Unit
				}
				if len(rep.Spans) == 0 {
					t.Errorf("%s: traced run kept no spans", sp.Name)
				}
			} else {
				for _, d := range b.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, contract names %d", sp.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", sp.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, want %q", sp.Name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", sp.Name, name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", sp.Name, name, m.Value)
				}
			}
		}
	}
}
