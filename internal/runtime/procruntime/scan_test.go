package procruntime

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/runtime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/runtime/wire"
	"dyno/internal/stats"
)

// A scan task answers with the positions of its split's records that
// survived, and the controller takes the rows from its own copy of the
// block. The tests below hold the rows to the sim runtime's, prove they
// were never decoded, and hold a worker's hostile answers to task errors.

// scanRegistry registers keep(v), which keeps the rows whose v is not a
// multiple of three at an odd CPU cost per call.
func scanRegistry() *expr.Registry {
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "keep", CPUCost: 0.0113, Fn: func(args []data.Value) data.Value {
		return data.Bool(args[0].Int()%3 != 0)
	}})
	return reg
}

// newScanRuntime is a proc runtime over two real in-process workers.
func newScanRuntime(t *testing.T) *Runtime {
	t.Helper()
	f := newBareFleet(t, Config{})
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(NewWorker(scanRegistry()).Handler())
		t.Cleanup(ts.Close)
		register(t, f, ts.URL)
	}
	return New(f, cluster.DefaultConfig())
}

// writeScanTable writes n records {s, v} to name, about 80 to a block,
// each wrapped as {t: rec} when wrapped is set (an intermediate file).
// All but every fifth also carry m, one of seven numbers, as an int or
// as the double equal to it.
func writeScanTable(fs *dfs.FS, name string, n int, wrapped bool) *dfs.File {
	fs.SetByteScale(1 << 16)
	w := fs.Create(name)
	for i := 0; i < n; i++ {
		rec := data.Object(data.Field{Name: "s", Value: data.String(fmt.Sprintf("row-%04d", i))}, data.Field{Name: "v", Value: data.Int(int64(i))})
		if m := int64(i % 7); i%5 != 0 && i%2 == 0 {
			rec = data.Object(append(rec.Fields(), data.Field{Name: "m", Value: data.Int(m)})...)
		} else if i%5 != 0 {
			rec = data.Object(append(rec.Fields(), data.Field{Name: "m", Value: data.Double(float64(m))})...)
		}
		if wrapped {
			rec = data.Object(data.Field{Name: "t", Value: rec})
		}
		w.Append(rec)
	}
	return w.Close()
}

// scanRun is a finished scan job: its result and virtual duration.
type scanRun struct {
	res      *mapreduce.Result
	duration float64
}

// scanStatPaths are the columns a scan job tracks at k = scanKMV: v
// overflows the frequency sketch in every task, m never does, v is
// tracked twice and none is never present.
var scanStatPaths = []data.Path{
	data.MustParsePath("t.v"), data.MustParsePath("t.m"), data.MustParsePath("t.v"), data.MustParsePath("t.none"),
}

const scanKMV = 8

func runScanJob(t *testing.T, rt runtime.Runtime, op *physop.OpSpec, wrapped bool, pilot bool) scanRun {
	t.Helper()
	file := writeScanTable(rt.FS(), "in", 600, wrapped)
	spec, err := op.Bind(mapreduce.Spec{Name: "scan", Output: "out", CollectStats: scanStatPaths, KMVSize: scanKMV}, file)
	if err != nil {
		t.Fatal(err)
	}
	if pilot {
		// A pilot's shape: one split, the rest on demand, stop at 100
		// rows, which the first split does not reach.
		spec.StopAfter = 100
		spec.Inputs[0].Splits = []int{0}
		spec.MoreSplits = [][]int{make([]int, file.NumBlocks()-1)}
		for i := range spec.MoreSplits[0] {
			spec.MoreSplits[0][i] = i + 1
		}
	}
	env := rt.NewEnv(scanRegistry())
	j, sub, err := mapreduce.Submit(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.RunUntil(sub.Done); err != nil || sub.Err() != nil {
		t.Fatal(err, sub.Err())
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	return scanRun{res: res, duration: sub.Duration()}
}

// TestScanRowsComeFromTheControllersBlock: on proc, every row a scan job
// outputs shares its field slab with a row of the controller's own block
// image — the one the sim runtime scans — so no row was decoded; and the
// job is the sim runtime's: same rows, statistics and virtual duration.
func TestScanRowsComeFromTheControllersBlock(t *testing.T) {
	keep := &expr.Call{Name: "keep", Args: []expr.Expr{expr.NewCol("t.v")}}
	cases := []struct {
		name    string
		op      *physop.OpSpec
		wrapped bool // the input is an intermediate file of {t: rec} rows
		pilot   bool
		rows    func(n int64) bool
	}{
		{"udf-filter", &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: keep}}, false, false,
			func(n int64) bool { return n == 400 }},
		{"empty-selection", &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t",
			Filter: &expr.Cmp{Op: expr.LT, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(0))}}}, false, false,
			func(n int64) bool { return n == 0 }},
		{"intermediate", &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{
			Filter: &expr.Cmp{Op: expr.GE, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(100))}}}, true, false,
			func(n int64) bool { return n == 500 }},
		{"pilot", &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: keep}}, false, true,
			func(n int64) bool { return n >= 100 && n < 400 }},
		// SELECT * under pushdown: every set nil, which the wire drops.
		{"all-live-prune", &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: keep},
			Prune: map[string]map[string]bool{"t": nil}}, false, false,
			func(n int64) bool { return n == 400 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := runScanJob(t, simruntime.New(cluster.DefaultConfig()), tc.op, tc.wrapped, tc.pilot)
			rt := newScanRuntime(t)
			proc := runScanJob(t, rt, tc.op, tc.wrapped, tc.pilot)
			got, want := proc.res.Output.AllRecords(), sim.res.Output.AllRecords()
			if !tc.rows(int64(len(got))) {
				t.Fatalf("proc output %d rows: the case does not test what it says", len(got))
			}
			if !reflect.DeepEqual(rowStrings(got), rowStrings(want)) {
				t.Fatalf("proc rows differ from sim's: %d vs %d", len(got), len(want))
			}
			if proc.duration != sim.duration || proc.res.Stats.InRecords != sim.res.Stats.InRecords || proc.res.SplitsRun != sim.res.SplitsRun ||
				fmt.Sprint(proc.res.Stats.Exact()) != fmt.Sprint(sim.res.Stats.Exact()) {
				t.Fatalf("proc job differs from sim's: %v s, %d in, %d splits vs %v s, %d in, %d splits",
					proc.duration, proc.res.Stats.InRecords, proc.res.SplitsRun, sim.duration, sim.res.Stats.InRecords, sim.res.SplitsRun)
			}
			in, err := rt.FS().Open("in")
			if err != nil {
				t.Fatal(err)
			}
			image := map[*data.Field]bool{}
			for _, blk := range in.Blocks() {
				for _, row := range batch.For(blk.Aux(), blk.Records()).Wrapped(tc.op.Source.Wrap) {
					image[&row.Fields()[0]] = true
				}
			}
			for i, row := range got {
				if !image[&row.Fields()[0]] {
					t.Fatalf("output row %d (%v) is not a row of the controller's block image: it was decoded", i, row)
				}
			}
		})
	}
}

// TestScanStatsAreTheRowPaths: a scan job's statistics, which its
// unpruned tasks read off their splits' hash orders — a UDF-filtered
// leaf's (a per-row selection), an early-stopped pilot's over it, an
// unfiltered scan's — are on sim and on two proc workers the row path's
// over the rows the job wrote. A pruned scan's tasks emit rows of their
// own, and its statistics are those rows': the column it prunes away has
// no values.
func TestScanStatsAreTheRowPaths(t *testing.T) {
	keep := &expr.Call{Name: "keep", Args: []expr.Expr{expr.NewCol("t.v")}}
	filtered := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: keep}}
	cases := []struct {
		name  string
		op    *physop.OpSpec
		pilot bool
	}{
		{"udf-filter", filtered, false},
		{"udf-pilot", filtered, true},
		{"unfiltered", &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t"}}, false},
		{"pruned", &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: keep},
			Prune: map[string]map[string]bool{"t": {"m": true}}}, false},
	}
	for _, tc := range cases {
		for _, rt := range []runtime.Runtime{simruntime.New(cluster.DefaultConfig()), newScanRuntime(t)} {
			t.Run(tc.name+"/"+rt.Name(), func(t *testing.T) {
				run := runScanJob(t, rt, tc.op, false, tc.pilot)
				rows, env := run.res.Output.AllRecords(), rt.NewEnv(scanRegistry())
				if tc.pilot != (run.res.SplitsRun < run.res.SplitsTotal) || len(rows) == 0 {
					t.Fatalf("%d rows from %d of %d splits: the case does not test what it says", len(rows), run.res.SplitsRun, run.res.SplitsTotal)
				}
				c := stats.NewCollector(scanStatPaths, scanKMV)
				c.ObserveInputs(int(run.res.Stats.InRecords))
				var total int64
				for _, row := range rows {
					total += env.VirtualSize(row)
				}
				c.ObserveOutputs(rows, total)
				got, want := run.res.Stats.Exact(), c.Partial().Exact()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Exact = %v, the row path's %v", got, want)
				}
				for _, n := range []float64{600, 1e6} {
					if got, want := run.res.Stats.Extrapolate(n), c.Partial().Extrapolate(n); !reflect.DeepEqual(got, want) {
						t.Errorf("Extrapolate(%v) = %v, the row path's %v", n, got, want)
					}
				}
				if v := got.Cols["t.v"].NDV; (tc.op.Prune != nil) != (v == 0) || got.Cols["t.m"].NDV != 7 {
					t.Errorf("t.v NDV %v and t.m NDV %v: want 7 of m and v only unpruned", v, got.Cols["t.m"].NDV)
				}
			})
		}
	}
}

// TestScanAnswerBytesPerRow: a scan that keeps all its records costs the
// controller's inbound wire about a byte per row — a position — plus a
// fixed amount per task, never the rows themselves.
func TestScanAnswerBytesPerRow(t *testing.T) {
	rt := newScanRuntime(t)
	op := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t"}}
	run := runScanJob(t, rt, op, false, false)
	st := rt.Fleet().WireStats()
	const rows, perTask = 600, 64
	if run.res.OutRecords != rows {
		t.Fatalf("scan kept %d of %d rows", run.res.OutRecords, rows)
	}
	if limit := 2*rows + perTask*st.Tasks; st.BytesIn > limit {
		t.Errorf("BytesIn = %d for %d rows in %d tasks, want at most %d (2 B per row + %d B per task)", st.BytesIn, rows, st.Tasks, limit, perTask)
	}
	t.Logf("wire stats: %+v", st)
}

// TestHostileScanAnswersFailTheTask: a worker's answer that no worker
// gives — positions for an op that emits rows of its own making,
// positions beside rows, a position past the block — fails its task with
// an error naming the job. Nothing panics, nothing is retried, and the
// worker keeps its standing.
func TestHostileScanAnswersFailTheTask(t *testing.T) {
	scan := &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t"}}
	cases := map[string]struct {
		op     *physop.OpSpec
		answer *wire.TaskResult
		want   string
	}{
		"chain": {&physop.OpSpec{Kind: physop.Chain, Source: &physop.Source{Wrap: "t"}, Steps: []physop.ChainStep{{Build: "b"}}},
			&wire.TaskResult{Sel: []int32{0}}, "a chain op with positions"},
		"pruned-scan": {&physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t"}, Prune: map[string]map[string]bool{"t": {"v": true}}},
			&wire.TaskResult{Sel: []int32{0}}, "a scan op with positions"},
		"rows-and-positions": {scan,
			&wire.TaskResult{Sel: []int32{0}, Rows: []data.Value{data.Int(1)}}, "both rows and positions"},
		"past-the-block": {scan,
			&wire.TaskResult{Sel: []int32{1, 5}}, "position 5 of a 5-record block"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			// The round robin's first pick is the second worker registered;
			// a retry would go to the first.
			f := newBareFleet(t, Config{})
			other := okStub(t)
			stub := newBatchStub(t, func(*wire.Task) *wire.TaskResult { return tc.answer })
			register(t, f, other.srv.URL)
			register(t, f, stub.srv.URL)
			fs := dfs.New()
			ex := executor{f: f, fs: fs}
			file := writeScanTable(fs, "in", 5, false)
			job := "hostile-" + name
			_, err := ex.ExecMap(mapreduce.MapExec{JobName: job, TaskName: job + "-m0", File: file, Op: tc.op})
			if err == nil || !strings.Contains(err.Error(), "job "+job) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one naming job %s and saying %q", err, job, tc.want)
			}
			if a, b := stub.rpcs.Load(), other.rpcs.Load(); a != 1 || b != 0 {
				t.Errorf("the hostile worker was asked %d times and the other %d, want once and never (no retry)", a, b)
			}
			if got := f.Workers(); got != 2 {
				t.Errorf("live workers = %d, want 2 (an answer is not a transport failure)", got)
			}
		})
	}
}
