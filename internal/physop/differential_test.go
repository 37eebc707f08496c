package physop

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/sqlparse"
	"dyno/internal/stats"
)

// The differential tests in this file run the same operator both ways
// — compiled to the map kernels (Bind), and to the record-at-a-time
// oracle (oracleBind, oracle_test.go) — and assert the jobs are
// indistinguishable: same records, same order, same statistics, the
// same float of UDF cost on every task and the same virtual duration.
// The input tables are adversarial key mixes: every scalar kind,
// strings with embedded 0x00 terminator bytes, nulls, -0.0, NaN, and
// integers beyond ±2^53 beside the doubles their float images round to.

func testEnv() *mapreduce.Env {
	cfg := cluster.Config{
		Workers:              4,
		MapSlotsPerWorker:    4,
		ReduceSlotsPerWorker: 2,
		SlotMemory:           1 << 30,
		JobStartup:           10,
		TaskOverhead:         1,
		ScanBps:              1 << 20,
		ShuffleBps:           1 << 19,
		WriteBps:             1 << 20,
		Parallelism:          4,
	}
	reg := expr.NewRegistry()
	registerUDFs(reg)
	return &mapreduce.Env{
		FS:  dfs.New(dfs.WithBlockSize(16 << 10)),
		Sim: cluster.New(cfg),
		Reg: reg,
	}
}

// registerUDFs registers the filters the tests call. Each keeps the
// rows whose sequence number is not a multiple of three; their costs are
// odd floats, so that summing the same calls in another order gives
// another float. keep_row takes the whole row (a bare alias argument,
// which no alias-stripped form exists for), keep_seq and keep_match the
// seq column.
func registerUDFs(reg *expr.Registry) {
	seq := func(v data.Value) int64 {
		if s := v.FieldOr("seq"); !s.IsNull() {
			return s.Int()
		}
		return v.Int()
	}
	for name, cost := range map[string]float64{"keep_row": 0.0137, "keep_seq": 0.0113, "keep_match": 0.0071, "quarter": 0.25} {
		reg.Register(expr.UDF{Name: name, CPUCost: cost, Fn: func(args []data.Value) data.Value {
			return data.Bool(seq(args[0])%3 != 0)
		}})
	}
}

func call(name, col string) expr.Expr {
	return &expr.Call{Name: name, Args: []expr.Expr{expr.NewCol(col)}}
}

// arm is one way to compile an operator: the map kernels under test, or
// the record-at-a-time oracle.
type arm struct {
	bind      func(op *OpSpec, spec mapreduce.Spec, files ...*dfs.File) (mapreduce.Spec, error)
	bindBuild func(b mapreduce.Broadcast, sample data.Value) mapreduce.Broadcast
}

var (
	kernelArm = arm{(*OpSpec).Bind, BindBuild}
	oracleArm = arm{oracleBind, oracleBindBuild}
)

// mixedKeyTable writes records whose key column cycles through every
// scalar kind the normalized encoding supports — including negative
// doubles, strings containing 0x00 (the terminator byte that must be
// escaped), -0.0, NaN and nulls.
func mixedKeyTable(env *mapreduce.Env, name string, n int) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		var key data.Value
		switch i % 7 {
		case 0:
			key = data.Int(int64(i%13 - 6))
		case 1:
			key = data.Double(float64(i%11) - 5.5)
		case 2:
			key = data.String(fmt.Sprintf("k%02d", i%9))
		case 3:
			key = data.Bool(i%2 == 0)
		case 4:
			key = data.Null()
		case 5:
			key = data.String("a\x00" + string(rune('a'+i%3)))
		case 6:
			key = data.Double(math.Copysign(0, -1)) // Compare-equal to 0
			if i%2 == 1 {
				key = data.Double(math.NaN())
			}
		}
		w.Append(data.Object(
			data.Field{Name: "k", Value: key},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
		))
	}
	return w.Close()
}

// hugeKeyTable mixes small integer keys with integers beyond ±2^53,
// whose normalized keys carry a residual tail (they once made shuffles
// sort by Compare and build sides demote to a hash index).
func hugeKeyTable(env *mapreduce.Env, name string, n int) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		var key data.Value
		if i%5 == 0 {
			key = data.Int(int64(1)<<60 + int64(i%7))
		} else {
			key = data.Int(int64(i % 17))
		}
		w.Append(data.Object(
			data.Field{Name: "k", Value: key},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
		))
	}
	return w.Close()
}

// edgeNumbers are the numbers the value order is exact about: ±0,
// 2 as int and double, 2^53 as int and double beside ±(2^53+1), the
// infinities and NaN of both signs.
var edgeNumbers = []data.Value{
	data.Int(0), data.Double(math.Copysign(0, -1)), data.Int(2), data.Double(2),
	data.Double(1 << 53), data.Int(1 << 53), data.Int(1<<53 + 1), data.Int(-(1<<53 + 1)),
	data.Double(math.Inf(1)), data.Double(math.Inf(-1)), data.Double(math.NaN()), data.Double(-math.NaN()),
}

// edgeKeyTable keys records by the edge numbers (a mixed int/double
// column, compared per row) and adds two typed columns the column-wise
// filters compare in loops: x ints around 2^53, y doubles with ±0,
// ±Inf and NaN.
func edgeKeyTable(env *mapreduce.Env, name string, n int) *dfs.File {
	xs := []int64{0, 2, 1 << 53, 1<<53 + 1, -(1<<53 + 1)}
	ys := []float64{0, math.Copysign(0, -1), 2, 1 << 53, math.Inf(1), math.NaN()}
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: edgeNumbers[i%len(edgeNumbers)]},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
			data.Field{Name: "x", Value: data.Int(xs[i%len(xs)])},
			data.Field{Name: "y", Value: data.Double(ys[i%len(ys)])},
		))
	}
	return w.Close()
}

// edgeFilter compares the edge columns column-vs-literal and
// column-vs-column: int against double at 2^53, ±0, NaN.
func edgeFilter() expr.Expr {
	c, l := expr.NewCol, func(v data.Value) expr.Expr { return expr.NewLit(v) }
	return &expr.Or{Terms: []expr.Expr{
		&expr.Cmp{Op: expr.GT, L: c("t.x"), R: l(data.Double(1 << 53))},
		&expr.Cmp{Op: expr.EQ, L: c("t.y"), R: l(data.Double(math.NaN()))},
		&expr.And{Terms: []expr.Expr{
			&expr.Cmp{Op: expr.LE, L: c("t.y"), R: l(data.Int(0))},
			&expr.Cmp{Op: expr.GE, L: c("t.y"), R: l(data.Double(math.Copysign(0, -1)))},
			&expr.Cmp{Op: expr.NE, L: c("t.x"), R: c("t.y")},
		}},
		&expr.Cmp{Op: expr.EQ, L: c("t.y"), R: c("t.x")},
		&expr.Cmp{Op: expr.LT, L: c("t.k"), R: l(data.Int(-(1 << 53)))},
	}}
}

func assertSameRecords(t *testing.T, got, want []data.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count diverged: kernel %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !data.Equal(got[i], want[i]) {
			t.Fatalf("record %d diverged:\n  kernel: %v\n  oracle: %v", i, got[i], want[i])
		}
	}
}

func assertSameStats(t *testing.T, got, want *stats.Partial) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("statistics collected: kernel %v, oracle %v", got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.InRecords != want.InRecords || got.OutRecords != want.OutRecords || got.OutBytes != want.OutBytes {
		t.Fatalf("partial counters diverged: kernel{in=%d out=%d bytes=%d} oracle{in=%d out=%d bytes=%d}",
			got.InRecords, got.OutRecords, got.OutBytes, want.InRecords, want.OutRecords, want.OutBytes)
	}
	ge, we := got.Exact(), want.Exact()
	if ge.Card != we.Card || ge.AvgRecSize != we.AvgRecSize || len(ge.Cols) != len(we.Cols) {
		t.Fatalf("exact stats diverged: kernel{card=%v avg=%v cols=%d} oracle{card=%v avg=%v cols=%d}",
			ge.Card, ge.AvgRecSize, len(ge.Cols), we.Card, we.AvgRecSize, len(we.Cols))
	}
	for path, gc := range ge.Cols {
		wc, ok := we.Cols[path]
		if !ok || gc.NDV != wc.NDV {
			t.Fatalf("column %q stats diverged: kernel{ndv=%v} oracle{ndv=%v}", path, gc.NDV, wc.NDV)
		}
	}
}

// ran is a finished job: its result, the UDF cost each of its tasks was
// charged (in completion order) and its virtual duration.
type ran struct {
	*mapreduce.Result
	cpu      []float64
	duration float64
}

func (r ran) totalCPU() float64 {
	var sum float64
	for _, c := range r.cpu {
		sum += c
	}
	return sum
}

func mustRun(t *testing.T, env *mapreduce.Env, spec mapreduce.Spec, err error) ran {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
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
	r := ran{Result: res, duration: sub.Duration()}
	for _, task := range sub.CompletedTasks() {
		r.cpu = append(r.cpu, task.Usage().CPUSeconds)
	}
	return r
}

// differential runs a job on a fresh environment per arm and asserts the
// kernel's is the oracle's; it returns the kernel's.
func differential(t *testing.T, run func(a arm, env *mapreduce.Env) ran) ran {
	t.Helper()
	got, want := run(kernelArm, testEnv()), run(oracleArm, testEnv())
	assertSameRecords(t, got.Output.AllRecords(), want.Output.AllRecords())
	assertSameStats(t, got.Stats, want.Stats)
	if !slices.Equal(got.cpu, want.cpu) || got.duration != want.duration {
		t.Fatalf("charges diverged: kernel cpu %v duration %v, oracle cpu %v duration %v", got.cpu, got.duration, want.cpu, want.duration)
	}
	return got
}

// diffFilter is a filter over the wrapped rows' mixed-kind key column
// and integer sequence column that exercises every column-wise
// predicate shape: comparisons against a mixed-kind column (nulls,
// booleans, 0x00 strings, -0.0), an int column, and And/Or/Not.
func diffFilter() expr.Expr {
	return &expr.Or{Terms: []expr.Expr{
		&expr.And{Terms: []expr.Expr{
			&expr.Cmp{Op: expr.GE, L: expr.NewCol("t.seq"), R: expr.NewLit(data.Int(100))},
			&expr.Cmp{Op: expr.LT, L: expr.NewCol("t.seq"), R: expr.NewLit(data.Int(1200))},
		}},
		&expr.Not{E: &expr.Cmp{Op: expr.LT, L: expr.NewCol("t.k"), R: expr.NewLit(data.String("k05"))}},
	}}
}

var keyPath = []data.Path{data.MustParsePath("t.k")}

func scanOp(filter expr.Expr) *OpSpec {
	return &OpSpec{Kind: Scan, Source: &Source{Wrap: "t", Filter: filter}}
}

func shuffleOp(filter expr.Expr) *OpSpec {
	return &OpSpec{Kind: Repartition, Left: &Source{Wrap: "t", Filter: filter}, LeftKeys: keyPath}
}

// runScan executes a scan op over f, collecting statistics on t.k.
func runScan(t *testing.T, a arm, env *mapreduce.Env, f *dfs.File, op *OpSpec) ran {
	t.Helper()
	spec, err := a.bind(op, mapreduce.Spec{Name: "diff-scan", Output: "diff-scanned", CollectStats: keyPath}, f)
	return mustRun(t, env, spec, err)
}

// runShuffle executes the map side of a repartition op under an
// identity reducer, so the output exposes the exact reduce-side order
// of every pair.
func runShuffle(t *testing.T, a arm, env *mapreduce.Env, f *dfs.File, op *OpSpec) ran {
	t.Helper()
	spec, err := a.bind(op, mapreduce.Spec{Name: "diff-shuffle", Output: "diff-shuffled", NumReducers: 4, CollectStats: keyPath}, f)
	spec.Reduce = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Pair) {
		for _, g := range group {
			rc.Emit(g.Rec)
		}
	}
	return mustRun(t, env, spec, err)
}

// bindBuildFile binds a build side to its file's first record, as the
// compiler does.
func (a arm) bindBuildFile(b mapreduce.Broadcast) mapreduce.Broadcast {
	sample, _ := b.File.FirstRecord()
	return a.bindBuild(b, sample)
}

// probeOp is a one-step chain: probe rows {t: rec} joined to build rows
// {b: rec} on k.
func probeOp(filter, residual expr.Expr) *OpSpec {
	return &OpSpec{Kind: Chain, Source: &Source{Wrap: "t", Filter: filter}, Steps: []ChainStep{{Build: "b0", Keys: keyPath, Residual: residual}}}
}

// runProbe executes a one-step chain op.
func runProbe(t *testing.T, a arm, env *mapreduce.Env, probe, build *dfs.File, op *OpSpec) ran {
	t.Helper()
	spec := mapreduce.Spec{Name: "diff-probe", Output: "diff-probed", CollectStats: keyPath,
		Broadcasts: []mapreduce.Broadcast{a.bindBuildFile(mapreduce.Broadcast{Name: "b0", File: build, Wrap: "b", KeyPaths: []data.Path{data.MustParsePath("b.k")}})}}
	spec, err := a.bind(op, spec, probe)
	return mustRun(t, env, spec, err)
}

func TestScanKernelsIdentical(t *testing.T) {
	t.Parallel()
	res := differential(t, func(a arm, env *mapreduce.Env) ran {
		return runScan(t, a, env, mixedKeyTable(env, "t", 1500), scanOp(diffFilter()))
	})
	if res.OutRecords == 0 || res.OutRecords == 1500 {
		t.Fatalf("filter not selective: %d of 1500 rows survived", res.OutRecords)
	}
}

// TestShuffleKernelsIdentical: split-wide key evaluation,
// normalization, and partition hashing route every record to the same
// reducer position as EmitKV, over keys of every encodable kind.
func TestShuffleKernelsIdentical(t *testing.T) {
	t.Parallel()
	differential(t, func(a arm, env *mapreduce.Env) ran {
		return runShuffle(t, a, env, mixedKeyTable(env, "t", 1500), shuffleOp(diffFilter()))
	})
}

// TestShuffleKernelsUnencodableKeys: keys beyond ±2^53 — once an empty
// normalized key on both kernels — route and sort identically.
func TestShuffleKernelsUnencodableKeys(t *testing.T) {
	t.Parallel()
	res := differential(t, func(a arm, env *mapreduce.Env) ran {
		return runShuffle(t, a, env, hugeKeyTable(env, "t", 900), shuffleOp(nil))
	})
	if res.OutRecords != 900 {
		t.Fatalf("out records: %d, want 900", res.OutRecords)
	}
}

// TestKernelsExactNumberOrder: over the edge numbers, the scan and
// shuffle kernels keep, route and order exactly the rows the oracle
// does.
func TestKernelsExactNumberOrder(t *testing.T) {
	t.Parallel()
	for _, op := range []*OpSpec{scanOp(edgeFilter()), shuffleOp(edgeFilter())} {
		run := runScan
		if op.Kind == Repartition {
			run = runShuffle
		}
		res := differential(t, func(a arm, env *mapreduce.Env) ran {
			return run(t, a, env, edgeKeyTable(env, "t", 600), op)
		})
		if res.OutRecords == 0 || res.OutRecords == 600 {
			t.Fatalf("%s: filter not selective: %d of 600 rows survived", op.Kind, res.OutRecords)
		}
	}
}

// TestProbeKernelsIdentical: the probe kernel (cached per-split key
// encodings against the normalized-key index) and the oracle's probe
// produce the identical join over mixed-kind keys, keys beyond ±2^53
// (the arm named for the hash index they once demoted a build side to)
// and the edge numbers.
func TestProbeKernelsIdentical(t *testing.T) {
	for name, table := range map[string]func(*mapreduce.Env, string, int) *dfs.File{"mixed": mixedKeyTable, "demoted": hugeKeyTable, "edge": edgeKeyTable} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := differential(t, func(a arm, env *mapreduce.Env) ran {
				return runProbe(t, a, env, table(env, "probe", 800), table(env, "build", 120), probeOp(nil, nil))
			})
			if res.OutRecords == 0 {
				t.Fatal("join produced no rows; test is vacuous")
			}
		})
	}
}

// TestFallbackShapesMatchOracle covers the shapes a columnar kernel once
// declined and the per-record kernel ran: projection pushdown's pruned
// scan, shuffle and chain (the kernels prune each emitted row, a chain
// its probe row too), and a filter with no column-wise form — a UDF over
// the whole row, or over one column — evaluated once per row in record
// order on the task's context, beside a residual UDF in a chain.
func TestFallbackShapesMatchOracle(t *testing.T) {
	wholeRow, oneCol := call("keep_row", "t"), call("keep_seq", "t.seq")
	prune := map[string]map[string]bool{"t": {"k": true}, "b": {"k": true, "seq": true}}
	withPrune := func(op *OpSpec) *OpSpec { op.Prune = prune; return op }
	cases := map[string]func(a arm, env *mapreduce.Env) ran{
		"scan/pruned": func(a arm, env *mapreduce.Env) ran {
			return runScan(t, a, env, mixedKeyTable(env, "t", 1500), withPrune(scanOp(diffFilter())))
		},
		"scan/udf-row": func(a arm, env *mapreduce.Env) ran {
			return runScan(t, a, env, mixedKeyTable(env, "t", 1500), scanOp(wholeRow))
		},
		"scan/udf-row/pruned": func(a arm, env *mapreduce.Env) ran {
			return runScan(t, a, env, mixedKeyTable(env, "t", 1500), withPrune(scanOp(wholeRow)))
		},
		"shuffle/pruned": func(a arm, env *mapreduce.Env) ran {
			return runShuffle(t, a, env, mixedKeyTable(env, "t", 1500), withPrune(shuffleOp(diffFilter())))
		},
		"shuffle/udf-row": func(a arm, env *mapreduce.Env) ran {
			return runShuffle(t, a, env, edgeKeyTable(env, "t", 900), shuffleOp(wholeRow))
		},
		"shuffle/udf-col/pruned": func(a arm, env *mapreduce.Env) ran {
			return runShuffle(t, a, env, hugeKeyTable(env, "t", 900), withPrune(shuffleOp(oneCol)))
		},
		"chain/pruned": func(a arm, env *mapreduce.Env) ran {
			return runProbe(t, a, env, mixedKeyTable(env, "probe", 800), mixedKeyTable(env, "build", 120), withPrune(probeOp(nil, nil)))
		},
		"chain/udf-row": func(a arm, env *mapreduce.Env) ran {
			return runProbe(t, a, env, mixedKeyTable(env, "probe", 800), mixedKeyTable(env, "build", 120), probeOp(wholeRow, call("keep_match", "b.seq")))
		},
		"chain/udf-col/pruned": func(a arm, env *mapreduce.Env) ran {
			return runProbe(t, a, env, hugeKeyTable(env, "probe", 800), hugeKeyTable(env, "build", 120), withPrune(probeOp(oneCol, call("keep_match", "b.seq"))))
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := differential(t, run)
			if res.OutRecords == 0 {
				t.Fatal("job emitted no rows; test is vacuous")
			}
			if strings.Contains(name, "udf") != (res.totalCPU() > 0) {
				t.Fatalf("UDF cost charged %v", res.totalCPU())
			}
		})
	}
}

// TestAggregateMapMatchesOracle: the aggregate kernel walks the split's
// records and shuffles each under its group key, as the oracle's map
// did — with and without the map-side combiner.
func TestAggregateMapMatchesOracle(t *testing.T) {
	q := sqlparse.MustParse("SELECT t.k, COUNT(*) AS n, SUM(t.seq) AS s FROM t GROUP BY t.k")
	for _, combine := range []bool{false, true} {
		t.Run(fmt.Sprintf("combine=%v", combine), func(t *testing.T) {
			t.Parallel()
			res := differential(t, func(a arm, env *mapreduce.Env) ran {
				scanned := runScan(t, a, env, mixedKeyTable(env, "t", 1500), scanOp(nil)).Output
				op := &OpSpec{Kind: Aggregate, GroupBy: q.GroupBy, Select: q.Select, Combine: combine}
				spec, err := a.bind(op, mapreduce.Spec{Name: "diff-agg", Output: "diff-aggregated", NumReducers: 3}, scanned)
				return mustRun(t, env, spec, err)
			})
			if res.OutRecords < 10 {
				t.Fatalf("%d groups; test is vacuous", res.OutRecords)
			}
		})
	}
}

// TestBatchCacheConcurrentJobs runs the same scan concurrently over
// one shared file from independent environments (each with its own
// cluster simulator, sharing only the file system), so racing jobs
// contend on each split's auxiliary cache slot (CAS attach) and on
// lazy vector/selection construction under the split mutex — the
// sharing pattern of the concurrent query service. Run with -race, the
// test asserts the per-block cache is safe to share and that every job
// still observes identical output.
func TestBatchCacheConcurrentJobs(t *testing.T) {
	t.Parallel()
	base := testEnv()
	f := mixedKeyTable(base, "t", 1500)
	const jobs = 4
	results := make([][]data.Value, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			env := testEnv()
			env.FS = base.FS // shared blocks, private simulator
			op := &OpSpec{Kind: Scan, Source: &Source{Wrap: "t", Filter: diffFilter()}}
			spec, err := op.Bind(mapreduce.Spec{Name: "diff-concurrent", Output: "diff-concurrent-out-" + string(rune('a'+j))}, f)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := mapreduce.Run(env, spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[j] = res.Output.AllRecords()
		}(j)
	}
	wg.Wait()
	for j := 1; j < jobs; j++ {
		assertSameRecords(t, results[0], results[j])
	}
}

// TestChainFilterRunsBeforeEachRowsProbes: a chain whose probe source
// has a per-row filter (a UDF) and whose step has a UDF residual charges
// the task's one context in record order — a row's filter call, then its
// residual calls, then the next row's — so the kernel's float of CPU is
// the oracle's to the last bit. Rows whose key has no build match call
// the filter too. The same calls summed filter-first give another
// float, which the test checks it can tell apart.
func TestChainFilterRunsBeforeEachRowsProbes(t *testing.T) {
	reg := expr.NewRegistry()
	registerUDFs(reg)
	table := func(n, keys int) []data.Value {
		recs := make([]data.Value, n)
		for i := range recs {
			recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i % keys))}, data.Field{Name: "seq", Value: data.Int(int64(i))})
		}
		return recs
	}
	probe, build := table(600, 9), table(21, 7) // probe keys 7 and 8 match nothing
	ht, err := mapreduce.BuildHashTable(reg, BindBuild(mapreduce.Broadcast{Name: "b", Wrap: "b", KeyPaths: []data.Path{data.MustParsePath("b.k")}}, build[0]),
		[]mapreduce.Split{{Recs: build}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	op := &OpSpec{Kind: Chain, Source: &Source{Wrap: "t", Filter: call("keep_seq", "t.seq")},
		Steps: []ChainStep{{Build: "b", Keys: keyPath, Residual: call("keep_match", "b.seq")}}}
	run := func(compile func(*OpSpec, int, data.Value) (Kernels, error)) mapreduce.MapOutput {
		k, err := compile(op, 0, probe[0])
		if err != nil {
			t.Fatal(err)
		}
		out, err := mapreduce.RunMapTask(&mapreduce.MapTask{Reg: reg, Recs: probe, Aux: new(atomic.Value), Map: k.Map,
			Builds: map[string]*mapreduce.HashTable{"b": ht}})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := run(Compile), run(oracleCompile)
	assertSameRecords(t, got.Rows, want.Rows)
	if got.CPUMap != want.CPUMap || got.CPUTotal != want.CPUTotal {
		t.Errorf("kernel charged %v (total %v), oracle %v (total %v)", got.CPUMap, got.CPUTotal, want.CPUMap, want.CPUTotal)
	}
	// Every probe row calls the filter; each survivor with a key below 7
	// merges with the 3 build rows of its key, and every merge calls the
	// residual.
	var filterFirst float64
	for range probe {
		filterFirst += 0.0113
	}
	for i := range probe {
		if i%3 != 0 && i%9 < 7 {
			filterFirst += 3 * 0.0071
		}
	}
	if len(want.Rows) == 0 || filterFirst == want.CPUMap {
		t.Fatalf("vacuous: %d rows, filter-first sum %v equals the record-order sum", len(want.Rows), filterFirst)
	}
}

// TestScanTaskAnswersWithPositions: an unpruned scan's task hands over
// its split's image — the slice ScanImage returns, not a copy — at its
// selection, and those are the oracle's rows at the oracle's cost; a
// pruned scan emits rows of its own, as every other op does, and
// ScanImage refuses all of them.
func TestScanTaskAnswersWithPositions(t *testing.T) {
	reg := expr.NewRegistry()
	registerUDFs(reg)
	recs := make([]data.Value, 300)
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i % 7))}, data.Field{Name: "seq", Value: data.Int(int64(i))})
	}
	run := func(compile func(*OpSpec, int, data.Value) (Kernels, error), op *OpSpec, aux *atomic.Value) mapreduce.MapOutput {
		t.Helper()
		k, err := compile(op, 0, recs[0])
		if err != nil {
			t.Fatal(err)
		}
		out, err := mapreduce.RunMapTask(&mapreduce.MapTask{Reg: reg, Recs: recs, Aux: aux, Map: k.Map})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seqAtLeast := &expr.Cmp{Op: expr.GE, L: expr.NewCol("t.seq"), R: expr.NewLit(data.Int(100))}
	// A live-column map whose every set is nil (SELECT * under pushdown)
	// prunes nothing: the scan still answers with positions.
	allLive := scanOp(seqAtLeast)
	allLive.Prune = map[string]map[string]bool{"t": nil}
	for name, op := range map[string]*OpSpec{"all": scanOp(nil), "column-wise": scanOp(seqAtLeast), "udf-row": scanOp(call("keep_row", "t")), "all-live": allLive} {
		t.Run(name, func(t *testing.T) {
			aux := new(atomic.Value)
			got, want := run(Compile, op, aux), run(oracleCompile, op, new(atomic.Value))
			image, ok := ScanImage(op, batch.For(aux, recs))
			if !ok || got.Rows != nil || len(got.Sel) == 0 || &got.From[0] != &image[0] {
				t.Fatalf("the task emitted %d rows and %d positions, not positions into its split's image", len(got.Rows), len(got.Sel))
			}
			rows := make([]data.Value, len(got.Sel))
			for i, p := range got.Sel {
				rows[i] = image[p]
			}
			assertSameRecords(t, rows, want.Rows)
			if got.CPUMap != want.CPUMap {
				t.Errorf("kernel charged %v, oracle %v", got.CPUMap, want.CPUMap)
			}
		})
	}
	pruned := scanOp(seqAtLeast)
	pruned.Prune = map[string]map[string]bool{"t": {"k": true}}
	got, want := run(Compile, pruned, new(atomic.Value)), run(oracleCompile, pruned, new(atomic.Value))
	if got.Sel != nil {
		t.Fatal("a pruned scan answered with positions")
	}
	assertSameRecords(t, got.Rows, want.Rows)
	d := batch.For(nil, recs)
	for _, op := range []*OpSpec{pruned, shuffleOp(nil), probeOp(nil, nil), {Kind: Aggregate}} {
		if _, ok := ScanImage(op, d); ok {
			t.Errorf("ScanImage accepted a %s op (pruned: %v)", op.Kind, op.Prune != nil)
		}
	}
}

// TestPerRowFilterChargesEveryJob: a per-row filter's verdicts are never
// cached on the split. A UDF charges per call, so a second job over the
// same cached split pays n × cost again, like the first.
func TestPerRowFilterChargesEveryJob(t *testing.T) {
	env := testEnv()
	f := mixedKeyTable(env, "t", 1500)
	for job := 0; job < 2; job++ {
		res := runScan(t, kernelArm, env, f, scanOp(call("quarter", "t.seq")))
		if got := res.totalCPU(); got != 0.25*1500 || res.OutRecords != 1000 {
			t.Errorf("job %d charged %v for %d rows, want %v for 1000", job, got, res.OutRecords, 0.25*1500)
		}
	}
}
