package mapreduce

import (
	"errors"
	"fmt"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
)

// testEnv builds an environment with tiny blocks so jobs have several
// splits. Parallelism 4 makes the whole package exercise the pooled
// wave executor (run with -race); virtual results are identical at
// every pool size.
func testEnv(t *testing.T) *Env {
	t.Helper()
	cfg := cluster.Config{
		Workers:              2,
		MapSlotsPerWorker:    2,
		ReduceSlotsPerWorker: 2,
		SlotMemory:           100_000,
		JobStartup:           10,
		TaskOverhead:         1,
		ScanBps:              10_000,
		ShuffleBps:           5_000,
		WriteBps:             10_000,
		Parallelism:          4,
	}
	return &Env{
		FS:  dfs.New(dfs.WithBlockSize(600)),
		Sim: cluster.New(cfg),
		Reg: expr.NewRegistry(),
	}
}

// writeTable stores n rows {alias: {id, grp, pad}} and returns the file.
func writeTable(env *Env, name, alias string, n int) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		w.Append(data.Object(data.Field{Name: alias, Value: data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "grp", Value: data.Int(int64(i % 10))},
			data.Field{Name: "pad", Value: data.String("xxxxxxxxxxxxxxxxxxxxxxxx")},
		)}))
	}
	return w.Close()
}

// perRecord adapts a record-at-a-time test map to a map kernel: it
// walks the split's records in order.
func perRecord(fn func(mc *MapCtx, rec data.Value)) MapFunc {
	return func(mc *MapCtx, d *batch.Data) {
		for _, rec := range d.Records() {
			fn(mc, rec)
		}
	}
}

var identityMap = perRecord(func(mc *MapCtx, rec data.Value) { mc.Emit(rec) })

// shufflePairs is the test kernels' way into the shuffle: the pairs
// (keys[i], tag, recs[i]), all of them, through one ShuffleSel call over
// columns it builds by definition (data.NormKey, data.Hash64).
func shufflePairs(mc *MapCtx, keys, recs []data.Value, tag string) {
	nks := make([]string, len(keys))
	hashes := make([]uint64, len(keys))
	sel := make([]int32, len(keys))
	for i, k := range keys {
		nks[i], hashes[i], sel[i] = data.NormKey(k), data.Hash64(k), int32(i)
	}
	mc.ShuffleSel(keys, nks, hashes, recs, sel, tag)
}

// keyedBy is a test shuffle kernel: every record of the split, in
// order, under the key keyOf gives it.
func keyedBy(tag string, keyOf func(rec data.Value) data.Value) MapFunc {
	return func(mc *MapCtx, d *batch.Data) {
		recs := d.Records()
		keys := make([]data.Value, len(recs))
		for i, rec := range recs {
			keys[i] = keyOf(rec)
		}
		shufflePairs(mc, keys, recs, tag)
	}
}

// bound gives a declared build side a kernel of the kind
// physop.BindBuild compiles (that package sits above this one): wrap,
// filter, key, emit the pair.
func bound(b Broadcast) Broadcast {
	b.Map = func(mc *MapCtx, d *batch.Data) {
		var keys, rows []data.Value
		for _, rec := range d.Records() {
			row := rec
			if b.Wrap != "" {
				row = data.Object(data.Field{Name: b.Wrap, Value: rec})
			}
			if b.Filter == nil || b.Filter.Eval(mc.ExprCtx(), row).Truthy() {
				keys, rows = append(keys, CompositeKey(row, b.KeyPaths)), append(rows, row)
			}
		}
		shufflePairs(mc, keys, rows, "")
	}
	return b
}

func TestMapOnlyFilterJob(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 200)
	pred := &expr.Cmp{Op: expr.LT, L: expr.NewCol("a.id"), R: expr.NewLit(data.Int(50))}
	res, err := Run(env, Spec{
		Name: "filter",
		Inputs: []Input{{File: f, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			if pred.Eval(mc.ExprCtx(), rec).Truthy() {
				mc.Emit(rec)
			}
		})}},
		Output:       "out",
		CollectStats: []data.Path{data.MustParsePath("a.id")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutRecords != 50 || res.Stats.InRecords != 200 {
		t.Errorf("in=%d out=%d", res.Stats.InRecords, res.OutRecords)
	}
	if res.Output.NumRecords() != 50 {
		t.Errorf("output file has %d records", res.Output.NumRecords())
	}
	if !res.WholeInput {
		t.Error("whole input should have been consumed")
	}
	if res.Stats == nil || res.Stats.InRecords != 4*res.Stats.OutRecords {
		t.Errorf("stats saw %d of %d records, want a quarter", res.Stats.OutRecords, res.Stats.InRecords)
	}
	col, ok := res.Stats.Exact().Col("a.id")
	if !ok || col.NDV != 50 {
		t.Errorf("col stats = %+v ok=%v", col, ok)
	}
	// Deterministic output order: ids ascending (split order).
	recs := res.Output.AllRecords()
	for i := 1; i < len(recs); i++ {
		if recs[i-1].FieldOr("a").FieldOr("id").Int() > recs[i].FieldOr("a").FieldOr("id").Int() {
			t.Fatal("output order not deterministic by split")
		}
	}
}

func TestRepartitionJoin(t *testing.T) {
	env := testEnv(t)
	left := writeTable(env, "l", "l", 60)
	right := writeTable(env, "r", "r", 30)
	keyL := data.MustParsePath("l.grp")
	keyR := data.MustParsePath("r.grp")
	res, sub, err := runSub(env, Spec{
		Name: "join",
		Inputs: []Input{
			{File: left, Map: keyedBy("L", keyL.Eval)},
			{File: right, Map: keyedBy("R", keyR.Eval)},
		},
		Reduce: func(rc *ReduceCtx, key data.Value, group []Pair) {
			var ls, rs []data.Value
			for _, g := range group {
				if g.Tag == "L" {
					ls = append(ls, g.Rec)
				} else {
					rs = append(rs, g.Rec)
				}
			}
			for _, l := range ls {
				for _, r := range rs {
					rc.Emit(data.MergeObjects(l, r))
				}
			}
		},
		Output:      "joined",
		NumReducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 60 left rows × 3 right matches per group (30 rows / 10 groups).
	if res.OutRecords != 180 {
		t.Errorf("join output = %d, want 180", res.OutRecords)
	}
	if n := reduceTasks(sub); n != 3 {
		t.Errorf("reducers = %d", n)
	}
	// Verify a joined row carries both sides.
	rec := res.Output.AllRecords()[0]
	if rec.FieldOr("l").IsNull() || rec.FieldOr("r").IsNull() {
		t.Errorf("joined record missing side: %v", rec)
	}
	lg := rec.FieldOr("l").FieldOr("grp").Int()
	rg := rec.FieldOr("r").FieldOr("grp").Int()
	if lg != rg {
		t.Errorf("join key mismatch: %d vs %d", lg, rg)
	}
}

func TestBroadcastJoin(t *testing.T) {
	env := testEnv(t)
	big := writeTable(env, "big", "b", 100)
	small := writeTable(env, "small", "s", 10) // ids 0..9 = b.grp domain
	res, sub, err := runSub(env, Spec{
		Name: "bjoin",
		Inputs: []Input{{File: big, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			ht := mc.Build("s")
			for _, m := range ht.Probe(rec.FieldOr("b").FieldOr("grp")) {
				mc.Emit(data.MergeObjects(rec, m))
			}
		})}},
		Broadcasts: []Broadcast{bound(Broadcast{Name: "s", File: small, KeyPaths: []data.Path{data.MustParsePath("s.id")}})},
		Output:     "bjoined",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutRecords != 100 {
		t.Errorf("broadcast join output = %d, want 100", res.OutRecords)
	}
	if reduceTasks(sub) != 0 {
		t.Error("broadcast join must be map-only")
	}
}

// runSub is Run that also returns the finished submission.
func runSub(env *Env, spec Spec) (*Result, *cluster.Submission, error) {
	j, sub, err := Submit(env, spec)
	if err != nil {
		return nil, nil, err
	}
	if err := env.RunUntil(sub.Done); err != nil {
		return nil, nil, err
	}
	if sub.Err() != nil {
		return nil, nil, sub.Err()
	}
	res, err := j.Result()
	return res, sub, err
}

// reduceTasks counts the reduce tasks a finished submission ran.
func reduceTasks(sub *cluster.Submission) int {
	n := 0
	for _, t := range sub.CompletedTasks() {
		if t.Kind == cluster.ReduceTask {
			n++
		}
	}
	return n
}

func TestBroadcastOOM(t *testing.T) {
	env := testEnv(t)
	env.Sim = cluster.New(cluster.Config{
		Workers: 1, MapSlotsPerWorker: 1, ReduceSlotsPerWorker: 1,
		SlotMemory: 10, // tiny
		JobStartup: 1, TaskOverhead: 1, ScanBps: 1000, ShuffleBps: 1000, WriteBps: 1000,
		Parallelism: 4,
	})
	big := writeTable(env, "big", "b", 20)
	small := writeTable(env, "small", "s", 10)
	_, err := Run(env, Spec{
		Name:   "oom",
		Inputs: []Input{{File: big, Map: identityMap}},
		Broadcasts: []Broadcast{
			bound(Broadcast{Name: "s", File: small, KeyPaths: []data.Path{data.MustParsePath("s.id")}}),
		},
		Output: "x",
	})
	if err == nil || !errors.Is(err, errBroadcastOOM) {
		t.Fatalf("err = %v, want errBroadcastOOM", err)
	}
}

func TestDistributedCacheReducesLatency(t *testing.T) {
	durations := make([]float64, 2)
	for i, dc := range []bool{false, true} {
		env := testEnv(t)
		env.DistributedCache = dc
		big := writeTable(env, "big", "b", 400)
		small := writeTable(env, "small", "s", 10)
		j, sub, err := Submit(env, Spec{
			Name:   "dc",
			Inputs: []Input{{File: big, Map: identityMap}},
			Broadcasts: []Broadcast{
				bound(Broadcast{Name: "s", File: small, KeyPaths: []data.Path{data.MustParsePath("s.id")}}),
			},
			Output: "x",
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Result(); err != nil {
			t.Fatal(err)
		}
		durations[i] = sub.Duration()
	}
	if durations[1] >= durations[0] {
		t.Errorf("distributed cache %v should beat per-task load %v", durations[1], durations[0])
	}
}

func TestPilotEarlyTermination(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 2000)
	res, err := Run(env, Spec{
		Name:      "pilot-st",
		Inputs:    []Input{{File: f, Map: identityMap}},
		Output:    "sample",
		StopAfter: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitsRun >= res.SplitsTotal {
		t.Errorf("ran %d/%d splits; early termination failed", res.SplitsRun, res.SplitsTotal)
	}
	if res.OutRecords < 40 {
		t.Errorf("emitted %d records, want >= 40", res.OutRecords)
	}
	if res.WholeInput {
		t.Error("WholeInput should be false")
	}
}

// TestSameNamePilotsCountApart: a pilot's output counter is its job's,
// not its name's. Two pilots named alike on one environment each stop
// where they stop alone; one's completion does not reset the other's
// count, and neither counts the other's records.
func TestSameNamePilotsCountApart(t *testing.T) {
	pilot := func(f *dfs.File, output string) Spec {
		return Spec{Name: "p", Inputs: []Input{{File: f, Map: identityMap}}, Output: output, StopAfter: 40}
	}
	alone := testEnv(t)
	want, err := Run(alone, pilot(writeTable(alone, "t", "a", 2000), "sample"))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	f := writeTable(env, "t", "a", 2000)
	var jobs [2]*Job
	for i := range jobs {
		jobs[i], _, err = Submit(env, pilot(f, fmt.Sprintf("sample%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		got, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got.SplitsRun != want.SplitsRun || got.OutRecords != want.OutRecords {
			t.Errorf("pilot %d beside its namesake: %d splits / %d rows, alone: %d / %d",
				i, got.SplitsRun, got.OutRecords, want.SplitsRun, want.OutRecords)
		}
	}
}

func TestPilotOnDemandSplits(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 2000)
	total := f.NumBlocks()
	if total < 6 {
		t.Fatalf("need several blocks, got %d", total)
	}
	// Very selective filter: initial 2 splits cannot yield 40 records,
	// so reserve splits must be pulled in.
	var reserve []int
	for s := 2; s < total; s++ {
		reserve = append(reserve, s)
	}
	res, err := Run(env, Spec{
		Name: "pilot-mt",
		Inputs: []Input{{File: f, Splits: []int{0, 1}, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			if rec.FieldOr("a").FieldOr("id").Int()%10 == 0 {
				mc.Emit(rec)
			}
		})}},
		Output:     "sample",
		StopAfter:  40,
		MoreSplits: [][]int{reserve},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitsRun <= 2 {
		t.Errorf("ran only %d splits; reserve splits not added", res.SplitsRun)
	}
	if res.OutRecords < 40 {
		t.Errorf("emitted %d, want >= 40", res.OutRecords)
	}
}

func TestPilotFinishThreshold(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 300)
	res, err := Run(env, Spec{
		Name:                 "pilot-finish",
		Inputs:               []Input{{File: f, Map: identityMap}},
		Output:               "sample",
		StopAfter:            5,
		FinishIfFractionDone: 0.01, // effectively always finish
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WholeInput {
		t.Errorf("FinishIfFractionDone should let the job complete (%d/%d)", res.SplitsRun, res.SplitsTotal)
	}
}

func TestReduceStatsCollected(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 100)
	key := data.MustParsePath("a.grp")
	res, err := Run(env, Spec{
		Name:   "grp",
		Inputs: []Input{{File: f, Map: keyedBy("", key.Eval)}},
		Reduce: func(rc *ReduceCtx, k data.Value, group []Pair) {
			rc.Emit(data.Object(
				data.Field{Name: "g", Value: data.Object(
					data.Field{Name: "grp", Value: k},
					data.Field{Name: "cnt", Value: data.Int(int64(len(group)))},
				)},
			))
		},
		Output:       "agg",
		NumReducers:  2,
		CollectStats: []data.Path{data.MustParsePath("g.grp")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutRecords != 10 {
		t.Errorf("groups = %d, want 10", res.OutRecords)
	}
	ts := res.Stats.Exact()
	if ts.Card != 10 {
		t.Errorf("stats card = %v", ts.Card)
	}
	if ndv := ts.Cols["g.grp"].NDV; ndv != 10 {
		t.Errorf("grp NDV = %v, want 10", ndv)
	}
	// Each group has exactly 10 members.
	for _, rec := range res.Output.AllRecords() {
		if cnt := rec.FieldOr("g").FieldOr("cnt").Int(); cnt != 10 {
			t.Errorf("group count = %d, want 10", cnt)
		}
	}
}

func TestUDFCostChargedToTask(t *testing.T) {
	env := testEnv(t)
	env.Reg.Register(expr.UDF{
		Name:    "expensive",
		CPUCost: 0.5,
		Fn:      func(args []data.Value) data.Value { return data.Bool(true) },
	})
	f := writeTable(env, "t", "a", 20)
	call := &expr.Call{Name: "expensive", Args: []expr.Expr{expr.NewCol("a")}}
	j, sub, err := Submit(env, Spec{
		Name: "udf",
		Inputs: []Input{{File: f, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			if call.Eval(mc.ExprCtx(), rec).Truthy() {
				mc.Emit(rec)
			}
		})}},
		Output: "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var cpu float64
	for _, task := range sub.CompletedTasks() {
		cpu += task.Usage().CPUSeconds
	}
	if cpu != 10.0 {
		t.Errorf("total UDF CPU = %v, want 10.0 (20 calls × 0.5)", cpu)
	}
	_ = res
}

func TestUnknownUDFFailsJob(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 5)
	call := &expr.Call{Name: "missing"}
	_, err := Run(env, Spec{
		Name: "bad",
		Inputs: []Input{{File: f, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			call.Eval(mc.ExprCtx(), rec)
			mc.Emit(rec)
		})}},
		Output: "out",
	})
	if err == nil {
		t.Fatal("unknown UDF should fail the job")
	}
}

func TestSpecValidation(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 5)
	cases := []Spec{
		{},
		{Name: "x"},
		{Name: "x", Inputs: []Input{{File: f, Map: identityMap}}},
		{Name: "x", Inputs: []Input{{File: f, Map: identityMap}}, Output: "o",
			MoreSplits: [][]int{{1}, {2}}},
	}
	for i, spec := range cases {
		if _, err := newJob(env, spec); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
	if _, err := newJob(nil, Spec{}); err == nil {
		t.Error("nil env should fail")
	}
}

func TestDefaultReducersScaleWithInput(t *testing.T) {
	env := testEnv(t)
	env.BytesPerReducer = 2000
	f := writeTable(env, "t", "a", 300)
	key := data.MustParsePath("a.grp")
	j, err := newJob(env, Spec{
		Name:   "auto",
		Inputs: []Input{{File: f, Map: keyedBy("", key.Eval)}},
		Reduce: func(rc *ReduceCtx, k data.Value, group []Pair) {},
		Output: "o",
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.numReducers < 2 {
		t.Errorf("numReducers = %d, want input-proportional (>1)", j.numReducers)
	}
}

func TestReducersForBounds(t *testing.T) {
	env := testEnv(t)
	if got := ReducersFor(env, 0); got != 1 {
		t.Errorf("zero shuffle reducers = %d", got)
	}
	env.BytesPerReducer = 100
	if got := ReducersFor(env, 350); got != 3 {
		t.Errorf("350B/100B = %d, want 3", got)
	}
	if got := ReducersFor(env, 1e9); got != env.Sim.Config().ReduceSlots()*2 {
		t.Errorf("huge shuffle should cap at 2x slots: %d", got)
	}
}

func TestJobsChainViaOnDone(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 50)
	j1, sub1, err := Submit(env, Spec{
		Name:   "first",
		Inputs: []Input{{File: f, Map: identityMap}},
		Output: "mid",
	})
	if err != nil {
		t.Fatal(err)
	}
	var j2 *Job
	sub1.OnDone(func(*cluster.Submission) {
		res, err := j1.Result()
		if err != nil {
			t.Error(err)
			return
		}
		j2, _, err = Submit(env, Spec{
			Name:   "second",
			Inputs: []Input{{File: res.Output, Map: identityMap}},
			Output: "final",
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	res2, err := j2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res2.OutRecords != 50 {
		t.Errorf("chained output = %d", res2.OutRecords)
	}
}

func TestResultBeforeCompletion(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 5)
	j, _, err := Submit(env, Spec{
		Name: "x", Inputs: []Input{{File: f, Map: identityMap}}, Output: "o",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); err == nil {
		t.Error("Result before Run should fail")
	}
}

func TestHashTableProbeCollisionSafety(t *testing.T) {
	env := testEnv(t)
	w := env.FS.Create("s")
	for i := 0; i < 50; i++ {
		w.Append(data.Object(data.Field{Name: "s", Value: data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i))},
		)}))
	}
	f := w.Close()
	ht, err := BuildHashTable(env.Reg, bound(Broadcast{Name: "s", KeyPaths: []data.Path{data.MustParsePath("s.k")}}),
		[]Split{{Recs: f.AllRecords()}}, env.FS.ByteScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ht.Rows() != 50 {
		t.Errorf("rows = %d", ht.Rows())
	}
	hits := ht.Probe(data.Int(7))
	if len(hits) != 1 || hits[0].FieldOr("s").FieldOr("k").Int() != 7 {
		t.Errorf("probe(7) = %v", hits)
	}
	if got := ht.Probe(data.Int(999)); len(got) != 0 {
		t.Errorf("probe(999) = %v", got)
	}
}

// TestIndexComparesKeysOnSharedTags drives the index with hashes chosen
// to collide, which a seeded hash makes too rare to meet by chance: keys
// sharing a whole hash (one probe run, one tag), keys sharing only the
// tag, and absent keys with either, so every probe past a tag match must
// compare keys to answer.
func TestIndexComparesKeysOnSharedTags(t *testing.T) {
	const tag = 0xfeedface << 32
	hashes := map[string]uint64{"a": tag | 3, "b": tag | 3, "c": tag | 3, "d": tag | 4, "e": 7<<32 | 3}
	h := &HashTable{slots: make([]uint64, 16)}
	ids := map[string]uint32{}
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		ids[k] = h.add(hashes[k], k)
	}
	if len(h.keys) != len(hashes) {
		t.Fatalf("%d groups for %d keys: %q", len(h.keys), len(hashes), h.keys)
	}
	for k, hv := range hashes {
		if id := h.add(hv, k); id != ids[k] || h.keys[id-1] != k {
			t.Errorf("add(%q) again: group %d (key %q), first %d", k, id, h.keys[id-1], ids[k])
		}
		if sl := h.find(hv, func(s string) bool { return s == k }); uint32(h.slots[sl]) != ids[k] {
			t.Errorf("find(%q): slot of group %d, want %d", k, uint32(h.slots[sl]), ids[k])
		}
	}
	for _, hv := range []uint64{tag | 3, tag | 4, 7<<32 | 3} {
		if sl := h.find(hv, func(s string) bool { return s == "z" }); h.slots[sl] != 0 {
			t.Errorf("find(absent key, %#x) = a full slot, group %d", hv, uint32(h.slots[sl]))
		}
	}
}

func TestMapOnlyOutputCountsBytes(t *testing.T) {
	env := testEnv(t)
	env.FS.SetByteScale(100)
	f := writeTable(env, "t", "a", 20)
	j, sub, err := Submit(env, Spec{
		Name:   "bytes",
		Inputs: []Input{{File: f, Map: identityMap}},
		Output: "o",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, task := range sub.CompletedTasks() {
		written += task.Usage().BytesWritten
	}
	if written != res.OutputVirtual {
		t.Errorf("task BytesWritten %d != output virtual size %d", written, res.OutputVirtual)
	}
	_ = fmt.Sprint(res)
}

func TestBroadcastWrapAndFilter(t *testing.T) {
	env := testEnv(t)
	// Raw (unwrapped) dimension records.
	w := env.FS.Create("dim")
	for i := 0; i < 30; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i))},
			data.Field{Name: "flag", Value: data.Int(int64(i % 3))},
		))
	}
	dim := w.Close()
	big := writeTable(env, "big", "b", 90)
	filter := &expr.Cmp{Op: expr.EQ, L: expr.NewCol("s.flag"), R: expr.NewLit(data.Int(0))}
	res, err := Run(env, Spec{
		Name: "wrapped",
		Inputs: []Input{{File: big, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			for _, m := range mc.Build("s").Probe(rec.FieldOr("b").FieldOr("grp")) {
				mc.Emit(data.MergeObjects(rec, m))
			}
		})}},
		Broadcasts: []Broadcast{bound(Broadcast{
			Name: "s", File: dim, KeyPaths: []data.Path{data.MustParsePath("s.k")},
			Wrap: "s", Filter: filter,
		})},
		Output: "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	// b.grp in 0..9; dim keys 0..29 with flag==0 for k%3==0, so grp 0,3,6,9
	// match: 4 of 10 groups × 9 rows each = 36.
	if res.OutRecords != 36 {
		t.Errorf("filtered broadcast join output = %d, want 36", res.OutRecords)
	}
	rec := res.Output.AllRecords()[0]
	if rec.FieldOr("s").FieldOr("k").IsNull() {
		t.Errorf("wrapped build side missing in output: %v", rec)
	}
}

func TestBroadcastFilterPrepChargedOnce(t *testing.T) {
	env := testEnv(t)
	env.Reg.Register(expr.UDF{
		Name:    "dimfilter",
		CPUCost: 1.0,
		Fn: func(args []data.Value) data.Value {
			return data.Bool(args[0].FieldOr("flag").Int() == 0)
		},
	})
	w := env.FS.Create("dim")
	for i := 0; i < 30; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i))},
			data.Field{Name: "flag", Value: data.Int(int64(i % 3))},
		))
	}
	dim := w.Close()
	big := writeTable(env, "big", "b", 200)
	filter := &expr.Call{Name: "dimfilter", Args: []expr.Expr{expr.NewCol("s")}}
	j, sub, err := Submit(env, Spec{
		Name: "prep",
		Inputs: []Input{{File: big, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			mc.Emit(rec)
		})}},
		Broadcasts: []Broadcast{bound(Broadcast{
			Name: "s", File: dim, KeyPaths: []data.Path{data.MustParsePath("s.k")},
			Wrap: "s", Filter: filter,
		})},
		Output: "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	// The build-preparation stage (an extra job startup plus the
	// distributed dim scan and UDF work) is charged exactly once
	// across all map tasks, not once per task.
	var prepTasks int
	for _, task := range sub.CompletedTasks() {
		if task.Usage().ExtraLatency > 9 {
			prepTasks++
		}
	}
	if prepTasks != 1 {
		t.Errorf("prep charged on %d tasks, want exactly 1", prepTasks)
	}
	if len(sub.CompletedTasks()) < 2 {
		t.Fatal("test needs multiple map tasks")
	}
}

func TestBroadcastOOMUsesFilteredSize(t *testing.T) {
	// A big base file whose filtered build fits in memory must not OOM.
	env := testEnv(t)
	env.Sim = cluster.New(cluster.Config{
		Workers: 1, MapSlotsPerWorker: 2, ReduceSlotsPerWorker: 1,
		SlotMemory: 600, // only a handful of rows fit
		JobStartup: 1, TaskOverhead: 1, ScanBps: 1000, ShuffleBps: 1000, WriteBps: 1000,
		Parallelism: 4,
	})
	w := env.FS.Create("dim")
	for i := 0; i < 200; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i))},
		))
	}
	dim := w.Close()
	big := writeTable(env, "big", "b", 20)
	selective := &expr.Cmp{Op: expr.LT, L: expr.NewCol("s.k"), R: expr.NewLit(data.Int(5))}
	_, err := Run(env, Spec{
		Name:   "fits",
		Inputs: []Input{{File: big, Map: identityMap}},
		Broadcasts: []Broadcast{bound(Broadcast{
			Name: "s", File: dim, KeyPaths: []data.Path{data.MustParsePath("s.k")},
			Wrap: "s", Filter: selective,
		})},
		Output: "out",
	})
	if err != nil {
		t.Fatalf("filtered build should fit: %v", err)
	}
	// Without the filter the same build must OOM.
	_, err = Run(env, Spec{
		Name:   "toolarge",
		Inputs: []Input{{File: big, Map: identityMap}},
		Broadcasts: []Broadcast{bound(Broadcast{
			Name: "s", File: dim, KeyPaths: []data.Path{data.MustParsePath("s.k")}, Wrap: "s",
		})},
		Output: "out2",
	})
	if !errors.Is(err, errBroadcastOOM) {
		t.Errorf("unfiltered build should OOM, got %v", err)
	}
}
