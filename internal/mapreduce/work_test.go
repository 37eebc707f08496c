package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/stats"
)

// TestPilotStaysLazy: a pilot job (StopAfter) with more initial splits
// than the cluster has map slots cancels its queued splits once the
// sample is large enough, and its map function must have seen the
// records of the dispatched splits only — its tasks carry no Work, so
// nothing is scanned ahead of dispatch.
func TestPilotStaysLazy(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 2000)
	if slots := env.ClusterConfig().MapSlots(); f.NumBlocks() <= 3*slots {
		t.Fatalf("need an input much wider than %d map slots, got %d splits", slots, f.NumBlocks())
	}
	var mapped atomic.Int64
	j, sub, err := Submit(env, Spec{
		Name: "pilot-lazy",
		Inputs: []Input{{File: f, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			mapped.Add(1)
			mc.Emit(rec)
		})}},
		Output:       "sample",
		StopAfter:    40,
		CollectStats: []data.Path{data.MustParsePath("a.id")},
	})
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
	for _, task := range sub.CompletedTasks() {
		if task.Work != nil {
			t.Errorf("pilot task %s has Work: it would be computed before its dispatch", task.Name)
		}
	}
	dispatched := res.Stats.InRecords
	if res.SplitsRun != len(sub.CompletedTasks()) || res.SplitsRun >= res.SplitsTotal {
		t.Errorf("ran %d of %d splits (%d completed tasks); want early termination",
			res.SplitsRun, res.SplitsTotal, len(sub.CompletedTasks()))
	}
	if got := mapped.Load(); got != dispatched || got >= f.NumRecords() {
		t.Errorf("map function saw %d records, the %d dispatched splits hold %d (file: %d)",
			got, res.SplitsRun, dispatched, f.NumRecords())
	}
}

// digest renders what a finished job published: the Result's counters,
// the reduce tasks it ran, a hash of the output file's records in order,
// the merged statistics and the submission's virtual makespan.
func digest(res *Result, sub *cluster.Submission) string {
	h := fnv.New64a()
	for _, rec := range res.Output.AllRecords() {
		fmt.Fprintln(h, rec.String())
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "out=%d reduces=%d splits=%d/%d whole=%v virtual=%d blocks=%d hash=%016x duration=%v",
		res.OutRecords, reduceTasks(sub), res.SplitsRun, res.SplitsTotal,
		res.WholeInput, res.OutputVirtual, res.Output.NumBlocks(), h.Sum64(), sub.Duration())
	if res.Stats != nil {
		fmt.Fprintf(&sb, " stats[in=%d out=%d bytes=%d %s]",
			res.Stats.InRecords, res.Stats.OutRecords, res.Stats.OutBytes, res.Stats.Exact())
	}
	return sb.String()
}

// TestWideJobResultPinned: jobs several times wider than the slot count
// — map-only, map-reduce, map-reduce with a combiner — publish exactly
// what they published when every task ran its loop at its own dispatch:
// the strings below were recorded at the commit before Task.Work.
func TestWideJobResultPinned(t *testing.T) {
	grp := data.MustParsePath("a.grp")
	emitKV := perRecord(func(mc *MapCtx, rec data.Value) { mc.EmitKV(grp.Eval(rec), "L", rec) })
	count := func(rc *ReduceCtx, key data.Value, group []Pair) {
		var n int64
		for _, g := range group {
			if c := g.Rec.FieldOr("n"); !c.IsNull() {
				n += c.Int()
			} else {
				n++
			}
		}
		rc.Emit(data.Object(data.Field{Name: "grp", Value: key}, data.Field{Name: "n", Value: data.Int(n)}))
	}
	stats := []data.Path{data.MustParsePath("a.id"), data.MustParsePath("grp")}
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Name: "wide-map", Inputs: []Input{{Map: perRecord(func(mc *MapCtx, rec data.Value) {
			if rec.FieldOr("a").FieldOr("id").Int()%3 == 0 {
				mc.Emit(rec)
			}
		})}}}, "out=500 reduces=0 splits=150/150 whole=true virtual=29128 blocks=50 hash=dd890d044474cea0 duration=50.94820000000003 stats[in=1500 out=500 bytes=29128 card=500 avg=58.3B a.id{ndv=475} grp{ndv=0}]"},
		{Spec{Name: "wide-mr", Inputs: []Input{{Map: emitKV}}, Reduce: count, NumReducers: 6},
			"out=10 reduces=6 splits=150/150 whole=true virtual=180 blocks=1 hash=72a7a5818aaa70b2 duration=64.38999999999999 stats[in=0 out=10 bytes=180 card=10 avg=18.0B a.id{ndv=0} grp{ndv=10}]"},
		{Spec{Name: "wide-combine", Inputs: []Input{{Map: emitKV}}, Reduce: count, Combine: count, NumReducers: 6},
			"out=10 reduces=6 splits=150/150 whole=true virtual=180 blocks=1 hash=72a7a5818aaa70b2 duration=54.83900000000003 stats[in=0 out=10 bytes=180 card=10 avg=18.0B a.id{ndv=0} grp{ndv=10}]"},
	}
	for _, tc := range cases {
		env := testEnv(t)
		f := writeTable(env, "t", "a", 1500)
		if slots := env.ClusterConfig().MapSlots(); f.NumBlocks() <= 3*slots {
			t.Fatalf("need an input much wider than %d map slots, got %d splits", slots, f.NumBlocks())
		}
		spec := tc.spec
		spec.Inputs[0].File, spec.Output, spec.CollectStats, spec.KMVSize = f, "out", stats, 64
		j, sub, err := Submit(env, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.RunUntil(sub.Done); err != nil || sub.Err() != nil {
			t.Fatal(spec.Name, err, sub.Err())
		}
		res, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(res, sub); got != tc.want {
			t.Errorf("%s published\n  %s\nwant\n  %s", spec.Name, got, tc.want)
		}
	}
}

// TestBucketsShareOneArray: a task whose kernel hands over its columns
// (ShuffleSel) keeps them, not copies: its output's columns are the
// kernel's own arrays, and its positions are one array of exactly the
// selected count, each partition's window its run of that array, in
// partition order — one Idx per task, not one bucket per (task,
// reducer).
func TestBucketsShareOneArray(t *testing.T) {
	const reducers = 8
	recs := make([]data.Value, 40)
	keys := make([]data.Value, len(recs))
	nks := make([]string, len(recs))
	hs := make([]uint64, len(recs))
	var sel []int32
	key := data.MustParsePath("k")
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i % 7))})
		keys[i] = key.Eval(recs[i])
		nk, _ := data.AppendNormKey(nil, keys[i])
		nks[i], hs[i] = string(nk), data.Hash64(keys[i])
		if i%4 != 3 {
			sel = append(sel, int32(i))
		}
	}
	out, err := RunMapTask(&MapTask{Recs: recs, NumReducers: reducers, Map: func(mc *MapCtx, d *batch.Data) {
		mc.ShuffleSel(keys, nks, hs, recs, sel, "L")
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Shuffled
	if &s.Keys[0] != &keys[0] || &s.NK[0] != &nks[0] || &s.Recs[0] != &recs[0] {
		t.Error("the output copied the columns it was handed")
	}
	if len(s.Idx) != len(sel) || cap(s.Idx) != len(sel) || len(s.Offs) != reducers+1 || s.NumParts() != reducers {
		t.Fatalf("%d positions (cap %d) under %d offsets, want %d exactly under %d", len(s.Idx), cap(s.Idx), len(s.Offs), len(sel), reducers+1)
	}
	var at int32
	for p := range reducers {
		window := s.Part(p)
		if s.Offs[p] != at || len(window) > 0 && &window[0] != &s.Idx[at] {
			t.Errorf("partition %d is not its run of the array", p)
		}
		for _, i := range window {
			if int(data.Hash64(s.Keys[i])%reducers) != p || i%4 == 3 {
				t.Errorf("partition %d holds position %d, key %v", p, i, s.Keys[i])
			}
		}
		at += int32(len(window))
	}
	if int(at) != len(sel) || s.Part(reducers) != nil {
		t.Errorf("windows hold %d pairs, want %d; Part past the last is %v", at, len(sel), s.Part(reducers))
	}
}

// TestPartitionedMatchesOracle holds a map task's shuffle output to a
// bucket-per-partition oracle: window p holds exactly the emitted pairs
// whose key hashes to p, in emit order — or, for a combining task, the
// combiner's output over them, group by group in key order — whether
// the kernel handed over columns and a selection or emitted pair by
// pair, with reducers outnumbering the keys so some windows are empty.
func TestPartitionedMatchesOracle(t *testing.T) {
	key := data.MustParsePath("k")
	// The combiner keeps a group's first record and drops groups of odd
	// keys, so windows shrink, some to nothing.
	evenFirst := func(rc *ReduceCtx, k data.Value, group []Pair) {
		if k.Int()%2 == 0 {
			rc.Emit(group[0].Rec)
		}
	}
	for seed := range int64(6) {
		rng := rand.New(rand.NewPCG(uint64(seed), 1))
		recs := make([]data.Value, 300)
		keys := make([]data.Value, len(recs))
		nks := make([]string, len(recs))
		hs := make([]uint64, len(recs))
		var sel []int32 // the records the kernel emits, in order
		for i := range recs {
			recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(rng.Int64N(40))}, data.Field{Name: "i", Value: data.Int(int64(i))})
			keys[i] = key.Eval(recs[i])
			nk, _ := data.AppendNormKey(nil, keys[i])
			nks[i], hs[i] = string(nk), data.Hash64(keys[i])
			if rng.IntN(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		for _, reducers := range []int{1, 3, 8, 97} {
			want := make([][]Pair, reducers)
			for _, i := range sel {
				p := hs[i] % uint64(reducers)
				want[p] = append(want[p], Pair{Key: key.Eval(recs[i]), Tag: "L", Rec: recs[i]})
			}
			for _, tc := range []struct {
				name          string
				cols, combine bool
			}{{"columns", true, false}, {"emitted", false, false}, {"columns+combined", true, true}, {"emitted+combined", false, true}} {
				task := &MapTask{Recs: recs, NumReducers: reducers, Map: func(mc *MapCtx, d *batch.Data) {
					if tc.cols {
						mc.ShuffleSel(keys, nks, hs, recs, sel, "L")
						return
					}
					for _, i := range sel {
						mc.EmitKV(key.Eval(recs[i]), "L", recs[i])
					}
				}}
				if tc.combine {
					task.Combine = evenFirst
				}
				out, err := RunMapTask(task)
				if err != nil {
					t.Fatal(err)
				}
				s := out.Shuffled
				if s.NumParts() != reducers || s.Offs[0] != 0 || int(s.Offs[reducers]) != len(s.Idx) {
					t.Fatalf("seed %d, %d reducers, %s: offsets %v over %d positions", seed, reducers, tc.name, s.Offs, len(s.Idx))
				}
				for p := range reducers {
					expect := want[p]
					if tc.combine {
						expect = combineOracle(expect, evenFirst)
					}
					if got := pairStrings(s.AppendPart(nil, p)); !reflect.DeepEqual(got, pairStrings(expect)) {
						t.Fatalf("seed %d, %d reducers, %s: window %d is\n  %v\nwant\n  %v", seed, reducers, tc.name, p, got, pairStrings(expect))
					}
				}
			}
		}
	}
}

// combineOracle folds pairs as a combiner sees them: stably sorted by
// data.Compare on the key, one call per run of equal keys.
func combineOracle(pairs []Pair, combine ReduceFunc) []Pair {
	pairs = slices.Clone(pairs)
	slices.SortStableFunc(pairs, func(a, b Pair) int { return data.Compare(a.Key, b.Key) })
	var out []Pair
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && data.Compare(pairs[hi].Key, pairs[lo].Key) == 0 {
			hi++
		}
		rc := &ReduceCtx{}
		combine(rc, pairs[lo].Key, pairs[lo:hi])
		for _, rec := range rc.rows {
			out = append(out, Pair{Key: pairs[lo].Key, Rec: rec})
		}
		lo = hi
	}
	return out
}

// pairStrings renders pairs for comparison.
func pairStrings(pairs []Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.Key.String() + " " + p.Tag + " " + p.Rec.String()
	}
	return out
}

// TestFinishedJobPoolsNoBuckets: no map task — combining or not — nor
// Job.finish hands anything of a map task's output to pairSlices: a
// slice there that lay inside a task's columns or positions would pin
// them and be handed out as if it were a slice of its own. The map
// kernel remembers every task's arrays; whatever the pool yields after
// the job must lie outside all of them (the reduce tasks' gathered
// inputs are what it legitimately holds).
func TestFinishedJobPoolsNoBuckets(t *testing.T) {
	grp := data.MustParsePath("a.grp")
	first := func(rc *ReduceCtx, key data.Value, group []Pair) { rc.Emit(group[0].Rec) }
	type span struct{ lo, hi uintptr }
	spanOf := func(slice any) span {
		v := reflect.ValueOf(slice)
		return span{v.Pointer(), v.Pointer() + uintptr(v.Len())*v.Type().Elem().Size()}
	}
	for _, combine := range []ReduceFunc{nil, first} {
		env := testEnv(t)
		f := writeTable(env, "t", "a", 600)
		var mu sync.Mutex
		var arrays []span // every task's columns and positions
		res, err := Run(env, Spec{
			Name: "pooled",
			Inputs: []Input{{File: f, Map: func(mc *MapCtx, d *batch.Data) {
				recs := d.Records()
				keys, nks := make([]data.Value, len(recs)), make([]string, len(recs))
				hs, sel := make([]uint64, len(recs)), make([]int32, len(recs))
				for i, rec := range recs {
					keys[i], sel[i] = grp.Eval(rec), int32(i)
					nk, _ := data.AppendNormKey(nil, keys[i])
					nks[i], hs[i] = string(nk), data.Hash64(keys[i])
				}
				mc.ShuffleSel(keys, nks, hs, recs, sel, "L")
				mu.Lock()
				arrays = append(arrays, spanOf(keys), spanOf(recs), spanOf(mc.out.Idx))
				mu.Unlock()
			}}},
			Reduce: first, Combine: combine, NumReducers: 4, Output: "out",
		})
		if err != nil || 3*res.SplitsRun != len(arrays) {
			t.Fatalf("combine=%v: %v, %d arrays seen for %d tasks", combine != nil, err, len(arrays), res.SplitsRun)
		}
		for i := 0; i < 4*res.SplitsRun; i++ {
			pooled, _ := pairSlices.p.Get().(*[]Pair)
			if pooled == nil {
				continue
			}
			at := reflect.ValueOf(*pooled).Pointer()
			for _, w := range arrays {
				if at >= w.lo && at < w.hi {
					t.Fatalf("combine=%v: pairSlices holds a slice inside a map task's output", combine != nil)
				}
			}
		}
	}
}

// recordingPool stands in for a job's parallel-for: it notes each
// batch's size and how many records the job's output file held before
// and after it, and tells code running inside a batch that it is.
type recordingPool struct {
	env           *Env
	output        string
	inner         func(n int, fn func(i int))
	inBatch       atomic.Bool
	batches       []int
	before, after []int64
}

func (r *recordingPool) written() int64 {
	if f, err := r.env.FS.Open(r.output); err == nil {
		return f.NumRecords()
	}
	return 0
}

func (r *recordingPool) run(n int, fn func(i int)) {
	r.batches, r.before = append(r.batches, n), append(r.before, r.written())
	r.inBatch.Store(true)
	r.inner(n, fn)
	r.inBatch.Store(false)
	r.after = append(r.after, r.written())
}

// published is what a finished job left behind, in a form DeepEqual can
// compare: every output record, the block boundaries, the statistics.
type published struct {
	Records     []string
	BlockSizes  []int
	Stats       stats.TableStats
	Out         int64
	Virtual     int64
	Maps, Total int
	Duration    float64
}

func publish(res *Result, sub *cluster.Submission) published {
	p := published{Out: res.OutRecords, Virtual: res.OutputVirtual,
		Maps: res.SplitsRun, Total: res.SplitsTotal, Duration: sub.Duration()}
	for _, blk := range res.Output.Blocks() {
		p.BlockSizes = append(p.BlockSizes, blk.NumRecords())
		for _, rec := range blk.Records() {
			p.Records = append(p.Records, rec.String())
		}
	}
	if res.Stats != nil {
		p.Stats = res.Stats.Exact()
	}
	return p
}

// TestJobLifecycleRunsOnThePool: a map-only job with two build sides of
// three blocks each and three tracked columns does its record-sized work
// outside its tasks — the build scans, the statistics merge, the output
// assembly — as batches on the pool, never
// through the wave runner and never between batches on the goroutine
// stepping the simulator; and what it publishes does not depend on the
// pool's size.
func TestJobLifecycleRunsOnThePool(t *testing.T) {
	var want published
	for _, par := range []int{0, 1, 4} {
		env := testEnv(t)
		cfg := env.Sim.Config()
		cfg.Parallelism = par
		env.Sim = cluster.New(cfg)
		probe := writeTable(env, "t", "a", 300)
		pool := &recordingPool{env: env, output: "out"}
		var scanned, offPool atomic.Int64
		build := func(name string) Broadcast {
			f := writeTable(env, name, name, 30)
			if f.NumBlocks() != 3 {
				t.Fatalf("build side %s has %d blocks, want 3", name, f.NumBlocks())
			}
			// No UDF cost to keep in order: the build's blocks are
			// independent, a closure each.
			b := bound(Broadcast{Name: name, File: f, KeyPaths: []data.Path{data.MustParsePath(name + ".grp")}})
			emit := b.Map
			b.Map = func(mc *MapCtx, d *batch.Data) {
				scanned.Add(int64(len(d.Records())))
				if !pool.inBatch.Load() {
					offPool.Add(int64(len(d.Records())))
				}
				emit(mc, d)
			}
			return b
		}
		key := data.MustParsePath("a.grp")
		j, err := newJob(env, Spec{
			Name: "lifecycle",
			Inputs: []Input{{File: probe, Map: perRecord(func(mc *MapCtx, rec data.Value) {
				for _, m := range mc.Build("x").Probe(key.Eval(rec)) {
					if len(mc.Build("y").Probe(key.Eval(rec))) > 0 {
						mc.Emit(data.MergeObjects(rec, m))
					}
				}
			})}},
			Broadcasts:   []Broadcast{build("x"), build("y")},
			Output:       "out",
			CollectStats: []data.Path{data.MustParsePath("a.id"), data.MustParsePath("a.grp"), data.MustParsePath("x.id")},
			KMVSize:      64,
		})
		if err != nil {
			t.Fatal(err)
		}
		pool.inner, j.par = j.par, pool.run
		var waves []int
		env.Sim.SetWaveRunner(func(closures []func()) {
			waves = append(waves, len(closures))
			if pool.inBatch.Load() {
				t.Errorf("Parallelism=%d: a lifecycle batch reached the wave runner", par)
			}
			for _, fn := range closures {
				fn()
			}
		})
		sub := env.submitJob(j)
		if err := env.RunUntil(sub.Done); err != nil || sub.Err() != nil {
			t.Fatal(err, sub.Err())
		}
		res, err := j.Result()
		if err != nil {
			t.Fatal(err)
		}
		// Start: 2 builds of 3 blocks scanned. finish: 3 statistics columns
		// and the output assembly.
		if wantBatches := []int{3, 3, 4}; !reflect.DeepEqual(pool.batches, wantBatches) {
			t.Errorf("Parallelism=%d: pool batches %v, want %v", par, pool.batches, wantBatches)
		}
		if n := scanned.Load(); n != 60 || offPool.Load() != 0 {
			t.Errorf("Parallelism=%d: %d build records scanned (want 60), %d of them outside a pool batch", par, n, offPool.Load())
		}
		if last := len(pool.after) - 1; res.OutRecords == 0 || pool.before[last] != 0 || pool.after[last] != res.OutRecords {
			t.Errorf("Parallelism=%d: output held %d records before finish's batch and %d after, want 0 and %d",
				par, pool.before[last], pool.after[last], res.OutRecords)
		}
		if len(waves) == 0 || waves[0] != probe.NumBlocks() {
			t.Errorf("Parallelism=%d: wave runner saw %v, want the map phase's %d record loops first", par, waves, probe.NumBlocks())
		}
		if got := publish(res, sub); par == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("Parallelism=%d published\n  %+v\nParallelism=0\n  %+v", par, got, want)
		}
	}
	if want.Out != 900 || len(want.BlockSizes) < 2 || len(want.Stats.Cols) != 3 || want.Stats.Cols["a.id"].NDV == 0 {
		t.Errorf("vacuous: out=%d blocks=%v stats=%v", want.Out, want.BlockSizes, want.Stats)
	}
}

// TestPilotPublishesParentStats: a task that never runs (a pilot's
// canceled split) now allocates no collector and publishes nothing,
// where it used to publish an all-zero partial. The merged statistics
// are the parent commit's — the string was recorded there.
func TestPilotPublishesParentStats(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 2000)
	j, sub, err := Submit(env, Spec{
		Name:         "pilot-stats",
		Inputs:       []Input{{File: f, Map: identityMap}},
		Output:       "sample",
		StopAfter:    40,
		CollectStats: []data.Path{data.MustParsePath("a.id"), data.MustParsePath("a.grp"), data.MustParsePath("a.never")},
		KMVSize:      16,
	})
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
	if res.SplitsRun >= res.SplitsTotal {
		t.Fatalf("ran %d of %d splits; want early termination", res.SplitsRun, res.SplitsTotal)
	}
	const want = "out=40 reduces=0 splits=4/200 whole=false virtual=2270 blocks=4 hash=70f17b794230ba7b duration=11.114 stats[in=40 out=40 bytes=2270 card=40 avg=56.8B a.grp{ndv=10} a.id{ndv=40} a.never{ndv=0}] card=2000 avg=56.8B a.grp{ndv=10} a.id{ndv=2000} a.never{ndv=0}"
	if got := digest(res, sub) + " " + res.Stats.Extrapolate(2000).String(); got != want {
		t.Errorf("pilot published\n  %s\nwant\n  %s", got, want)
	}
}
