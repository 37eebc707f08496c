package mapreduce

import (
	"fmt"
	"hash/fnv"
	"reflect"
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
		Output:    "sample",
		StopAfter: 40,
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
	var dispatched int64
	for _, task := range sub.CompletedTasks() {
		if task.Work != nil {
			t.Errorf("pilot task %s has Work: it would be computed before its dispatch", task.Name)
		}
		dispatched += task.Usage().Records
	}
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
// a hash of the output file's records in order, the merged statistics
// and the submission's virtual makespan.
func digest(res *Result, duration float64) string {
	h := fnv.New64a()
	for _, rec := range res.Output.AllRecords() {
		fmt.Fprintln(h, rec.String())
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "in=%d out=%d maps=%d reduces=%d splits=%d/%d whole=%v virtual=%d blocks=%d hash=%016x duration=%v",
		res.InRecords, res.OutRecords, res.MapTasks, res.ReduceTasks, res.SplitsRun, res.SplitsTotal,
		res.WholeInput, res.OutputVirtual, res.Output.NumBlocks(), h.Sum64(), duration)
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
			if c, ok := g.Rec.Field("n"); ok {
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
		})}}}, "in=1500 out=500 maps=150 reduces=0 splits=150/150 whole=true virtual=29128 blocks=50 hash=dd890d044474cea0 duration=50.94820000000003 stats[in=1500 out=500 bytes=29128 card=500 avg=58.3B a.id{ndv=475} grp{ndv=0}]"},
		{Spec{Name: "wide-mr", Inputs: []Input{{Map: emitKV}}, Reduce: count, NumReducers: 6},
			"in=1500 out=10 maps=150 reduces=6 splits=150/150 whole=true virtual=180 blocks=1 hash=72a7a5818aaa70b2 duration=64.38999999999999 stats[in=0 out=10 bytes=180 card=10 avg=18.0B a.id{ndv=0} grp{ndv=10}]"},
		{Spec{Name: "wide-combine", Inputs: []Input{{Map: emitKV}}, Reduce: count, Combine: count, NumReducers: 6},
			"in=1500 out=10 maps=150 reduces=6 splits=150/150 whole=true virtual=180 blocks=1 hash=72a7a5818aaa70b2 duration=54.83900000000003 stats[in=0 out=10 bytes=180 card=10 avg=18.0B a.id{ndv=0} grp{ndv=10}]"},
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
		if got := digest(res, sub.Duration()); got != tc.want {
			t.Errorf("%s published\n  %s\nwant\n  %s", spec.Name, got, tc.want)
		}
	}
}

// TestBucketsShareOneArray: the buckets SizeParts provisions are
// windows of one backing array — one allocation per task, not one per
// (task, reducer) — in partition order, each capacity-limited so a
// bucket outgrowing its window moves out alone.
func TestBucketsShareOneArray(t *testing.T) {
	const reducers = 8
	recs := make([]data.Value, 40)
	hs := make([]uint64, len(recs))
	var sized []int32
	key := data.MustParsePath("k")
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i % 7))})
		hs[i] = data.Hash64(key.Eval(recs[i]))
		if i%7 != 3 {
			sized = append(sized, int32(i))
		}
	}
	// Size for every key but 3, then emit every record: key 3's bucket
	// outgrows its window.
	out, err := RunMapTask(&MapTask{Recs: recs, NumReducers: reducers, Map: func(mc *MapCtx, d *batch.Data) {
		mc.SizeParts(hs, sized)
		for _, rec := range d.Records() {
			mc.EmitKV(key.Eval(rec), "L", rec)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	counts, offsets := make([]int, reducers), make([]int, reducers)
	for _, i := range sized {
		counts[hs[i]%reducers]++
	}
	for p := 1; p < reducers; p++ {
		offsets[p] = offsets[p-1] + counts[p-1]
	}
	over := int(hs[3] % reducers)
	size := reflect.TypeOf(Pair{}).Size()
	var start uintptr // the shared array, found through any window in place
	for p, bucket := range out.Parts {
		if p != over && counts[p] > 0 {
			start = reflect.ValueOf(bucket).Pointer() - uintptr(offsets[p])*size
			break
		}
	}
	var total int
	for p, bucket := range out.Parts {
		total += len(bucket)
		at := reflect.ValueOf(bucket).Pointer()
		switch {
		case p == over:
			if len(bucket) != counts[p]+6 || at >= start && at < start+uintptr(len(sized))*size {
				t.Errorf("overflowing bucket %d (len %d) still lies in the shared array", p, len(bucket))
			}
		case len(bucket) != counts[p] || cap(bucket) != counts[p]:
			t.Errorf("bucket %d has len %d cap %d, want its window of %d", p, len(bucket), cap(bucket), counts[p])
		case counts[p] > 0 && at != start+uintptr(offsets[p])*size:
			t.Errorf("bucket %d is not its window of the shared array", p)
		}
	}
	if total != len(recs) || start == 0 {
		t.Errorf("%d pairs emitted, want %d; shared array found: %v", total, len(recs), start != 0)
	}
}

// TestFinishedJobPoolsNoBuckets: neither the combiner nor Job.finish
// hands a bucket to pairSlicePool — a window there would pin its whole
// task's array and be handed out as if it were a slice of its own. The
// map kernel remembers every task's array; whatever the pool yields
// after the job must lie outside all of them (the reduce tasks'
// gathered inputs are what it legitimately holds).
func TestFinishedJobPoolsNoBuckets(t *testing.T) {
	grp := data.MustParsePath("a.grp")
	first := func(rc *ReduceCtx, key data.Value, group []Pair) { rc.Emit(group[0].Rec) }
	size := reflect.TypeOf(Pair{}).Size()
	for _, combine := range []ReduceFunc{nil, first} {
		env := testEnv(t)
		f := writeTable(env, "t", "a", 600)
		var mu sync.Mutex
		type span struct{ lo, hi uintptr }
		arrays := map[*MapCtx]span{} // each task's bucket array
		res, err := Run(env, Spec{
			Name: "pooled",
			Inputs: []Input{{File: f, Map: func(mc *MapCtx, d *batch.Data) {
				recs := d.Records()
				hs, sel := make([]uint64, len(recs)), make([]int32, len(recs))
				for i, rec := range recs {
					hs[i], sel[i] = data.Hash64(grp.Eval(rec)), int32(i)
				}
				mc.SizeParts(hs, sel)
				lo := reflect.ValueOf(mc.parts[0]).Pointer() // the first window starts the array
				mu.Lock()
				arrays[mc] = span{lo, lo + uintptr(len(recs))*size}
				mu.Unlock()
				for _, rec := range recs {
					mc.EmitKV(grp.Eval(rec), "L", rec)
				}
			}}},
			Reduce: first, Combine: combine, NumReducers: 4, Output: "out",
		})
		if err != nil || res.MapTasks != len(arrays) {
			t.Fatalf("combine=%v: %v, %d tasks seen of %d", combine != nil, err, len(arrays), res.MapTasks)
		}
		for i := 0; i < 4*res.MapTasks; i++ {
			pooled, _ := pairSlices.p.Get().(*[]Pair)
			if pooled == nil {
				continue
			}
			at := reflect.ValueOf(*pooled).Pointer()
			for _, w := range arrays {
				if at >= w.lo && at < w.hi {
					t.Fatalf("combine=%v: pairSlices holds a slice inside a map task's bucket array", combine != nil)
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
	In, Out     int64
	Virtual     int64
	Maps, Total int
	Duration    float64
}

func publish(res *Result, sub *cluster.Submission) published {
	p := published{In: res.InRecords, Out: res.OutRecords, Virtual: res.OutputVirtual,
		Maps: res.MapTasks, Total: res.SplitsTotal, Duration: sub.Duration()}
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
				scanned.Add(int64(d.Len()))
				if !pool.inBatch.Load() {
					offPool.Add(int64(d.Len()))
				}
				emit(mc, d)
			}
			return b
		}
		key := data.MustParsePath("a.grp")
		j, err := NewJob(env, Spec{
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
		sub := env.SubmitJob(j)
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
	const want = "in=40 out=40 maps=4 reduces=0 splits=4/200 whole=false virtual=2270 blocks=4 hash=70f17b794230ba7b duration=11.114 stats[in=40 out=40 bytes=2270 card=40 avg=56.8B a.grp{ndv=10} a.id{ndv=40} a.never{ndv=0}] card=2000 avg=56.8B a.grp{ndv=10} a.id{ndv=2000} a.never{ndv=0}"
	if got := digest(res, sub.Duration()) + " " + res.Stats.Extrapolate(2000).String(); got != want {
		t.Errorf("pilot published\n  %s\nwant\n  %s", got, want)
	}
}
