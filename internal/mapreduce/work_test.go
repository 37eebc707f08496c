package mapreduce

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dyno/internal/data"
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
		Inputs: []Input{{File: f, Map: func(mc *MapCtx, rec data.Value) {
			mapped.Add(1)
			mc.Emit(rec)
		}}},
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
	emitKV := func(mc *MapCtx, rec data.Value) { mc.EmitKV(grp.Eval(rec), "L", rec) }
	count := func(rc *ReduceCtx, key data.Value, group []Tagged) {
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
		{Spec{Name: "wide-map", Inputs: []Input{{Map: func(mc *MapCtx, rec data.Value) {
			if rec.FieldOr("a").FieldOr("id").Int()%3 == 0 {
				mc.Emit(rec)
			}
		}}}}, "in=1500 out=500 maps=150 reduces=0 splits=150/150 whole=true virtual=29128 blocks=50 hash=dd890d044474cea0 duration=50.94820000000003 stats[in=1500 out=500 bytes=29128 card=500 avg=58.3B a.id{ndv=475} grp{ndv=0}]"},
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

// TestBucketsShareOneArray: a map task's shuffle buckets are windows of
// one backing array — one allocation per task, not one per (task,
// reducer) — each capacity-limited so an overflowing bucket moves out
// alone; the combiner keeps a window it did not replace out of the pair
// pool, and so does a finished job.
func TestBucketsShareOneArray(t *testing.T) {
	recs := make([]data.Value, 40)
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "k", Value: data.Int(int64(i % 7))})
	}
	key := data.MustParsePath("k")
	task := &MapTask{Recs: recs, NumReducers: 8, Map: func(mc *MapCtx, rec data.Value) {
		if k := key.Eval(rec); k.Int() != 3 { // partition of key 3 stays empty unless shared
			mc.EmitKV(k, "L", rec)
		}
	}}
	out, err := RunMapTask(task)
	if err != nil {
		t.Fatal(err)
	}
	per := len(recs)/task.NumReducers + 1
	base := reflect.ValueOf(out.Parts[0]).Pointer()
	var inPlace, moved, total int
	for p, bucket := range out.Parts {
		total += len(bucket)
		if cap(bucket) == 0 {
			t.Fatalf("bucket %d has no window", p)
		}
		at := reflect.ValueOf(bucket).Pointer()
		if want := base + uintptr(p*per)*reflect.TypeOf(Pair{}).Size(); at == want && cap(bucket) == per {
			inPlace++
		} else if len(bucket) > per {
			moved++
		} else {
			t.Errorf("bucket %d (len %d cap %d) is neither its window of the shared array nor an overflow", p, len(bucket), cap(bucket))
		}
	}
	if total != 40-len(recs)/7-1 || inPlace == 0 || moved == 0 {
		t.Errorf("%d pairs, %d buckets in place, %d overflowed: want both kinds", total, inPlace, moved)
	}
}

// TestFinishedJobPoolsNoBuckets: neither the combiner nor Job.finish
// hands a bucket to pairSlicePool — a window there would pin its whole
// task's array and be handed out as if it were a slice of its own. The
// map function remembers every task's array; whatever the pool yields
// after the job must lie outside all of them (the reduce tasks'
// gathered inputs are what it legitimately holds).
func TestFinishedJobPoolsNoBuckets(t *testing.T) {
	grp := data.MustParsePath("a.grp")
	first := func(rc *ReduceCtx, key data.Value, group []Tagged) { rc.Emit(group[0].Rec) }
	for _, combine := range []ReduceFunc{nil, first} {
		env := testEnv(t)
		f := writeTable(env, "t", "a", 600)
		var mu sync.Mutex
		arrays := map[*MapCtx][]Pair{} // each task's first window, which starts its array
		res, err := Run(env, Spec{
			Name: "pooled",
			Inputs: []Input{{File: f, Map: func(mc *MapCtx, rec data.Value) {
				mu.Lock()
				if _, seen := arrays[mc]; !seen {
					arrays[mc] = mc.parts[0]
				}
				mu.Unlock()
				mc.EmitKV(grp.Eval(rec), "L", rec)
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
				lo := reflect.ValueOf(w).Pointer()
				if hi := lo + uintptr(4*cap(w))*reflect.TypeOf(Pair{}).Size(); at >= lo && at < hi {
					t.Fatalf("combine=%v: pairSlices holds a slice inside a map task's bucket array", combine != nil)
				}
			}
		}
	}
}
