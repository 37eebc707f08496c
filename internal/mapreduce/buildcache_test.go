package mapreduce

import (
	"slices"
	"strconv"
	"sync"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
)

// cacheRun is one finished broadcast join: the table its job probed,
// its output, its virtual duration and every task's usage.
type cacheRun struct {
	table *HashTable
	rows  []string
	dur   float64
	usage []cluster.Usage
}

// runBroadcast joins the file "big" with b as build side "s" on env's
// FS, executor and cluster configuration, on a simulator of its own so
// that runs' virtual timelines compare exactly, and returns what
// cacheRun records.
func runBroadcast(t *testing.T, env *Env, name string, b Broadcast) cacheRun {
	t.Helper()
	run, err := broadcastJoin(env, name, b)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// broadcastJoin is runBroadcast's body, safe off the test's goroutine.
func broadcastJoin(env *Env, name string, b Broadcast) (cacheRun, error) {
	env = &Env{FS: env.FS, Sim: cluster.New(env.ClusterConfig()), Reg: env.Reg, Exec: env.Exec}
	big, err := env.FS.Open("big")
	if err != nil {
		return cacheRun{}, err
	}
	b.Name = "s"
	res, sub, err := runSub(env, Spec{
		Name: name,
		Inputs: []Input{{File: big, Map: perRecord(func(mc *MapCtx, rec data.Value) {
			for _, m := range mc.Build("s").Probe(rec.FieldOr("b").FieldOr("grp")) {
				mc.Emit(data.MergeObjects(rec, m))
			}
		})}},
		Broadcasts: []Broadcast{bound(b)},
		Output:     name + "-out",
		RemoteOp:   "op", // read only by a task executor
	})
	if err != nil {
		return cacheRun{}, err
	}
	run := cacheRun{table: sub.Job().(*Job).builds["s"], dur: sub.Duration()}
	for _, rec := range res.Output.AllRecords() {
		run.rows = append(run.rows, rec.String())
	}
	for _, task := range sub.CompletedTasks() {
		run.usage = append(run.usage, task.Usage())
	}
	return run, nil
}

// sameRun reports whether two runs of one join agree on rows, virtual
// duration and task usage.
func sameRun(a, b cacheRun) bool {
	return slices.Equal(a.rows, b.rows) && a.dur == b.dur && slices.Equal(a.usage, b.usage)
}

// cacheEnv is testEnv with "big" and the build file "small" (ids 0..9,
// the b.grp domain) written.
func cacheEnv(t *testing.T) *Env {
	env := testEnv(t)
	writeTable(env, "big", "b", 100)
	writeTable(env, "small", "s", 10)
	return env
}

func smallBuild(t *testing.T, fs *dfs.FS, key string) Broadcast {
	f, err := fs.Open("small")
	if err != nil {
		t.Fatal(err)
	}
	return Broadcast{File: f, KeyPaths: []data.Path{data.MustParsePath(key)}}
}

// TestUnfilteredBuildIsKeptOnItsFile: an unfiltered build is made once
// per file and build identity, whichever job or environment asks for it,
// and a cached table answers and prices exactly as a fresh build.
func TestUnfilteredBuildIsKeptOnItsFile(t *testing.T) {
	// Each run is a job on an Env of its own over env's FS.
	env := cacheEnv(t)
	first := runBroadcast(t, env, "j1", smallBuild(t, env.FS, "s.id"))
	again := runBroadcast(t, env, "j2", smallBuild(t, env.FS, "s.id"))
	if len(first.rows) != 100 {
		t.Fatalf("join emitted %d rows, want 100", len(first.rows))
	}
	if again.table != first.table {
		t.Error("jobs on one FS broadcasting one file under one build identity hold different tables")
	}
	fresh := cacheEnv(t)
	want := runBroadcast(t, fresh, "j1", smallBuild(t, fresh.FS, "s.id"))
	for _, run := range []cacheRun{first, again} {
		if !sameRun(run, want) {
			t.Errorf("a run on the cached table differs from a fresh build's: %d rows, %v %+v, want %d rows, %v %+v",
				len(run.rows), run.dur, run.usage, len(want.rows), want.dur, want.usage)
		}
	}

	// Another key path, or another wrap, is another table. Wrapped in
	// "s" once more, the rows' s.id is missing: no row joins.
	byGrp := runBroadcast(t, env, "j4", smallBuild(t, env.FS, "s.grp"))
	wrapped := smallBuild(t, env.FS, "s.id")
	wrapped.Wrap = "s"
	rewrapped := runBroadcast(t, env, "j5", wrapped)
	if byGrp.table == first.table || rewrapped.table == first.table || rewrapped.table == byGrp.table {
		t.Error("builds of one file under different keys or wraps share a table")
	}
	if len(byGrp.rows) != 100 || len(rewrapped.rows) != 0 {
		t.Errorf("joins on s.grp and on a rewrapped s.id emitted %d and %d rows, want 100 and 0", len(byGrp.rows), len(rewrapped.rows))
	}
	if again := runBroadcast(t, env, "j6", smallBuild(t, env.FS, "s.grp")); again.table != byGrp.table {
		t.Error("the second build under another key path was not kept")
	}

	// A filtered build is the job's own.
	filtered := smallBuild(t, env.FS, "s.id")
	filtered.Filter = &expr.Cmp{Op: expr.LT, L: expr.NewCol("s.id"), R: expr.NewLit(data.Int(5))}
	f1 := runBroadcast(t, env, "j7", filtered)
	f2 := runBroadcast(t, env, "j8", filtered)
	if f1.table == f2.table || f1.table == first.table {
		t.Error("a filtered build was shared")
	}
	if len(f1.rows) != 50 || !slices.Equal(f1.rows, f2.rows) {
		t.Errorf("filtered joins emitted %d and %d rows, want 50 each", len(f1.rows), len(f2.rows))
	}

	// The byte scale prices a table's rows: under another, the file's
	// table is another, charged as a fresh build at that scale is.
	env.FS.SetByteScale(3)
	fresh.FS.SetByteScale(3)
	rescaled := runBroadcast(t, env, "j9", smallBuild(t, env.FS, "s.id"))
	if want := runBroadcast(t, fresh, "j9", smallBuild(t, fresh.FS, "s.id")); rescaled.table == first.table || !sameRun(rescaled, want) {
		t.Errorf("after a byte-scale change: same table %v, %d rows, %v %+v, want %d rows, %v %+v", rescaled.table == first.table,
			len(rescaled.rows), rescaled.dur, rescaled.usage, len(want.rows), want.dur, want.usage)
	}
}

// TestConcurrentJobsShareOneBuild: jobs of several environments on one
// FS that start at once may build the same table side by side; every one
// of them probes the one that was kept, concurrently.
func TestConcurrentJobsShareOneBuild(t *testing.T) {
	env := cacheEnv(t)
	b := smallBuild(t, env.FS, "s.id")
	runs := make([]cacheRun, 4)
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = broadcastJoin(env, "j"+strconv.Itoa(i), b)
		}()
	}
	wg.Wait()
	for i, run := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if run.table != runs[0].table || !sameRun(run, runs[0]) || len(run.rows) != 100 {
			t.Errorf("concurrent job %d: own table %v, %d rows", i, run.table != runs[0].table, len(run.rows))
		}
	}
}

// nullExec is a task executor whose tasks answer nothing: the job's
// controller side (its broadcast builds and accounting) runs as on the
// proc runtime.
type nullExec struct{}

func (nullExec) ExecMap(MapExec) (*MapExecOut, error)          { return &MapExecOut{}, nil }
func (nullExec) ExecReduce(ReduceExec) (*ReduceExecOut, error) { return &ReduceExecOut{}, nil }

// TestUnindexedBuildNeverReachesAProbe: a task executor's controller
// keeps builds without an index, under a key of their own, so an
// in-process job on the same FS never probes one — whichever comes first.
func TestUnindexedBuildNeverReachesAProbe(t *testing.T) {
	for _, procFirst := range []bool{true, false} {
		env := cacheEnv(t)
		proc := &Env{FS: env.FS, Sim: env.Sim, Exec: nullExec{}}
		var local, remote cacheRun
		if procFirst {
			remote = runBroadcast(t, proc, "p", smallBuild(t, env.FS, "s.id"))
		}
		local = runBroadcast(t, env, "l", smallBuild(t, env.FS, "s.id"))
		if !procFirst {
			remote = runBroadcast(t, proc, "p", smallBuild(t, env.FS, "s.id"))
		}
		if local.table == remote.table {
			t.Fatalf("procFirst=%v: the controller and an in-process job share a table", procFirst)
		}
		if len(local.rows) != 100 || remote.table.slots != nil {
			t.Errorf("procFirst=%v: in-process join emitted %d rows, want 100; controller table indexed: %v",
				procFirst, len(local.rows), remote.table.slots != nil)
		}
		if local.table.builtBytes != remote.table.builtBytes {
			t.Errorf("procFirst=%v: the two tables price %d and %d bytes", procFirst, local.table.builtBytes, remote.table.builtBytes)
		}
	}
}

// TestRewrittenFileIsBuiltAnew: the table goes with the file, so a file
// removed and written again under its name is built from its new rows.
func TestRewrittenFileIsBuiltAnew(t *testing.T) {
	env := cacheEnv(t)
	before := runBroadcast(t, env, "j1", smallBuild(t, env.FS, "s.id"))
	if err := env.FS.Remove("small"); err != nil {
		t.Fatal(err)
	}
	writeTable(env, "small", "s", 5)
	after := runBroadcast(t, env, "j2", smallBuild(t, env.FS, "s.id"))
	if after.table == before.table || len(after.rows) != 50 {
		t.Errorf("rewritten build file: same table %v, %d rows, want a new table and 50 rows",
			after.table == before.table, len(after.rows))
	}
	// Create truncates to a new file too.
	writeTable(env, "small", "s", 2)
	if got := runBroadcast(t, env, "j3", smallBuild(t, env.FS, "s.id")); len(got.rows) != 20 {
		t.Errorf("truncated build file joined %d rows, want 20", len(got.rows))
	}
}
