package mapreduce

import (
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/coord"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
)

// benchEnv mirrors testEnv without the *testing.T dependency.
func benchEnv() *Env {
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
	return &Env{
		FS:    dfs.New(dfs.WithBlockSize(16<<10), dfs.WithNodes(4)),
		Sim:   cluster.New(cfg),
		Coord: coord.NewService(),
		Reg:   expr.NewRegistry(),
	}
}

func benchTable(env *Env, name, alias string, n int) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		w.Append(data.Object(data.Field{Name: alias, Value: data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "grp", Value: data.Int(int64(i % 100))},
			data.Field{Name: "pad", Value: data.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")},
		)}))
	}
	return w.Close()
}

// BenchmarkRepartitionJoinJob executes a full map-reduce join (4000 x
// 400 rows through the shuffle) per iteration.
func BenchmarkRepartitionJoinJob(b *testing.B) {
	keyL := data.MustParsePath("l.grp")
	keyR := data.MustParsePath("r.grp")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv()
		left := benchTable(env, "l", "l", 4000)
		right := benchTable(env, "r", "r", 400)
		b.StartTimer()
		_, err := Run(env, Spec{
			Name: "join",
			Inputs: []Input{
				{File: left, Map: perRecord(func(mc *MapCtx, rec data.Value) { mc.EmitKV(keyL.Eval(rec), "L", rec) })},
				{File: right, Map: perRecord(func(mc *MapCtx, rec data.Value) { mc.EmitKV(keyR.Eval(rec), "R", rec) })},
			},
			Reduce: func(rc *ReduceCtx, key data.Value, group []Pair) {
				var rs []data.Value
				for _, g := range group {
					if g.Tag == "R" {
						rs = append(rs, g.Rec)
					}
				}
				for _, g := range group {
					if g.Tag != "L" {
						continue
					}
					for _, r := range rs {
						rc.Emit(data.MergeObjects(g.Rec, r))
					}
				}
			},
			Output: "joined",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastJoinJob executes a map-only hash join per
// iteration.
func BenchmarkBroadcastJoinJob(b *testing.B) {
	key := data.MustParsePath("l.grp")
	buildKey := data.MustParsePath("r.id")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv()
		left := benchTable(env, "l", "l", 4000)
		right := benchTable(env, "r", "r", 100)
		b.StartTimer()
		_, err := Run(env, Spec{
			Name: "bjoin",
			Inputs: []Input{{File: left, Map: perRecord(func(mc *MapCtx, rec data.Value) {
				for _, m := range mc.Build("r").Probe(key.Eval(rec)) {
					mc.Emit(data.MergeObjects(rec, m))
				}
			})}},
			Broadcasts: []Broadcast{bound(Broadcast{Name: "r", File: right, KeyPaths: []data.Path{buildKey}})},
			Output:     "joined",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPilotJob executes an early-terminating pilot run per
// iteration.
func BenchmarkPilotJob(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := benchEnv()
		f := benchTable(env, "t", "a", 8000)
		b.StartTimer()
		_, err := Run(env, Spec{
			Name:      "pilot",
			Inputs:    []Input{{File: f, Map: perRecord(func(mc *MapCtx, rec data.Value) { mc.Emit(rec) })}},
			Output:    "sample",
			StopAfter: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJobFinish is the finish of Q7's widest job: 1,350 map tasks
// of 56 output rows, each with a two-column partial at k=512 — the
// statistics merge (a closure per column), the output file's assembly
// and the row buffers' recycling, one batch on the pool. It allocates per
// column, per output block and one pool header per recycled buffer,
// never per row. Rebuilding the tasks' state is outside the timer.
func BenchmarkJobFinish(b *testing.B) {
	const tasks, rows = 1350, 56
	env := benchEnv()
	in := benchTable(env, "t", "o", 1)
	paths := []data.Path{data.MustParsePath("o.id"), data.MustParsePath("o.grp")}
	recs := make([]data.Value, tasks*rows)
	for i := range recs {
		recs[i] = data.Object(data.Field{Name: "o", Value: data.Object(
			data.Field{Name: "grp", Value: data.Int(int64(i % 25))},
			data.Field{Name: "id", Value: data.Int(int64(i))},
		)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, err := NewJob(env, Spec{Name: "finish", Inputs: []Input{{File: in, Map: identityMap}}, Output: "out",
			CollectStats: paths, KMVSize: 512})
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < tasks; t++ {
			st := &mapTaskState{seq: t, collector: j.newCollector()}
			st.outRows = append(rowSlices.get(rows), recs[t*rows:(t+1)*rows]...)
			var u cluster.Usage
			j.chargeOutput(&u, st.outRows, st.collector)
			j.mapStates = append(j.mapStates, st)
		}
		j.mapsDone = tasks
		b.StartTimer()
		j.finish(nil)
		if j.result.OutRecords != tasks*rows || len(j.result.Stats.Exact().Cols) != 2 {
			b.Fatalf("finish published %d rows, stats %v", j.result.OutRecords, j.result.Stats.Exact())
		}
	}
}
