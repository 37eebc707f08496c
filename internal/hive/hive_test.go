package hive

import (
	"testing"

	"dyno/internal/batch"
	"dyno/internal/cluster"
	"dyno/internal/coord"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
)

func TestConfigureEnablesDistributedCache(t *testing.T) {
	env := &mapreduce.Env{}
	Configure(env)
	if !env.DistributedCache {
		t.Error("DistributedCache should be on")
	}
	if env.BytesPerReducer == 0 {
		t.Error("BytesPerReducer should default")
	}
}

func TestNewEnvBroadcastCheaperThanJaqlProfile(t *testing.T) {
	cfg := cluster.Config{
		Workers:              2,
		MapSlotsPerWorker:    2,
		ReduceSlotsPerWorker: 1,
		SlotMemory:           1 << 20,
		JobStartup:           10,
		TaskOverhead:         1,
		ScanBps:              5_000,
		BroadcastLoadBps:     5_000,
		ShuffleBps:           2_000,
		WriteBps:             5_000,
		Parallelism:          4,
	}
	durations := map[string]float64{}
	for _, profile := range []string{"jaql", "hive"} {
		fs := dfs.New(dfs.WithBlockSize(500), dfs.WithNodes(2))
		big := fs.Create("big")
		for i := 0; i < 200; i++ {
			big.Append(data.Object(data.Field{Name: "b", Value: data.Object(
				data.Field{Name: "k", Value: data.Int(int64(i % 10))},
			)}))
		}
		small := fs.Create("small")
		for i := 0; i < 10; i++ {
			small.Append(data.Object(data.Field{Name: "s", Value: data.Object(
				data.Field{Name: "k", Value: data.Int(int64(i))},
			)}))
		}
		reg := expr.NewRegistry()
		var env *mapreduce.Env
		if profile == "hive" {
			env = NewEnv(fs, cfg, reg)
		} else {
			env = &mapreduce.Env{FS: fs, Sim: cluster.New(cfg), Coord: coord.NewService(), Reg: reg}
		}
		bigFile, _ := fs.Open("big")
		smallFile, _ := fs.Open("small")
		job, sub, err := mapreduce.Submit(env, mapreduce.Spec{
			Name: "probe",
			Inputs: []mapreduce.Input{{File: bigFile, Map: func(mc *mapreduce.MapCtx, d *batch.Data) {
				for _, rec := range d.Records() {
					for _, m := range mc.Build("s").Probe(rec.FieldOr("b").FieldOr("k")) {
						mc.Emit(data.MergeObjects(rec, m))
					}
				}
			}}},
			Broadcasts: []mapreduce.Broadcast{physop.BindBuild(mapreduce.Broadcast{
				Name: "s", File: smallFile,
				KeyPaths: []data.Path{data.MustParsePath("s.k")},
			}, data.Null())},
			Output: "out-" + profile,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		if _, err := job.Result(); err != nil {
			t.Fatal(err)
		}
		durations[profile] = sub.Duration()
	}
	if durations["hive"] >= durations["jaql"] {
		t.Errorf("hive profile (%v) should beat per-task loading (%v)",
			durations["hive"], durations["jaql"])
	}
}
