package procruntime

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/optimizer"
	"dyno/internal/runtime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/tpch"
)

// TestQueryLeavesNothingBehind: a query owns its scratch files. On one
// simulator and one DFS per runtime, a query that succeeds, one that
// fails on task-retry exhaustion and one canceled from Env.OnCreateFile
// while another job of its wave is open each leave the DFS holding only
// the catalog's files, the simulator holding no live job, and no job
// creating an output after the return. On proc the fleet also holds no
// retained shuffle, and after a second query no mirror of the earlier
// queries' files, in memory or in the spill directory.
func TestQueryLeavesNothingBehind(t *testing.T) {
	gen := tpch.Config{SF: 10, Scale: 0.05, Seed: 2014}
	udf := tpch.DefaultUDFParams()
	// failing names the one job whose first map task fails on every
	// attempt: the first job of the first DYNOPT wave once armed is set.
	var armed bool
	var failing string
	ccfg := cluster.DefaultConfig()
	ccfg.FailInject = func(job, task string, _, _ int) bool {
		if armed && failing == "" && strings.HasPrefix(job, "q1-i1-") {
			failing = job
		}
		return armed && job == failing && strings.HasSuffix(task, "-m0")
	}

	f := newBareFleet(t, Config{})
	var servers []*httptest.Server
	for range 2 {
		reg := expr.NewRegistry()
		tpch.RegisterUDFs(reg, udf)
		ts := httptest.NewServer(NewWorker(reg).Handler())
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		register(t, f, ts.URL)
	}
	for _, rt := range []runtime.Runtime{simruntime.New(ccfg), New(f, ccfg)} {
		t.Run(rt.Name(), func(t *testing.T) {
			armed, failing = false, ""
			cat, err := tpch.Generate(rt.FS(), gen)
			if err != nil {
				t.Fatal(err)
			}
			catalog := rt.FS().List()
			var created []*dfs.File // every output the queries' jobs created
			run := func(ctx context.Context, query string, onCreate func(*mapreduce.Env)) error {
				t.Helper()
				reg := expr.NewRegistry()
				tpch.RegisterUDFs(reg, udf)
				env := rt.NewEnv(reg)
				returned := false
				env.OnCreateFile = func(name string) {
					if returned {
						t.Errorf("%s: %s created after the query returned", query, name)
					}
					if file, err := env.FS.Open(name); err == nil {
						created = append(created, file)
					}
					if onCreate != nil {
						onCreate(env)
					}
				}
				opts := core.DefaultOptions()
				opts.PilotMode, opts.Strategy = core.PilotMT, core.Uncertain{N: 2}
				eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, cat,
					optimizer.DefaultConfig(float64(ccfg.SlotMemory)), opts)
				if err != nil {
					t.Fatal(err)
				}
				_, qerr := eng.ExecuteSQLContext(ctx, tpch.MustQuerySQL(query))
				returned = true
				if !env.Sim.Quiesce() {
					t.Errorf("%s: a job is still live after the query returned", query)
				}
				if err := env.Sim.RunUntil(func() bool { return false }); !errors.Is(err, cluster.ErrIdle) {
					t.Errorf("%s: stepping the idle simulator: %v", query, err)
				}
				if left := rt.FS().List(); !slices.Equal(left, catalog) {
					t.Errorf("%s: the DFS holds %d files after the query, want the catalog's %d: %v",
						query, len(left), len(catalog), slices.DeleteFunc(left, func(n string) bool { return slices.Contains(catalog, n) }))
				}
				if rt.Name() == "proc" {
					f.shufMu.Lock()
					jobs := len(f.jobShuffles)
					f.shufMu.Unlock()
					if jobs != 0 {
						t.Errorf("%s: the fleet tracks shuffle ids of %d job(s) after the query", query, jobs)
					}
					waitFor(t, "the workers to drop every retained map output", func() bool {
						blocks := 0
						for _, ts := range servers {
							blocks += workerStatus(t, ts.URL).ShuffleBlocks
						}
						return blocks == 0
					})
				}
				return qerr
			}

			if err := run(context.Background(), "Q7", nil); err != nil {
				t.Fatal(err)
			}

			armed = true
			if err := run(context.Background(), "Q7", nil); !errors.Is(err, cluster.ErrTaskRetriesExhausted) {
				t.Errorf("failing query: err = %v, want task-retry exhaustion", err)
			}
			armed = false

			// Cancel at the first join output created while another job
			// of the wave is open, so the engine returns with it in flight.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inFlight := false
			cancelMidWave := func(env *mapreduce.Env) {
				open := 0
				for _, sub := range env.Sim.Jobs() {
					if !sub.Done() {
						open++
					}
				}
				if !inFlight && open >= 2 && len(created) > 0 && strings.HasPrefix(created[len(created)-1].Name(), "tmp/") {
					inFlight = true
					cancel()
				}
			}
			if err := run(ctx, "Q7", cancelMidWave); !errors.Is(err, context.Canceled) {
				t.Errorf("canceled query: err = %v, want context.Canceled", err)
			}
			if !inFlight {
				t.Fatal("no output was created while another job was open: the cancellation proves nothing")
			}

			earlier := created
			if err := run(context.Background(), "Q10", nil); err != nil {
				t.Fatal(err)
			}
			if rt.Name() != "proc" {
				return
			}
			f.sweeps.Wait()
			f.mu.Lock()
			defer f.mu.Unlock()
			for _, file := range earlier {
				if m, ok := f.mirrors[file]; ok {
					t.Errorf("the mirror of %s survived a later query", m.name)
				}
			}
			spilled, err := os.ReadDir(f.cfg.SpillDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(spilled) != len(f.mirrors) {
				t.Errorf("the spill directory holds %d files for %d mirrors", len(spilled), len(f.mirrors))
			}
		})
	}
}
