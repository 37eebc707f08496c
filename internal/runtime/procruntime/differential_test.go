package procruntime_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/naive"
	"dyno/internal/optimizer"
	"dyno/internal/runtime"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/runtime/wire"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// The differential contract: a query executed on the sim backend and
// on the proc backend (real worker processes; here in-process via
// httptest, same handler cmd/dynoworker serves) must produce the same
// rows, the same job counts, and the same virtual timeline. Controller
// and workers run the same kernels, so agreement between the backends
// alone could be agreement in error: the proc rows are also checked
// against the naive relational-algebra oracle, which shares no code
// with either.

type queryOutcome struct {
	vals       []data.Value
	oracle     []data.Value // naive.Evaluate over the same catalog
	rows       string
	jobs       int
	mapOnly    int
	mapReduce  int
	switched   int
	totalSec   float64
	pilotSec   float64
	pilotJobs  int
	iterations int
}

type engineTweaks struct {
	pushdown    bool
	dynamicJoin bool
	parallelism int
	// oracleScale generates the dataset at which every TPC-H query
	// returns rows (so the oracle comparison is not vacuous) instead of
	// the small default the wire-stats constants were measured on.
	oracleScale bool
	// wrapWorker, when set, wraps every worker's handler.
	wrapWorker func(http.Handler) http.Handler
}

// dataset returns the generator and UDF parameters a run uses; workers
// must register the same UDF parameters as the controller.
func (tw engineTweaks) dataset() (tpch.Config, tpch.UDFParams) {
	udf := tpch.DefaultUDFParams()
	if !tw.oracleScale {
		return tpch.Config{SF: 10, Scale: 0.05, Seed: 2014}, udf
	}
	udf.Q9DimSel = 0.1
	return tpch.Config{SF: 100, Scale: 0.1, Seed: 7}, udf
}

// fullCaps is what cmd/dynoworker announces.
var fullCaps = wire.Caps{Codecs: []string{wire.CodecBinary, wire.CodecJSON}, Batch: true, PeerShuffle: true}

// newProcRuntime builds a fleet with n in-process workers plus the
// runtime over it. Worker registries are built exactly like
// cmd/dynoworker builds them: fresh registry + the controller's UDF
// params.
func newProcRuntime(t *testing.T, n int, ccfg cluster.Config, pcfg procruntime.Config, tw engineTweaks) *procruntime.Runtime {
	t.Helper()
	// In-process test workers do not heartbeat; keep them fresh for
	// the whole test run.
	pcfg.StaleAfter = time.Hour
	fleet, err := procruntime.NewFleet(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	for i := 0; i < n; i++ {
		reg := expr.NewRegistry()
		_, udf := tw.dataset()
		tpch.RegisterUDFs(reg, udf)
		h := procruntime.NewWorker(reg).Handler()
		if tw.wrapWorker != nil {
			h = tw.wrapWorker(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		if _, err := fleet.RegisterWorkerCaps(ts.URL, fullCaps); err != nil {
			t.Fatal(err)
		}
	}
	if got := fleet.Workers(); got != n {
		t.Fatalf("fleet has %d live workers, want %d", got, n)
	}
	return procruntime.New(fleet, ccfg)
}

// runQuery executes one named TPC-H query through the full engine
// (pilot runs, optimizer, re-optimization) on the given backend.
func runQuery(t *testing.T, rt runtime.Runtime, query string, tw engineTweaks) queryOutcome {
	t.Helper()
	out, err := runQueryErr(t, rt, query, tw)
	if err != nil {
		t.Fatalf("%s on %s: %v", query, rt.Name(), err)
	}
	return out
}

func runQueryErr(t *testing.T, rt runtime.Runtime, query string, tw engineTweaks) (queryOutcome, error) {
	t.Helper()
	sql, err := tpch.QuerySQL(query)
	if err != nil {
		return queryOutcome{}, err
	}
	return runSQLErr(t, rt, sql, tw)
}

// runSQLErr is runQueryErr for a query given as SQL text.
func runSQLErr(t *testing.T, rt runtime.Runtime, sql string, tw engineTweaks) (queryOutcome, error) {
	t.Helper()
	gen, udf := tw.dataset()
	cat, err := tpch.Generate(rt.FS(), gen)
	if err != nil {
		return queryOutcome{}, err
	}
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, udf)
	env := rt.NewEnv(reg)

	opts := core.DefaultOptions()
	opts.ProjectionPushdown = tw.pushdown
	opts.DynamicJoin = tw.dynamicJoin
	ccfg := env.ClusterConfig()
	eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, cat,
		optimizer.DefaultConfig(float64(ccfg.SlotMemory)), opts)
	if err != nil {
		return queryOutcome{}, err
	}
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		return queryOutcome{}, err
	}
	oracle, err := naive.Evaluate(sqlparse.MustParse(sql), cat, reg)
	if err != nil {
		return queryOutcome{}, err
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	out := queryOutcome{
		vals:       res.Rows,
		oracle:     oracle,
		rows:       sb.String(),
		jobs:       res.Jobs,
		mapOnly:    res.MapOnlyJobs,
		mapReduce:  res.MapReduceJobs,
		switched:   res.SwitchedJobs,
		totalSec:   res.TotalSec,
		pilotSec:   res.PilotSec,
		iterations: res.Iterations,
	}
	if res.Pilot != nil {
		out.pilotJobs = res.Pilot.Jobs
	}
	return out, nil
}

// TestProcStrictNoFallback: with a task executor installed but no
// workers, tasks must fail loudly — never silently run in-process.
// This is what makes the differential results above trustworthy.
func TestProcStrictNoFallback(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	_, err := runQueryErr(t, newProcRuntime(t, 0, ccfg, procruntime.Config{}, engineTweaks{}), "Q10", engineTweaks{})
	if err == nil {
		t.Fatal("query succeeded on the proc backend with zero workers")
	}
	if !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("want a no-live-workers dispatch failure, got: %v", err)
	}
}

func diffOutcomes(t *testing.T, query string, sim, proc queryOutcome) {
	t.Helper()
	if sim.rows != proc.rows {
		t.Errorf("%s: rows differ between backends\nsim:\n%s\nproc:\n%s", query, sim.rows, proc.rows)
	}
	if sim.jobs != proc.jobs || sim.mapOnly != proc.mapOnly || sim.mapReduce != proc.mapReduce || sim.switched != proc.switched {
		t.Errorf("%s: job counts differ: sim %d (%dm/%dmr/%dsw) proc %d (%dm/%dmr/%dsw)",
			query, sim.jobs, sim.mapOnly, sim.mapReduce, sim.switched,
			proc.jobs, proc.mapOnly, proc.mapReduce, proc.switched)
	}
	if sim.pilotJobs != proc.pilotJobs || sim.iterations != proc.iterations {
		t.Errorf("%s: pilot/iteration counts differ: sim %d/%d proc %d/%d",
			query, sim.pilotJobs, sim.iterations, proc.pilotJobs, proc.iterations)
	}
	if sim.totalSec != proc.totalSec || sim.pilotSec != proc.pilotSec {
		t.Errorf("%s: virtual timelines differ: sim total=%v pilot=%v proc total=%v pilot=%v",
			query, sim.totalSec, sim.pilotSec, proc.totalSec, proc.pilotSec)
	}
	if len(proc.oracle) == 0 {
		t.Fatalf("%s yields no rows at test scale; oracle check vacuous", query)
	}
	if len(proc.vals) != len(proc.oracle) {
		t.Fatalf("%s: proc returned %d rows, oracle %d", query, len(proc.vals), len(proc.oracle))
	}
	for i := range proc.oracle {
		if !naive.ApproxEqual(proc.vals[i], proc.oracle[i], 1e-9) {
			t.Fatalf("%s row %d:\nproc   %v\noracle %v", query, i, proc.vals[i], proc.oracle[i])
		}
	}
}

// TestDifferentialTPCH runs the full evaluation suite on both
// backends — sim, and proc over two workers — and requires
// byte-identical outcomes: same rows, job counts, and virtual
// timelines.
func TestDifferentialTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite executes every TPC-H query twice")
	}
	for _, query := range tpch.QueryNames {
		query := query
		t.Run(query, func(t *testing.T) {
			ccfg := cluster.DefaultConfig()
			tw := engineTweaks{oracleScale: true}
			sim := runQuery(t, simruntime.New(ccfg), query, tw)
			proc := runQuery(t, newProcRuntime(t, 2, ccfg, procruntime.Config{}, tw), query, tw)
			diffOutcomes(t, query, sim, proc)
		})
	}
}

// TestProcWireStats pins what one fixed query puts on the wire: the
// exact number of task attempts (no retries, no hedges), the exact
// number of RPCs that carried them, ceilings on dispatch bytes (a task
// costs what its references cost — no block or shuffle payload rides
// the dispatch plane), and a shuffle that moves worker-to-worker only,
// in one request per reduce task and producing peer.
// Dispatch is by wave, one frame per worker per wave, and the
// simulator hands every wave to the fleet whole whatever its own pool
// size, so both arms count the same RPCs.
func TestProcWireStats(t *testing.T) {
	const wantTasks = 120
	// Q10 on this dataset schedules its 120 tasks as 8 dispatch waves of
	// 1, 2, 2, 2, 13, 25, 35 and 40 tasks. Over 2 workers a wave is
	// min(size, 2) frames: 1 + 7×2 = 15 (wave, worker) pairs.
	const wantWaveRPCs = 15
	for _, arm := range []struct {
		name        string
		parallelism int
		wantRPCs    int64
	}{
		{"inline", 0, wantWaveRPCs},
		{"parallel", 2, wantWaveRPCs},
	} {
		t.Run(arm.name, func(t *testing.T) {
			ccfg := cluster.DefaultConfig()
			ccfg.Parallelism = arm.parallelism
			rt := newProcRuntime(t, 2, ccfg, procruntime.Config{HedgeMin: time.Hour}, engineTweaks{})
			runQuery(t, rt, "Q10", engineTweaks{})
			st := rt.Fleet().WireStats()
			if st.Tasks != wantTasks {
				t.Errorf("Tasks = %d, want exactly %d", st.Tasks, wantTasks)
			}
			if st.RPCs != arm.wantRPCs {
				t.Errorf("RPCs = %d, want exactly %d", st.RPCs, arm.wantRPCs)
			}
			// Measured 231 B/task; the headroom absorbs the spill directory's
			// random name length, not a payload.
			const maxBytesOut = 300 * wantTasks
			if st.BytesOut > maxBytesOut {
				t.Errorf("BytesOut = %d (%d B/task), ceiling %d", st.BytesOut, st.BytesOut/st.Tasks, maxBytesOut)
			}
			t.Logf("wire stats: %+v", st)
			if st.CtlShuffleBytes != 0 {
				t.Errorf("CtlShuffleBytes = %d, want 0: shuffle pairs crossed the controller", st.CtlShuffleBytes)
			}
			if st.PeerShuffleBytes <= 0 {
				t.Errorf("PeerShuffleBytes = %d, want > 0: no shuffle pairs moved worker-to-worker", st.PeerShuffleBytes)
			}
			if st.PeerFetches != 1 {
				t.Errorf("PeerFetches = %d, want exactly 1", st.PeerFetches)
			}
		})
	}
	// The small dataset's Q10 has one reduce task that needs a segment
	// from the other worker. At the oracle scale its reduce tasks need
	// many, placed by wave arrival order; the frames the workers are sent
	// say how many requests that placement takes: one per reduce task and
	// peer holding any of its segments.
	t.Run("peerRequests", func(t *testing.T) {
		const workers = 2
		var reduces, segments, requests atomic.Int64
		tw := engineTweaks{oracleScale: true, wrapWorker: func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				tasks, _ := wire.DecodeTaskBatch(body)
				for _, task := range tasks {
					if task.Kind != "reduce" {
						continue
					}
					reduces.Add(1)
					peers := map[string]bool{}
					for _, ref := range task.Fetches {
						if ref.ID != "" && ref.URL != "http://"+r.Host {
							segments.Add(1)
							peers[ref.URL] = true
						}
					}
					requests.Add(int64(len(peers)))
				}
				h.ServeHTTP(rw, r)
			})
		}}
		rt := newProcRuntime(t, workers, cluster.DefaultConfig(), procruntime.Config{HedgeMin: time.Hour}, tw)
		runQuery(t, rt, "Q10", tw)
		st := rt.Fleet().WireStats()
		if st.PeerFetches != requests.Load() {
			t.Errorf("PeerFetches = %d, want exactly %d for %d remote segments", st.PeerFetches, requests.Load(), segments.Load())
		}
		if most := reduces.Load() * (workers - 1); requests.Load() > most || segments.Load() <= most {
			t.Errorf("%d requests and %d remote segments for %d reduce tasks: want requests <= %d < segments",
				requests.Load(), segments.Load(), reduces.Load(), most)
		}
	})
}

// TestWholeRowPushdownAnswersWithPositions: under projection pushdown a
// query that uses every alias whole (SELECT *) has a live-column map of
// nil sets only. It prunes nothing, the wire carries it as no map, and
// its scans answer with positions on proc; the query still matches sim
// and the oracle.
func TestWholeRowPushdownAnswersWithPositions(t *testing.T) {
	tw := engineTweaks{pushdown: true}
	for name, sql := range map[string]string{
		"scan": `SELECT * FROM orders o WHERE o.o_orderdate >= 19931001 AND o.o_orderdate <= 19931101 ORDER BY o.o_orderkey`,
		"join": `SELECT * FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND o.o_orderdate >= 19931001 AND o.o_orderdate <= 19931101
			ORDER BY o.o_orderkey`,
	} {
		t.Run(name, func(t *testing.T) {
			ccfg := cluster.DefaultConfig()
			sim, err := runSQLErr(t, simruntime.New(ccfg), sql, tw)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			proc, err := runSQLErr(t, newProcRuntime(t, 2, ccfg, procruntime.Config{}, tw), sql, tw)
			if err != nil {
				t.Fatalf("proc: %v", err)
			}
			diffOutcomes(t, name, sim, proc)
		})
	}
}

// TestDifferentialFeatureMatrix exercises the remote encodings the
// plain sweep may not reach: projection pushdown (serialized prune
// maps), the dynamic join switch (chain ops created at submit time),
// and concurrent dispatch (parallel wave execution, which is what
// actually fills batches).
func TestDifferentialFeatureMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite executes queries twice")
	}
	tw := engineTweaks{pushdown: true, dynamicJoin: true, parallelism: 4, oracleScale: true}
	for _, query := range []string{"Q9p", "Q10"} {
		query := query
		t.Run(query, func(t *testing.T) {
			ccfg := cluster.DefaultConfig()
			ccfg.Parallelism = tw.parallelism
			sim := runQuery(t, simruntime.New(ccfg), query, tw)
			proc := runQuery(t, newProcRuntime(t, 2, ccfg, procruntime.Config{}, tw), query, tw)
			diffOutcomes(t, query, sim, proc)
		})
	}
}
