package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/jaql"
	"dyno/internal/naive"
	"dyno/internal/optimizer"
	rt "dyno/internal/runtime"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// stack is one runtime with one generated dataset: what a dynoql
// process holds. Ad-hoc operations each build a fresh engine over it.
type stack struct {
	rt     rt.Runtime
	cat    *jaql.Catalog
	optCfg optimizer.Config
	fleet  *fleet // proc only

	// tr, while set, traces every operation and decorates the executor
	// seam; a traced run switches it on and off between passes.
	tr     *tracer
	curOp  int // operation the next engine call belongs to
	curTop int // that operation's root span

	// cal, while set, takes one calibration sample before every
	// operation, outside its timed region.
	cal *speedometer
}

// clusterConfig is the default cluster with completed jobs retired:
// without retirement the scheduler rescans every job ever submitted,
// so pass N would pay for passes 1..N-1 (the service runs its
// simulators the same way).
func clusterConfig() cluster.Config {
	ccfg := cluster.DefaultConfig()
	ccfg.RetireDoneJobs = true
	return ccfg
}

// newStack generates the dataset on a fresh runtime of the given kind
// ("sim" or "proc").
func newStack(kind string, sf, scale float64, seed int64, spillRoot string, meter *workerMeter) (*stack, error) {
	ccfg := clusterConfig()
	s := &stack{optCfg: optimizer.DefaultConfig(float64(ccfg.SlotMemory))}
	switch kind {
	case "sim":
		s.rt = simruntime.New(ccfg)
	case "proc":
		fl, err := startFleet(spillRoot, meter)
		if err != nil {
			return nil, err
		}
		s.fleet = fl
		s.rt = procruntime.New(fl.ctl, ccfg)
	default:
		return nil, fmt.Errorf("unknown runtime kind %q", kind)
	}
	cat, err := tpch.Generate(s.rt.FS(), tpch.Config{SF: sf, Scale: scale, Seed: seed})
	if err != nil {
		s.close()
		return nil, err
	}
	s.cat = cat
	return s, nil
}

func (s *stack) close() {
	s.rt.Close()
	if s.fleet != nil {
		s.fleet.close()
	}
}

// session is one operation's engine plus the scratch files its jobs
// create, so clean-up removes exactly those.
type session struct {
	s     *stack
	eng   *core.Engine
	mu    sync.Mutex
	files []string
}

func (s *stack) newSession() (*session, error) {
	se := &session{s: s}
	env := s.rt.NewEnv(newRegistry())
	env.OnCreateFile = func(name string) {
		se.mu.Lock()
		se.files = append(se.files, name)
		se.mu.Unlock()
	}
	if s.tr != nil && env.Exec != nil {
		env.Exec = &execMeter{inner: env.Exec, s: s}
	}
	opts := core.DefaultOptions()
	opts.K = pilotK
	opts.KMVSize = kmvSize
	eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, s.cat, s.optCfg, opts)
	if err != nil {
		return nil, err
	}
	se.eng = eng
	return se, nil
}

// cleanup is the harness hygiene between operations, outside every
// timed region: drop the session's tmp/ and pilot/ files and collect.
// Without it the DFS pins every intermediate result ever produced —
// live heap went 150 MB → 0.9 GB in three sim-adhoc passes and the
// same query's wall swung 0.12 s → 0.51 s, so the loop measured the
// garbage collector. process.heap_live_mb_end guards this.
func (se *session) cleanup() {
	se.mu.Lock()
	files := se.files
	se.files = nil
	se.mu.Unlock()
	fs := se.s.rt.FS()
	for _, name := range files {
		// A retried job re-creates its output under the same name, so a
		// name can be listed twice; the second Remove finds nothing.
		_ = fs.Remove(name)
	}
	runtime.GC()
}

// opSample is one measured operation.
type opSample struct {
	Query   string
	WallSec float64
	CPUSec  float64
	AllocB  float64
	Res     *core.Result
	Err     error
}

// runOp answers one of the evaluation queries.
func (s *stack) runOp(query string) opSample { return s.runSQL(query, tpch.MustQuerySQL(query)) }

// runSQL answers one query end to end on a fresh engine, timing only
// the query call, and cleans up after it.
func (s *stack) runSQL(query, sql string) opSample {
	out := opSample{Query: query}
	se, err := s.newSession()
	if err != nil {
		out.Err = err
		return out
	}
	s.curOp++
	s.cal.sample()
	s.curTop = s.tr.begin("op."+query, -1, s.curOp)
	a0, c0, t0 := allocBytes(), cpuSeconds(), time.Now()
	out.Res, out.Err = se.eng.ExecuteSQL(sql)
	out.WallSec = time.Since(t0).Seconds()
	out.CPUSec = cpuSeconds() - c0
	out.AllocB = allocBytes() - a0
	s.tr.end(s.curTop)
	se.cleanup()
	return out
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// allocBytes is the cumulative bytes allocated on the heap — the
// figure runtime.MemStats.TotalAlloc reports, read without stopping
// the world.
func allocBytes() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// reference is one query's cold, sequential execution: what every
// timed repetition must reproduce.
type reference struct {
	Rows       []data.Value
	Digest     uint64
	Jobs       int
	PilotJobs  int
	Rounds     int
	VirtualSec float64
}

func digestRows(rows []data.Value) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func referenceOf(res *core.Result) *reference {
	ref := &reference{
		Rows:       res.Rows,
		Digest:     digestRows(res.Rows),
		Jobs:       res.Jobs,
		Rounds:     res.Iterations,
		VirtualSec: res.TotalSec,
	}
	if res.Pilot != nil {
		ref.PilotJobs = res.Pilot.Jobs
	}
	return ref
}

// matches reports whether a timed operation reproduced its
// reference: same job count and the same rows — by digest, or, when a
// sum's last bits moved with task order, by sameRows.
func (ref *reference) matches(res *core.Result) bool {
	if res == nil || len(res.Rows) != len(ref.Rows) || res.Jobs != ref.Jobs {
		return false
	}
	return digestRows(res.Rows) == ref.Digest || sameRows(res.Rows, ref.Rows) == nil
}

// referencePass runs each distinct query once, in the paper's order,
// and returns the references plus the pass's wall time.
func (s *stack) referencePass() (map[string]*reference, float64, error) {
	refs := map[string]*reference{}
	wall := 0.0
	for _, q := range queryNames {
		op := s.runOp(q)
		if op.Err != nil {
			return nil, 0, fmt.Errorf("reference %s: %w", q, op.Err)
		}
		refs[q] = referenceOf(op.Res)
		wall += op.WallSec
	}
	return refs, wall, nil
}

// sameExecution requires two runtimes' reference passes to agree on
// everything the differential contract promises: virtual timeline,
// job and round counts, and rows.
func sameExecution(a, b map[string]*reference) error {
	for _, q := range queryNames {
		x, y := a[q], b[q]
		if x.VirtualSec != y.VirtualSec || x.Jobs != y.Jobs || x.PilotJobs != y.PilotJobs || x.Rounds != y.Rounds {
			return fmt.Errorf("%s: sim (virtual %v s, %d jobs, %d pilots, %d rounds) != proc (virtual %v s, %d jobs, %d pilots, %d rounds)",
				q, x.VirtualSec, x.Jobs, x.PilotJobs, x.Rounds, y.VirtualSec, y.Jobs, y.PilotJobs, y.Rounds)
		}
		if err := sameRows(x.Rows, y.Rows); err != nil {
			return fmt.Errorf("%s: sim vs proc: %w", q, err)
		}
	}
	return nil
}

// sameRows compares two results as the oracle tests do: canonically
// ordered, doubles within a relative 1e-9 (group members are summed
// in task order, so the last bits of a sum may differ).
func sameRows(a, b []data.Value) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	a, b = naive.SortForComparison(a), naive.SortForComparison(b)
	for i := range a {
		if !naive.ApproxEqual(a[i], b[i], 1e-9) {
			return fmt.Errorf("row %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	return nil
}

// adhoc is a set-up ad-hoc workload, ready to be timed.
type adhoc struct {
	spec    spec
	stack   *stack
	refs    map[string]*reference
	coldSec float64 // reference pass wall
}

// setupAdhoc is everything a one-shot user pays before a warm query:
// dataset generation, runtime and fleet start, the cold reference pass
// and one warm-up pass that fills columnar images, block mirrors and
// worker caches.
func setupAdhoc(sp spec, seed int64, spillRoot string, meter *workerMeter) (*adhoc, error) {
	if sp.Kind == "proc" && runtime.GOMAXPROCS(0) < 2 {
		return nil, errors.New("proc workloads need GOMAXPROCS >= 2: controller and workers share one core otherwise and the numbers mean nothing")
	}
	st, err := newStack(sp.Kind, sp.SF, sp.Scale, seed, spillRoot, meter)
	if err != nil {
		return nil, err
	}
	a := &adhoc{spec: sp, stack: st}
	a.refs, a.coldSec, err = st.referencePass()
	if err != nil {
		st.close()
		return nil, err
	}
	if _, err := a.pass(queryNames); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return a, nil
}

// verify proves the workload's answers, once per run and outside
// set-up time: rows against the brute-force oracle on a reduced copy
// of the dataset, and on proc workloads the full-size reference pass
// against the simulator's (identical virtual timeline, job, pilot and
// round counts, equal rows). It returns the simulator's warm pass wall
// time on proc workloads — the denominator of
// procruntime.sim_wall_ratio — and 0 otherwise.
func (a *adhoc) verify(seed int64, spillRoot string, logf func(string, ...any)) (float64, error) {
	if err := checkOracle(a.spec, seed, spillRoot, logf); err != nil {
		return 0, err
	}
	if a.spec.Kind != "proc" {
		return 0, nil
	}
	sim, err := newStack("sim", a.spec.SF, a.spec.Scale, seed, "", nil)
	if err != nil {
		return 0, err
	}
	defer sim.close()
	simRefs, _, err := sim.referencePass()
	if err != nil {
		return 0, err
	}
	if err := sameExecution(simRefs, a.refs); err != nil {
		return 0, err
	}
	warm := 0.0
	for _, q := range queryNames {
		op := sim.runOp(q)
		if op.Err != nil {
			return 0, op.Err
		}
		warm += op.WallSec
	}
	return warm, nil
}

// pass runs the given queries once each and checks every result
// against its reference; a mismatch is returned as the sample's Err.
func (a *adhoc) pass(order []string) ([]opSample, error) {
	out := make([]opSample, 0, len(order))
	var first error
	for _, q := range order {
		op := a.stack.runOp(q)
		if op.Err == nil && !a.refs[q].matches(op.Res) {
			op.Err = fmt.Errorf("%s: result differs from the reference pass (%d rows, %d jobs; want %d rows, %d jobs)",
				q, len(op.Res.Rows), op.Res.Jobs, len(a.refs[q].Rows), a.refs[q].Jobs)
		}
		if op.Err != nil && first == nil {
			first = op.Err
		}
		out = append(out, op)
	}
	return out, first
}

// passOrder is the seeded operation order of one pass: every template
// once, shuffled, so each pass carries the same work and no template
// always runs on the cache state its predecessor left.
func passOrder(rng *rand.Rand) []string {
	order := append([]string(nil), queryNames...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// virtualSec is the paper's metric: summed virtual seconds of the
// cold reference pass.
func (a *adhoc) virtualSec() float64 {
	total := 0.0
	for _, q := range queryNames {
		total += a.refs[q].VirtualSec
	}
	return total
}

// checkOracle proves the engine's rows against the brute-force
// evaluator on a reduced copy of the dataset (same SF and seed), on
// the workload's runtime.
func checkOracle(sp spec, seed int64, spillRoot string, logf func(string, ...any)) error {
	sp.Scale = sp.oracleScale()
	st, err := newStack(sp.Kind, sp.SF, sp.Scale, seed, spillRoot, nil)
	if err != nil {
		return err
	}
	defer st.close()
	return oracleAgrees(sp, st.cat, logf, func(q string) ([]data.Value, error) {
		op := st.runOp(q)
		if op.Err != nil {
			return nil, op.Err
		}
		return op.Res.Rows, nil
	})
}

// oracleAgrees compares answer's rows for each of the five queries
// with naive.Evaluate over cat. Q9p's default UDF selectivities leave
// it no rows at any of the benchmark's sizes; that is reported, and
// its check rests on the sim/proc timeline and job-count comparison.
func oracleAgrees(sp spec, cat naive.Catalog, logf func(string, ...any), answer func(query string) ([]data.Value, error)) error {
	for _, q := range queryNames {
		parsed, err := sqlparse.Parse(tpch.MustQuerySQL(q))
		if err != nil {
			return err
		}
		want, err := naive.Evaluate(parsed, cat, newRegistry())
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q, err)
		}
		got, err := answer(q)
		if err == nil {
			err = sameRows(want, got)
		}
		if err != nil {
			return fmt.Errorf("oracle %s at scale %g: %w", q, sp.Scale, err)
		}
		note := ""
		if len(want) == 0 {
			note = "  (warning: zero rows — the row check is vacuous)"
		}
		logf("oracle %s %s scale=%.3g rows=%d ok%s", sp.Name, q, sp.Scale, len(want), note)
	}
	return nil
}
