package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"

	"dyno/internal/runtime/procruntime"
)

// The traced run: one set-up, then untraced and traced units of work
// alternating on the same inputs (their throughput ratio is the
// tracing overhead), then the staged replay and the kernel probes.
// End-to-end metrics never come from here.

// tracedShare is the part of --seconds the alternating section may
// use; the rest is left for the staged replay and the probes.
const tracedShare = 0.6

// procSnap is a point-in-time reading of the process-wide counters.
type procSnap struct {
	cpuSec   float64
	gcCPUSec float64
	gcCycles float64
}

func processSnapshot() procSnap {
	sample := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(sample)
	return procSnap{
		cpuSec:   cpuSeconds(),
		gcCPUSec: sample[0].Value.Float64(),
		gcCycles: float64(sample[1].Value.Uint64()),
	}
}

// processMetrics fills the process.* layer from the section that
// started at the given snapshot. The live heap is read after a final
// collection: with the harness's scratch hygiene it must not grow with
// the number of passes.
func processMetrics(start procSnap, out layerSet) {
	end := processSnapshot()
	out["process.gc_cycles"] = end.gcCycles - start.gcCycles
	if cpu := end.cpuSec - start.cpuSec; cpu > 0 {
		out["process.gc_cpu_frac"] = (end.gcCPUSec - start.gcCPUSec) / cpu
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out["process.heap_live_mb_end"] = float64(ms.HeapAlloc) / (1 << 20)
	out["process.goroutines_end"] = float64(runtime.NumGoroutine())
}

// procPlane is a reading of the proc data plane's counters, taken
// around each traced pass.
type procPlane struct {
	wire                   procruntime.WireStats
	taskBusy, shuffleBusy  float64 // seconds
	requests               float64
	execMapSec, execRedSec float64
}

func (a *adhoc) planeSnapshot(tr *tracer, meter *workerMeter) procPlane {
	p := procPlane{
		wire:        a.stack.fleet.ctl.WireStats(),
		taskBusy:    float64(meter.taskBusyNs.Load()) / 1e9,
		shuffleBusy: float64(meter.shuffleBusyNs.Load()) / 1e9,
		requests:    float64(meter.requests.Load()),
	}
	maps, reds := tr.durations("procruntime.exec_map"), tr.durations("procruntime.exec_reduce")
	p.execMapSec, p.execRedSec = sum(maps), sum(reds)
	return p
}

func runAdhocTraced(sp spec, cfg runConfig) (*outcome, error) {
	tr := newTracer()
	var meter *workerMeter
	if sp.Kind == "proc" {
		meter = &workerMeter{}
	}
	a, err := setupAdhoc(sp, cfg.Seed, cfg.SpillRoot, meter)
	if err != nil {
		return nil, err
	}
	defer a.stack.close()
	simPassSec, err := a.verify(cfg.Seed, cfg.SpillRoot, cfg.Logf)
	if err != nil {
		return nil, err
	}
	layers := layerSet{"core.cold_pass_ms": a.coldSec * 1e3}

	// Alternate: the same seeded order runs untraced, then traced.
	var (
		untraced, traced  []float64 // pass wall
		perPass           = map[string][]float64{}
		attempted, failed int
	)
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := processSnapshot()
	for budget := newBudget(cfg.Seconds * tracedShare); budget.more(); {
		order := passOrder(rng)
		a.stack.tr = nil
		ops, _ := a.pass(order)
		untraced = append(untraced, passWall(ops))
		a.stack.tr = tr
		var before procPlane
		if meter != nil {
			before = a.planeSnapshot(tr, meter)
		}
		tracedOps, _ := a.pass(order)
		traced = append(traced, passWall(tracedOps))
		if meter != nil {
			after := a.planeSnapshot(tr, meter)
			add := func(name string, v float64) { perPass[name] = append(perPass[name], v) }
			add("procruntime.tasks", float64(after.wire.Tasks-before.wire.Tasks))
			add("procruntime.rpcs", float64(after.wire.RPCs-before.wire.RPCs))
			add("procruntime.bytes_out", float64(after.wire.BytesOut-before.wire.BytesOut))
			add("procruntime.bytes_in", float64(after.wire.BytesIn-before.wire.BytesIn))
			add("procruntime.peer_fetches", float64(after.wire.PeerFetches-before.wire.PeerFetches))
			add("procruntime.peer_shuffle_bytes", float64(after.wire.PeerShuffleBytes-before.wire.PeerShuffleBytes))
			add("procruntime.ctl_shuffle_bytes", float64(after.wire.CtlShuffleBytes-before.wire.CtlShuffleBytes))
			add("procruntime.exec_map_ms", (after.execMapSec-before.execMapSec)*1e3)
			add("procruntime.exec_reduce_ms", (after.execRedSec-before.execRedSec)*1e3)
			add("procruntime.worker_tasks_busy_ms", (after.taskBusy-before.taskBusy)*1e3)
			add("procruntime.worker_shuffle_busy_ms", (after.shuffleBusy-before.shuffleBusy)*1e3)
			add("procruntime.worker_requests", after.requests-before.requests)
		}
		for _, op := range append(ops, tracedOps...) {
			attempted++
			if op.Err != nil {
				failed++
			}
		}
	}
	processMetrics(start, layers)
	// Best against best, as the end-to-end timings are taken.
	layers["trace.overhead_frac"] = 1 - minOf(untraced)/minOf(traced)

	if meter != nil {
		for name, values := range perPass {
			layers[name] = median(values)
		}
		layers["procruntime.tasks_per_rpc"] = layers["procruntime.tasks"] / layers["procruntime.rpcs"]
		// Controller view minus worker view: encode, HTTP, linger, queueing
		// behind batch-mates, decode.
		layers["procruntime.dispatch_overhead_ms"] = layers["procruntime.exec_map_ms"] +
			layers["procruntime.exec_reduce_ms"] - layers["procruntime.worker_tasks_busy_ms"]
		tasks := append(tr.durations("procruntime.exec_map"), tr.durations("procruntime.exec_reduce")...)
		layers["procruntime.exec_task_p50_us"] = percentile(tasks, 0.5) * 1e6
		layers["procruntime.exec_task_p90_us"] = percentile(tasks, 0.9) * 1e6
		layers["procruntime.mirror_bytes"] = float64(a.stack.fleet.mirrorBytes())
		st, err := a.stack.fleet.status()
		if err != nil {
			return nil, err
		}
		layers["procruntime.worker_block_hit_rate"] = rate(st.BlockHits, st.BlockMisses)
		layers["procruntime.worker_table_hit_rate"] = rate(st.TableHits, st.TableMisses)
		layers["procruntime.worker_shuffle_evictions"] = float64(st.ShuffleEvictions)
		layers["procruntime.sim_wall_ratio"] = minOf(untraced) / simPassSec
	}

	if err := stagedReplay(a.stack, cfg.Reps, layers); err != nil {
		return nil, err
	}
	if err := allProbes(a.stack, sp, cfg, layers); err != nil {
		return nil, err
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: layers.metrics()}
	return &outcome{res: res, spans: tr.spans, notes: a.notes(cfg.Logf)}, nil
}

func rate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// allProbes runs the kernel, simulator and join-job probes.
func allProbes(s *stack, sp spec, cfg runConfig, out layerSet) error {
	if err := kernelProbes(s.cat, cfg.Reps, out); err != nil {
		return err
	}
	if err := clusterProbe(cfg.Reps, out); err != nil {
		return err
	}
	return mapreduceProbes(sp, cfg.Seed, cfg.Reps, out)
}

func runServeTraced(sp spec, cfg runConfig) (*outcome, error) {
	tr := newTracer()
	b, err := setupServe(sp, cfg.Seed, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := checkServeOracle(sp, cfg.Seed, cfg.Logf); err != nil {
		return nil, err
	}
	layers := layerSet{"core.cold_pass_ms": b.coldSec * 1e3}

	// Each round replays one sequence three ways, every time from an
	// invalidated server: the workload's one client untraced, the same
	// traced, and scalingClients clients untraced. The first pair gives
	// the tracing overhead; the first and third the scaling with
	// concurrent callers, and the third is the only place requests can
	// meet in flight, so the dedup share is read there.
	var (
		qps, qpsTraced, qpsWide []float64
		tracedCycles, wide      []cycle
		perCycle                = map[string][]float64{}
		attempted, failed       int
	)
	count := func(c cycle) {
		for _, s := range c.Samples {
			attempted++
			if s.Err != nil {
				failed++
			}
		}
	}
	start := processSnapshot()
	for budget := newBudget(cfg.Seconds * tracedShare); budget.more(); {
		seq := b.sequence()
		run := func(clients int, traced bool) (cycle, error) {
			b.tracing.Store(traced)
			c, err := b.runCycle(seq, clients)
			b.tracing.Store(false)
			count(c)
			return c, err
		}
		c, err := run(sp.Clients, false)
		if err != nil {
			return nil, err
		}
		qps = append(qps, float64(len(seq))/c.WallSec)

		before := b.srv.Metrics()
		c, err = run(sp.Clients, true)
		if err != nil {
			return nil, err
		}
		after := b.srv.Metrics()
		qpsTraced = append(qpsTraced, float64(len(seq))/c.WallSec)
		tracedCycles = append(tracedCycles, c)
		add := func(name string, v int64) { perCycle[name] = append(perCycle[name], float64(v)) }
		add("server.stats_reused_leaves", after.StatsReusedLeaves-before.StatsReusedLeaves)
		add("server.pilot_jobs", after.PilotJobs-before.PilotJobs)
		add("server.memo_groups_reused", after.MemoGroupsReused-before.MemoGroupsReused)
		add("server.rejected", after.Rejected-before.Rejected)
		add("server.timeouts", after.Timeouts-before.Timeouts)

		c, err = run(scalingClients, false)
		if err != nil {
			return nil, err
		}
		qpsWide = append(qpsWide, float64(len(seq))/c.WallSec)
		wide = append(wide, c)
	}
	processMetrics(start, layers)
	// Best against best, as the end-to-end timings are taken.
	layers["trace.overhead_frac"] = 1 - maxOf(qpsTraced)/maxOf(qps)
	layers["server.client_scaling"] = maxOf(qpsWide) / maxOf(qps)
	for name, values := range perCycle {
		layers[name] = median(values)
	}
	serveLayers(tracedCycles, layers)
	layers["server.dedup_rate"] = dedupShare(wide)

	// The engine phases and kernels behind the exec class, on a
	// simulator stack over the shards' dataset (every shard generates
	// the same data from the seed).
	st, err := newStack("sim", sp.SF, sp.Scale, cfg.Seed, "", nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.tr = tr
	if err := stagedReplay(st, cfg.Reps, layers); err != nil {
		return nil, err
	}
	if err := allProbes(st, sp, cfg, layers); err != nil {
		return nil, err
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: layers.metrics()}
	return &outcome{res: res, spans: tr.spans}, nil
}

// dedupShare is the share of requests that rode another caller's
// execution.
func dedupShare(cycles []cycle) float64 {
	var dedup, total float64
	for _, c := range cycles {
		for _, s := range c.Samples {
			if s.Err == nil {
				total++
				if s.Reply.Deduped {
					dedup++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return dedup / total
}

// serveLayers fills the server.* layer from the traced cycles'
// requests, as the client saw them.
func serveLayers(cycles []cycle, out layerSet) {
	var (
		hitUs, execMs, overheadUs []float64
		invalidateMs, coldFirstMs []float64
		total, result, planHit    float64
	)
	for _, c := range cycles {
		invalidateMs = append(invalidateMs, c.InvalidateSec*1e3)
		for _, s := range c.Samples {
			if s.Err != nil {
				continue
			}
			total++
			switch {
			case s.Reply.ResultCacheHit:
				result++
			case s.Reply.Deduped:
				// counted by dedupShare, on the cycles that have concurrent callers
			case s.Reply.PlanCacheHit:
				planHit++
			}
			if s.Hit {
				hitUs = append(hitUs, s.RTTSec*1e6)
			} else {
				execMs = append(execMs, s.RTTSec*1e3)
			}
			if s.AfterIn {
				coldFirstMs = append(coldFirstMs, s.RTTSec*1e3)
			}
			// Deduped followers report the leader's wall, not their own.
			if !s.Reply.Deduped {
				overheadUs = append(overheadUs, s.RTTSec*1e6-s.Reply.WallMillis*1e3)
			}
		}
	}
	if total == 0 {
		return
	}
	out["server.hit_rate"] = result / total
	out["server.plan_hit_rate"] = planHit / total
	out["server.exec_rate"] = float64(len(execMs)) / total
	out["server.hit_p50_us"] = percentile(hitUs, 0.5)
	out["server.hit_p90_us"] = percentile(hitUs, 0.9)
	out["server.exec_p50_ms"] = percentile(execMs, 0.5)
	out["server.exec_p90_ms"] = percentile(execMs, 0.9)
	out["server.http_overhead_us"] = median(overheadUs)
	out["server.invalidate_ms"] = median(invalidateMs)
	out["server.cold_first_ms"] = median(coldFirstMs)
}
