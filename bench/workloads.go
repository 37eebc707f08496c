package main

import (
	"math"

	"dyno/internal/tpch"
)

// spec sizes one workload. The sizes are part of the benchmark's
// definition: changing one changes every number, so a change that
// claims a gain may not edit them.
type spec struct {
	Name string
	Why  string
	// Kind selects the harness: "sim" and "proc" answer ad-hoc queries
	// through a fresh engine per operation, "serve" drives the HTTP
	// service.
	Kind  string
	SF    float64
	Scale float64
	// HostBound is the share of the workload's time that follows the
	// host's speed as the calibration kernel measures it (calib.go);
	// the rest — timers, lingering for batch-mates — takes what it
	// takes however busy the host is. Fitted over runs of one seed
	// while the host's slowdown ranged 1.0-2.1: sim-adhoc's and
	// serve-mix's times rose in proportion to the kernel's (exponent
	// 0.96-1.4 over three fits), the proc workloads' about half as
	// fast (0.50-0.83).
	HostBound float64
	// JoinProbeSF and JoinProbeScale size the dataset the traced run's
	// join-job probes use (see mapreduceProbes): SF 100 on every
	// workload, so orders ⋈ lineitem repartitions whatever the
	// workload's own SF.
	JoinProbeSF, JoinProbeScale float64

	// serve-mix traffic shape.
	Universe   int     // distinct query texts
	ZipfS      float64 // popularity skew
	Invalidate int     // requests per cycle; client 0 invalidates at each cycle start
	Clients    int     // closed-loop callers of the measured run
}

// scalingClients is how many callers the traced run's concurrency arm
// uses (server.client_scaling, server.dedup_rate): one per core of the
// 2-core reference machine.
const scalingClients = 2

// workloads is the benchmark's fixed set, in report order.
var workloads = []spec{
	{
		Name: "sim-adhoc", Kind: "sim", SF: 100, Scale: 2, HostBound: 1, JoinProbeSF: 100, JoinProbeScale: 1,
		Why: "in-process simulator, 120k lineitems, up to 5 DYNOPT rounds per query: batch/mapreduce/stats/optimizer/core do all the work, wire/procruntime/server none",
	},
	{
		Name: "proc-wide", Kind: "proc", SF: 15, Scale: 2, HostBound: 0.45, JoinProbeSF: 100, JoinProbeScale: 1,
		Why: "2 real HTTP workers, ~700 tiny tasks and ~1200 peer fetches per pass over 18k lineitems: dispatch, RPC and shuffle fan-in dominate, record loops are noise",
	},
	{
		Name: "proc-deep", Kind: "proc", SF: 10, Scale: 8, HostBound: 0.45, JoinProbeSF: 100, JoinProbeScale: 1,
		Why: "same fleet, ~440 fat tasks and ~2.6 MB of result frames per pass over 48k lineitems: codec bytes, block mirrors and the worker row interpreter dominate",
	},
	{
		Name: "serve-mix", Kind: "serve", SF: 10, Scale: 4, HostBound: 1, JoinProbeSF: 100, JoinProbeScale: 1,
		Universe: 1536, ZipfS: 1.2, Invalidate: 500, Clients: 1,
		Why: "dynod service, 1 closed-loop HTTP caller replaying a seeded 500-request cycle, Zipf over 1536 texts, invalidate before each replay: ~65% cache hits, ~35% executions",
	},
}

// hostFactor is what the workload's measured times are divided by
// when the calibration kernel ran slowdown times slower than on the
// reference machine.
func (sp spec) hostFactor(slowdown float64) float64 {
	return 1 - sp.HostBound + sp.HostBound*slowdown
}

func findSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// queryNames are the ad-hoc operation types, one template each.
var queryNames = tpch.QueryNames

// Engine options every ad-hoc operation uses (the experiment
// harnesses' setting: a quarter of the paper's pilot sample and half
// its synopsis, which keeps pilot cost proportionate to the
// scaled-down row counts).
const (
	pilotK  = 256
	kmvSize = 512
)

// oracleLineitems sizes the reduced dataset the naive oracle is
// checked on: naive.Evaluate needs ~28 s for Q8p/Q9p at 240k
// lineitems, so rows are proven correct on the same SF and seed at
// about this many (scale 0.25 at SF 100, 2.5 at SF 10 — smaller and
// Q2 and Q7 select nothing), and the full-size operations are pinned
// to their own cold reference pass instead.
const oracleLineitems = 15000

// oracleScale is the scale at which the spec's SF has oracleLineitems
// rows, never above the workload's own.
func (sp spec) oracleScale() float64 {
	return math.Min(oracleLineitems/(tpch.RowsPerSF["lineitem"]*sp.SF), sp.Scale)
}

// reps is how often the traced run repeats each staged-replay stage
// and each kernel probe; each reports its median.
const reps = 3
