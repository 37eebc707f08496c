package main

import (
	"sort"
	"time"
)

// unit is one replay of the workload's fixed list of operations — a
// pass over the five queries, or one invalidate cycle of the service.
// Every replay of a run carries the same operations (the ad-hoc passes
// in a seeded order of their own), so an operation's repetitions can
// be lined up by Slot.
type unit struct {
	CPUSec float64
	AllocB float64
	// OverheadSec is timed work of the replay that belongs to no
	// operation: the service's invalidate. Clean-up the harness does
	// between ad-hoc operations is not timed at all.
	OverheadSec float64
	Ops         []opResult
}

// opResult is one operation as the user saw it.
type opResult struct {
	Slot       int    // which of the replay's operations this is
	Type       string // query template, or hit/exec on serve-mix
	LatencySec float64
	Failed     bool
}

// endToEndOf reduces a timed section to the end-to-end metrics.
//
// An operation's latency is the median over the replays of its slot,
// and the percentiles are then taken over the operations — heavy and
// light queries, hits and executions — not over the noise of repeating
// one of them. Replay overhead, CPU and allocation per operation are
// the median replay's. Every time is divided by host, the workload's
// hostFactor for the section's slowdown as the calibration kernel saw
// it (see calib.go), and the throughput multiplied by it.
func endToEndOf(units []unit, setupSec, virtualSec, host float64) *result {
	slots := len(units[0].Ops)
	var (
		bySlot            = make([][]float64, slots) // ms, successful repetitions
		typeOf            = make([]string, slots)
		perOpCPU          []float64
		perOpAlloc        []float64
		overhead          []float64
		attempted, failed int
	)
	for _, u := range units {
		perOpCPU = append(perOpCPU, u.CPUSec/float64(len(u.Ops)))
		perOpAlloc = append(perOpAlloc, u.AllocB/float64(len(u.Ops)))
		overhead = append(overhead, u.OverheadSec)
		for _, op := range u.Ops {
			attempted++
			if op.Failed {
				failed++
				continue
			}
			bySlot[op.Slot] = append(bySlot[op.Slot], op.LatencySec*1e3/host)
			typeOf[op.Slot] = op.Type
		}
	}
	var (
		latency []float64 // per slot
		byType  = map[string][]float64{}
	)
	for slot, reps := range bySlot {
		if len(reps) > 0 {
			latency = append(latency, median(reps))
			byType[typeOf[slot]] = append(byType[typeOf[slot]], median(reps))
		}
	}
	var typeMedians []float64
	for _, k := range sortedKeys(byType) {
		typeMedians = append(typeMedians, median(byType[k]))
	}
	values := map[string]float64{
		"setup_s":            setupSec,
		"queries_per_s":      float64(len(latency)) / (sum(latency)/1e3 + median(overhead)/host),
		"query_p50_ms":       percentile(latency, 0.50),
		"query_p95_ms":       percentile(latency, 0.95),
		"query_geomean_ms":   geomean(typeMedians),
		"cpu_ms_per_query":   median(perOpCPU) * 1e3 / host,
		"alloc_mb_per_query": median(perOpAlloc) / (1 << 20),
		"virtual_s":          virtualSec,
	}
	res := &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(endToEnd)),
		// What each statistic was taken over: replays for the medians,
		// slots for the percentiles, operation types for the geometric
		// mean.
		samples: map[string]int{
			"queries_per_s": len(units), "cpu_ms_per_query": len(units), "alloc_mb_per_query": len(units),
			"query_p50_ms": len(latency), "query_p95_ms": len(latency), "query_geomean_ms": len(typeMedians),
		},
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// setupCalSamples is how many calibration samples bracket each set-up
// on either side.
const setupCalSamples = 4

// medianSetup runs set-up reps times, closing all but the last
// instance, and returns that instance with the median set-up time.
// One set-up is too noisy to bound (it is dominated by allocation and
// first-touch costs), and a later change that moves work into set-up
// must show here. Like every reported time, each set-up's is divided
// by the workload's hostFactor for the slowdown sampled just before
// and after it.
func medianSetup[T any](sp spec, reps int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(last)
		}
		var cal speedometer
		for k := 0; k < setupCalSamples; k++ {
			cal.sample()
		}
		start := time.Now()
		inst, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		elapsed := time.Since(start).Seconds()
		for k := 0; k < setupCalSamples; k++ {
			cal.sample()
		}
		times = append(times, elapsed/sp.hostFactor(cal.slowdown()))
		last = inst
	}
	return last, median(times), nil
}

// budget paces a timed section made of whole units (passes, cycles):
// it always allows the first, then another while at least half of the
// longest unit so far still fits, so a run ends near --seconds without
// cutting a unit short.
type budget struct {
	start, last    time.Time
	total, longest time.Duration
	units          int
}

func newBudget(seconds float64) *budget {
	return &budget{start: time.Now(), total: time.Duration(seconds * float64(time.Second))}
}

func (b *budget) more() bool {
	now := time.Now()
	if b.units > 0 && now.Sub(b.last) > b.longest {
		b.longest = now.Sub(b.last)
	}
	b.units++
	b.last = now
	return b.units == 1 || b.total-now.Sub(b.start) >= b.longest/2
}
