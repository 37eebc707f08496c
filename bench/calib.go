package main

import (
	"sort"
	"strconv"
	"time"
)

// The benchmark's machine is a slice of a shared host, and the host's
// other tenants slow it by 10-100% for seconds to minutes at a time —
// CPU time per query rising with wall time and no steal in
// /proc/stat, so it is cache and memory contention, not lost time
// slices. Twelve runs of one binary on one seed moved between 8.7 and
// 12.7 queries/s on sim-adhoc within ten minutes. No statistic over a
// run's own repetitions removes a slow spell that outlasts the run, so
// the timed sections interleave a fixed calibration kernel with the
// operations and report every time as the reference machine would
// have measured it: measured time ÷ spec.hostFactor(slowdown), where
// slowdown is the kernel's median time ÷ calRefSec. The same twelve
// runs then read 9.5-10.7 queries/s.
//
// The kernel is the benchmark's own code and calls nothing of the
// program, so a change to the program cannot move it.

// calRefSec is what calibrate takes on the quiet reference machine
// (2 vCPUs of a Xeon at 2.1 GHz): times are reported as that machine
// would have measured them.
const calRefSec = 0.0036

type calRec struct {
	key  string
	val  float64
	next *calRec
}

var calSink float64

// calibrate runs the kernel once and returns its wall time in seconds:
// the mix the engine's record loops are made of — small allocations,
// string keys, a hash table, a comparison sort, pointer chasing — over
// about 1.5 MB, so it feels the same contention they do.
func calibrate() float64 {
	start := time.Now()
	const n = 12000
	recs := make([]*calRec, n)
	for i := range recs {
		recs[i] = &calRec{key: strconv.Itoa((i * 2654435761) % 1000003), val: float64(i)}
	}
	table := make(map[string]*calRec, n)
	for _, r := range recs {
		table[r.key] = r
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	for i := 1; i < n; i++ {
		recs[i-1].next = recs[i]
	}
	total := 0.0
	for r := recs[0]; r != nil; r = r.next {
		total += table[r.key].val
	}
	calSink = total
	return time.Since(start).Seconds()
}

// speedometer collects calibration samples across a timed section,
// and what taking them cost, so a section that meters its own CPU and
// allocation can leave the kernel out.
type speedometer struct {
	samples []float64
	cpuSec  float64
	allocB  float64
}

// sample runs the kernel once. A nil speedometer does nothing: traced
// runs report no end-to-end times and do not calibrate.
func (s *speedometer) sample() {
	if s == nil {
		return
	}
	a0, c0 := allocBytes(), cpuSeconds()
	s.samples = append(s.samples, calibrate())
	s.cpuSec += cpuSeconds() - c0
	s.allocB += allocBytes() - a0
}

// cost is the CPU seconds and heap bytes the samples have consumed so
// far.
func (s *speedometer) cost() (cpuSec, allocB float64) {
	if s == nil {
		return 0, 0
	}
	return s.cpuSec, s.allocB
}

// slowdown is how much slower than the reference machine the host ran
// while the samples were taken: above 1 on a busy host.
func (s *speedometer) slowdown() float64 { return median(s.samples) / calRefSec }
