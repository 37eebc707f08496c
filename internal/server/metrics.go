package server

import (
	"sort"
	"sync"
	"sync/atomic"
)

// counters aggregates the service's monotonic counters.
//
// Outcome classification: every Execute call the server does not turn
// away for shutting down increments exactly one of queries, rejected,
// timeouts, canceled, or errors. A call that fails with errShuttingDown
// — refused after Shutdown, or canceled by it while queued or
// executing — increments none. timeouts counts queries that exceeded a
// deadline (the per-query timeout or the caller's own); canceled counts
// queries the client canceled, whether still queued or already
// executing; errors counts only the remaining non-cancellation failures
// (bad requests, execution errors). The three failure classes are
// disjoint.
type counters struct {
	queries  atomic.Int64 // completed successfully
	errors   atomic.Int64 // failed (excluding timeouts and cancellations)
	rejected atomic.Int64 // turned away by admission control
	timeouts atomic.Int64 // exceeded a deadline
	canceled atomic.Int64 // canceled by the client (queued or executing)

	resultHits   atomic.Int64 // served from the result cache, nothing executed
	resultMisses atomic.Int64 // led an actual execution
	deduped      atomic.Int64 // coalesced onto a concurrent identical execution

	statsReused atomic.Int64 // leaves whose statistics came from the shared store
	pilotJobs   atomic.Int64 // pilot jobs actually executed
}

// latencySample keeps the last up-to-cap query latencies for
// percentile estimation (a ring buffer; percentiles are over the
// retained window).
type latencySample struct {
	mu  sync.Mutex
	cap int
	buf []float64 // milliseconds
	idx int
}

func (l *latencySample) add(ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, ms)
		return
	}
	l.buf[l.idx] = ms
	l.idx = (l.idx + 1) % l.cap
}

// percentile returns the p-th percentile (0..1) of the retained
// window, or 0 when empty.
func (l *latencySample) percentile(p float64) float64 {
	l.mu.Lock()
	sorted := append([]float64(nil), l.buf...)
	l.mu.Unlock()
	return Percentile(sorted, p)
}

// Percentile sorts values in place and returns their p-th percentile
// (0..1) with linear interpolation between adjacent ranks: over a
// small window a truncated rank reads low (p95 of 10 samples would be
// index 8, the 90th percentile). Exported because the experiment
// harnesses compute the same percentiles over their own latency
// samples.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	if p <= 0 {
		return values[0]
	}
	if p >= 1 {
		return values[len(values)-1]
	}
	rank := p * float64(len(values)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(values) {
		return values[lo]
	}
	return values[lo] + frac*(values[lo+1]-values[lo])
}

// MetricsSnapshot is the JSON shape of GET /metrics.
type MetricsSnapshot struct {
	UptimeSec float64 `json:"uptimeSec"`
	Epoch     int64   `json:"epoch"`
	Shards    int     `json:"shards"`

	Queries  int64 `json:"queries"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	InFlight int   `json:"inFlight"`
	Queued   int   `json:"queued"`

	ResultCacheHits   int64 `json:"resultCacheHits"`
	ResultCacheMisses int64 `json:"resultCacheMisses"`
	ResultCacheSize   int   `json:"resultCacheSize"`
	Deduped           int64 `json:"deduped"`

	StatsReusedLeaves int64 `json:"statsReusedLeaves"`
	PilotJobs         int64 `json:"pilotJobs"`
	StatsStoreLeaves  int   `json:"statsStoreLeaves"`

	// MemoGroupsReused is always 0: each DYNOPT round searches a fresh
	// memo. Kept for the benchmark report that reads it.
	MemoGroupsReused int64 `json:"memoGroupsReused"`

	P50Millis float64 `json:"p50Millis"`
	P95Millis float64 `json:"p95Millis"`
	P99Millis float64 `json:"p99Millis"`

	VirtualSec float64 `json:"virtualSec"` // most-advanced shard clock
}
