package server

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"dyno/internal/data"
	"dyno/internal/tpch"
)

// testConfig is small enough that a query answers in well under a
// second of wall clock.
func testConfig() Config {
	return Config{SF: 10, Scale: 0.05, Seed: 2014, MaxInFlight: 4, MaxQueue: 16}
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rowsKey renders a result canonically: data.Value marshals with
// sorted fields, so equal results produce equal strings.
func rowsKey(t *testing.T, rows []data.Value) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// q10Variant is Q10 with the upper order-date bound moved by i days:
// a distinct literal, hence a distinct normalized text and cache key,
// over the same four relations. Tests use it to force executions with
// traffic, the way bench/ draws its universe of texts.
func q10Variant(i int) string {
	return strings.Replace(tpch.MustQuerySQL("Q10"), "19940101", strconv.Itoa(19940101+i), 1)
}

func TestPlanCacheKeyedByVariantAndStrategy(t *testing.T) {
	// The serving key is variant|strategy|normalized SQL: the same
	// text under another variant is another entry.
	s := newTestServer(t, nil)
	ctx := context.Background()
	if _, err := s.query(ctx, Request{Query: "Q8p", Variant: "DYNOPT"}); err != nil {
		t.Fatal(err)
	}
	r, err := s.query(ctx, Request{Query: "Q8p", Variant: "BESTSTATIC"})
	if err != nil {
		t.Fatal(err)
	}
	if r.ResultCacheHit {
		t.Fatal("different variant must not hit the DYNOPT entry")
	}
	if m := s.Metrics(); m.ResultCacheMisses != 2 || m.ResultCacheSize != 2 {
		t.Errorf("misses=%d size=%d, want 2/2", m.ResultCacheMisses, m.ResultCacheSize)
	}
}

func TestStatsCacheReusesPilotResults(t *testing.T) {
	// A one-entry result cache: Q10 evicts Q8p, so the repeat executes
	// again and exercises only statistics reuse.
	s := newTestServer(t, func(c *Config) { c.ResultCacheSize = 1 })
	ctx := context.Background()

	r1, err := s.query(ctx, Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.PilotJobs == 0 || r1.StatsReused != 0 {
		t.Fatalf("first run: pilots=%d reused=%d", r1.PilotJobs, r1.StatsReused)
	}
	if _, err := s.query(ctx, Request{Query: "Q10"}); err != nil {
		t.Fatal(err)
	}

	r2, err := s.query(ctx, Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.ResultCacheHit {
		t.Fatal("evicted entry served from the result cache")
	}
	if r2.PilotJobs != 0 {
		t.Fatalf("second run executed %d pilot jobs despite cached statistics", r2.PilotJobs)
	}
	if r2.StatsReused == 0 {
		t.Fatal("second run reused no leaf statistics")
	}
	if got, want := rowsKey(t, r2.Rows), rowsKey(t, r1.Rows); got != want {
		t.Fatalf("rows differ across statistics reuse:\n%s\nvs\n%s", got, want)
	}

	m := s.Metrics()
	if m.StatsReusedLeaves == 0 || m.StatsStoreLeaves == 0 {
		t.Errorf("metrics: reused=%d storeLeaves=%d", m.StatsReusedLeaves, m.StatsStoreLeaves)
	}
}

// TestEvictedQueryRerunsFullDynopt: a text the result cache evicted
// is optimized and re-optimized from scratch over the shared
// statistics, and lands on the answer, final plan and round count of
// its first run.
func TestEvictedQueryRerunsFullDynopt(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.ResultCacheSize = 1 })
	ctx := context.Background()
	r1, err := s.query(ctx, Request{Query: "Q7"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.query(ctx, Request{Query: "Q9p"}); err != nil {
		t.Fatal(err)
	}
	r2, err := s.query(ctx, Request{Query: "Q7"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.ResultCacheHit || r2.Deduped {
		t.Fatalf("evicted text did not execute: hit=%v deduped=%v", r2.ResultCacheHit, r2.Deduped)
	}
	if r2.OptimizeSec <= 0 || r2.Iterations < 2 {
		t.Fatalf("re-execution skipped DYNOPT: optimizeSec=%v iterations=%d", r2.OptimizeSec, r2.Iterations)
	}
	if r2.Iterations != r1.Iterations || r2.FinalPlan != r1.FinalPlan {
		t.Errorf("re-execution diverged: %d rounds\n%s\nvs %d rounds\n%s",
			r2.Iterations, r2.FinalPlan, r1.Iterations, r1.FinalPlan)
	}
	if got, want := rowsKey(t, r2.Rows), rowsKey(t, r1.Rows); got != want {
		t.Fatalf("rows differ after eviction:\n%s\nvs\n%s", got, want)
	}
	if m := s.Metrics(); m.ResultCacheMisses != 3 || m.ResultCacheSize != 1 {
		t.Errorf("misses=%d size=%d, want 3/1", m.ResultCacheMisses, m.ResultCacheSize)
	}
}

func TestInvalidateForcesFreshStatistics(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	if _, err := s.query(ctx, Request{Query: "Q8p"}); err != nil {
		t.Fatal(err)
	}
	if e := s.invalidate(); e != 1 {
		t.Fatalf("epoch after invalidate = %d, want 1", e)
	}
	r, err := s.query(ctx, Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r.ResultCacheHit {
		t.Fatal("invalidate must clear the result cache")
	}
	if r.PilotJobs == 0 || r.StatsReused != 0 {
		t.Fatalf("post-invalidate run: pilots=%d reused=%d, want fresh pilots", r.PilotJobs, r.StatsReused)
	}
}

func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 1; c.MaxQueue = 1 })
	// Simulate one executing and one queued request.
	s.waiting.Add(2)
	s.sem <- struct{}{}
	defer func() { s.waiting.Add(-2); <-s.sem }()

	_, err := s.query(context.Background(), Request{Query: "Q8p"})
	if !errors.Is(err, errOverloaded) {
		t.Fatalf("err = %v, want errOverloaded", err)
	}
	if s.Metrics().Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", s.Metrics().Rejected)
	}
}

func TestQueuedRequestHonorsCancellation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxInFlight = 1; c.MaxQueue = 4 })
	s.waiting.Add(1)
	s.sem <- struct{}{} // occupy the only slot
	defer func() { s.waiting.Add(-1); <-s.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	_, err := s.query(ctx, Request{Query: "Q8p"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Metrics().Canceled != 1 {
		t.Errorf("canceled counter = %d, want 1", s.Metrics().Canceled)
	}
}

func TestQueryTimeout(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.QueryTimeout = time.Nanosecond })
	_, err := s.query(context.Background(), Request{Query: "Q8p"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	m := s.Metrics()
	if m.Timeouts != 1 || m.Errors != 0 || m.Canceled != 0 {
		t.Errorf("timeouts=%d errors=%d canceled=%d, want 1/0/0 (disjoint classes)",
			m.Timeouts, m.Errors, m.Canceled)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	cases := []Request{
		{},                                 // neither sql nor query
		{Query: "Q99"},                     // unknown named query
		{Query: "Q8p", Variant: "WRONG"},   // unknown variant
		{Query: "Q8p", Strategy: "UNC-9"},  // unknown strategy
		{SQL: "SELECT FROM WHERE 'broken"}, // lexer error
	}
	for i, req := range cases {
		if _, err := s.query(ctx, req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSessionScratchIsCleanedUp(t *testing.T) {
	s := newTestServer(t, nil)
	if _, err := s.query(context.Background(), Request{Query: "Q8p"}); err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		for _, name := range sh.rt.FS().List() {
			if strings.HasPrefix(name, "tmp/") || strings.HasPrefix(name, "pilot/") {
				t.Errorf("scratch file %q survived the session", name)
			}
		}
	}
}

// TestShardHoldsNoJobsBetweenQueries: a shard lives as long as the
// daemon, so a job its simulator still holds after the query returned
// is a leak. After any number of executions an idle shard holds none.
func TestShardHoldsNoJobsBetweenQueries(t *testing.T) {
	s := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		s.invalidate()
		if _, err := s.query(context.Background(), Request{Query: "Q10"}); err != nil {
			t.Fatal(err)
		}
	}
	if m := s.Metrics(); m.ResultCacheMisses != 3 {
		t.Fatalf("%d executions, want 3", m.ResultCacheMisses)
	}
	for _, sh := range s.shards {
		if !sh.rt.Sim().Quiesce() {
			t.Fatalf("shard %d still has live jobs", sh.id)
		}
	}
}

func TestMaxRowsTruncation(t *testing.T) {
	s := newTestServer(t, nil)
	r, err := s.query(context.Background(), Request{Query: "Q8p", MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.RowCount <= 1 {
		t.Skipf("Q8p returned %d rows at this scale", r.RowCount)
	}
	if len(r.Rows) != 1 || !r.Truncated {
		t.Errorf("rows=%d truncated=%v, want 1/true", len(r.Rows), r.Truncated)
	}
}
