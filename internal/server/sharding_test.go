package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

func TestResultCacheSkipsExecution(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()

	r1, err := s.query(ctx, Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ResultCacheHit {
		t.Fatal("first execution must miss the result cache")
	}

	// A result-cache hit must execute nothing: the shard's virtual
	// clock cannot move. Same query, different whitespace and keyword
	// case (literals and identifiers untouched): normalization must
	// still hit.
	sh := s.shardFor(mustNorm(t, s, "Q8p"))
	before := sh.gate.Now()
	sql, _ := tpch.QuerySQL("Q8p")
	mangled := "  select" + strings.TrimPrefix(
		strings.ReplaceAll(strings.TrimSpace(sql), "\n", " \n\t "), "SELECT") + " "
	r2, err := s.query(ctx, Request{SQL: mangled})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.ResultCacheHit {
		t.Fatal("second execution must hit the result cache")
	}
	if after := sh.gate.Now(); after != before {
		t.Fatalf("result-cache hit advanced the shard clock: %v -> %v", before, after)
	}
	if got, want := rowsKey(t, r2.Rows), rowsKey(t, r1.Rows); got != want {
		t.Fatalf("cached rows differ:\n%s\nvs\n%s", got, want)
	}

	m := s.Metrics()
	if m.ResultCacheHits != 1 || m.ResultCacheMisses != 1 {
		t.Errorf("result cache hits=%d misses=%d, want 1/1", m.ResultCacheHits, m.ResultCacheMisses)
	}
	if m.PilotJobs != int64(r1.PilotJobs) {
		t.Errorf("pilot jobs = %d, want the first run's %d (hit skipped planning entirely)",
			m.PilotJobs, r1.PilotJobs)
	}
	if m.ResultCacheSize != 1 {
		t.Errorf("result cache size = %d, want 1", m.ResultCacheSize)
	}

	// Invalidation orphans the entry: the next run executes afresh.
	s.invalidate()
	r3, err := s.query(ctx, Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.ResultCacheHit {
		t.Fatal("post-invalidate run hit the result cache")
	}
	if got, want := rowsKey(t, r3.Rows), rowsKey(t, r1.Rows); got != want {
		t.Fatal("post-invalidate rows differ")
	}
}

func TestResultCacheHitHonorsMaxRows(t *testing.T) {
	s := newTestServer(t, nil)
	ctx := context.Background()
	r1, err := s.query(ctx, Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.RowCount <= 1 {
		t.Skipf("Q8p returned %d rows at this scale", r1.RowCount)
	}
	r2, err := s.query(ctx, Request{Query: "Q8p", MaxRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.ResultCacheHit || len(r2.Rows) != 1 || !r2.Truncated {
		t.Fatalf("hit=%v rows=%d truncated=%v, want true/1/true", r2.ResultCacheHit, len(r2.Rows), r2.Truncated)
	}
	// The cached prototype must keep its full rows for later requests.
	r3, err := s.query(ctx, Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Rows) != r1.RowCount || r3.Truncated {
		t.Fatalf("truncated view leaked into the cache: rows=%d truncated=%v", len(r3.Rows), r3.Truncated)
	}
}

// mustNorm resolves a named query to its normalized SQL for direct
// shard inspection in tests.
func mustNorm(t *testing.T, s *Server, query string) string {
	t.Helper()
	sql, err := tpch.QuerySQL(query)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := sqlparse.Normalize(sql)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

func TestDedupCoalescesConcurrentMisses(t *testing.T) {
	s := newTestServer(t, nil)
	const k = 4
	type out struct {
		resp *response
		err  error
	}
	results := make(chan out, k)
	for i := 0; i < k; i++ {
		go func() {
			r, err := s.query(context.Background(), Request{Query: "Q8p"})
			results <- out{r, err}
		}()
	}
	var rows []string
	leaders, followers := 0, 0
	for i := 0; i < k; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		rows = append(rows, rowsKey(t, o.resp.Rows))
		switch {
		case o.resp.Deduped:
			followers++
		case !o.resp.ResultCacheHit:
			leaders++
		}
	}
	for _, r := range rows[1:] {
		if r != rows[0] {
			t.Fatal("coalesced responses returned different rows")
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d, want exactly 1 execution", leaders)
	}
	m := s.Metrics()
	if m.ResultCacheMisses != 1 {
		t.Errorf("resultMisses=%d, want 1 (one execution total)", m.ResultCacheMisses)
	}
	if m.Deduped+m.ResultCacheHits != k-1 {
		t.Errorf("deduped=%d resultHits=%d, want them to cover the other %d requests",
			m.Deduped, m.ResultCacheHits, k-1)
	}
	if followers == 0 && m.ResultCacheHits == 0 {
		t.Error("no request coalesced or hit the cache")
	}
}

func TestShardRoutingIsStableAndIsolated(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.Scale = 0.02
		c.Shards = 3
		c.MaxInFlight = 6
		c.MaxQueue = 64
	})
	if len(s.shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(s.shards))
	}
	// Distinct shards share nothing: gates, simulators, filesystems,
	// catalogs, and caches are all per-shard.
	for i := 0; i < len(s.shards); i++ {
		for j := i + 1; j < len(s.shards); j++ {
			a, b := s.shards[i], s.shards[j]
			if a.gate == b.gate || a.rt.Sim() == b.rt.Sim() || a.rt.FS() == b.rt.FS() || a.cat == b.cat ||
				a.results == b.results || a.store == b.store {
				t.Fatalf("shards %d and %d share state", i, j)
			}
		}
	}
	// Routing is deterministic in the normalized SQL.
	for _, norm := range []string{"a", "b", "c", "select 1"} {
		first := s.shardFor(norm)
		for i := 0; i < 10; i++ {
			if s.shardFor(norm) != first {
				t.Fatalf("query %q routed to different shards", norm)
			}
		}
	}

	// Race-clean under concurrent load: the same query always lands on
	// the same shard, reported per response.
	queries := []string{"Q8p", "Q9p", "Q10"}
	var mu sync.Mutex
	shardOf := map[string]int{}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				r, err := s.query(context.Background(), Request{Query: q})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := shardOf[q]; ok && prev != r.Shard {
					t.Errorf("%s served by shard %d then %d", q, prev, r.Shard)
				}
				shardOf[q] = r.Shard
			}(q)
		}
	}
	wg.Wait()
}

// TestInvalidateMidQueryDoesNotParkStaleEntries: an invalidate that
// lands while a query executes leaves that execution's result where no
// later request reads it, and a request issued after the invalidate
// runs its own execution instead of waiting on the stale one.
func TestInvalidateMidQueryDoesNotParkStaleEntries(t *testing.T) {
	s := newTestServer(t, nil)
	// The hook runs on whichever goroutine steps the shard's simulator,
	// under its gate: it only invalidates and signals, it never waits.
	invalidated := make(chan struct{})
	var once sync.Once
	s.hookJobOutput = func(context.Context) {
		once.Do(func() {
			if e := s.invalidate(); e != 1 {
				t.Errorf("epoch = %d, want 1", e)
			}
			close(invalidated)
		})
	}
	first := make(chan error, 1)
	go func() {
		_, err := s.query(context.Background(), Request{Query: "Q8p"})
		first <- err
	}()
	<-invalidated
	r2, err := s.query(context.Background(), Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Deduped || r2.ResultCacheHit {
		t.Fatalf("request after the invalidate: deduped=%v hit=%v, want its own execution", r2.Deduped, r2.ResultCacheHit)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	r3, err := s.query(context.Background(), Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.ResultCacheHit {
		t.Fatal("a repeat did not hit the post-invalidate result")
	}
	s.invalidate()
	r4, err := s.query(context.Background(), Request{Query: "Q8p"})
	if err != nil {
		t.Fatal(err)
	}
	if r4.ResultCacheHit {
		t.Fatal("a repeat after a second invalidate hit the result cache")
	}
	if m := s.Metrics(); m.ResultCacheMisses != 3 || m.ResultCacheHits != 1 || m.Deduped != 0 {
		t.Errorf("misses=%d hits=%d deduped=%d, want 3/1/0", m.ResultCacheMisses, m.ResultCacheHits, m.Deduped)
	}
}

func TestCancellationMetricClassification(t *testing.T) {
	// Mid-execution cancel: canceled alone, not errors. The job-output
	// hook cancels deterministically after the query's first job
	// finishes — provably mid-execution, with more jobs still to run.
	s := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	s.hookJobOutput = func(context.Context) { cancel() }
	if _, err := s.query(ctx, Request{Query: "Q8p"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s.hookJobOutput = nil
	m := s.Metrics()
	if m.Canceled != 1 || m.Errors != 0 || m.Timeouts != 0 {
		t.Errorf("mid-execution cancel: canceled=%d errors=%d timeouts=%d, want 1/0/0",
			m.Canceled, m.Errors, m.Timeouts)
	}

	// A genuine failure counts under errors alone.
	if _, err := s.query(context.Background(), Request{SQL: "SELECT FROM WHERE 'broken"}); err == nil {
		t.Fatal("expected parse error")
	}
	m = s.Metrics()
	if m.Errors != 1 || m.Canceled != 1 || m.Timeouts != 0 {
		t.Errorf("after genuine error: errors=%d canceled=%d timeouts=%d, want 1/1/0",
			m.Errors, m.Canceled, m.Timeouts)
	}
}
