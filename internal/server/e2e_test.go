package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/optimizer"
	"dyno/internal/tpch"
)

// referenceRows executes one query the way cmd/dynoql does: a fresh
// exclusive environment (FIFO scheduler, dedicated engine), no caches.
// This is the ground truth the concurrent service must reproduce.
func referenceRows(t *testing.T, cfg Config, query, variant string) []data.Value {
	t.Helper()
	ccfg := cluster.DefaultConfig()
	env := &mapreduce.Env{
		FS:  dfs.New(),
		Sim: cluster.New(ccfg),
		Reg: expr.NewRegistry(),
	}
	cat, err := tpch.Generate(env.FS, tpch.Config{SF: cfg.SF, Scale: cfg.Scale, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	tpch.RegisterUDFs(env.Reg, tpch.DefaultUDFParams())
	opts := core.DefaultOptions()
	v, err := baselines.ParseVariant(variant)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := baselines.NewEngine(v, env, cat, optimizer.DefaultConfig(float64(ccfg.SlotMemory)), opts)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := tpch.QuerySQL(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// TestConcurrentServiceMatchesSequentialCLI is the end-to-end
// acceptance check: N queries POSTed concurrently through the HTTP API
// return row-for-row the same results as sequential dynoql-style runs
// of the same (query, variant) on the same dataset.
func TestConcurrentServiceMatchesSequentialCLI(t *testing.T) {
	cfg := testConfig()
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// BESTSTATIC plans deterministically; DYNOPT exercises pilots,
	// re-optimization, and the caches under contention.
	workload := []struct{ query, variant string }{
		{"Q8p", "BESTSTATIC"},
		{"Q8p", "DYNOPT"},
		{"Q9p", "BESTSTATIC"},
		{"Q9p", "DYNOPT"},
		{"Q7", "DYNOPT"},
	}
	want := make(map[string]string)
	for _, w := range workload {
		key := w.query + "/" + w.variant
		want[key] = rowsKey(t, referenceRows(t, cfg, w.query, w.variant))
	}

	const rounds = 3 // repeats also exercise cache hits and dedup under load
	type outcome struct {
		key  string
		rows string
		err  error
	}
	results := make(chan outcome, rounds*len(workload))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, w := range workload {
			wg.Add(1)
			go func(query, variant string) {
				defer wg.Done()
				key := query + "/" + variant
				body, _ := json.Marshal(Request{Query: query, Variant: variant})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					results <- outcome{key: key, err: err}
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					results <- outcome{key: key, err: fmt.Errorf("status %d", resp.StatusCode)}
					return
				}
				var out response
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					results <- outcome{key: key, err: err}
					return
				}
				var sb bytes.Buffer
				for _, row := range out.Rows {
					b, _ := json.Marshal(row)
					sb.Write(b)
					sb.WriteByte('\n')
				}
				results <- outcome{key: key, rows: sb.String()}
			}(w.query, w.variant)
		}
	}
	wg.Wait()
	close(results)

	for out := range results {
		if out.err != nil {
			t.Errorf("%s: %v", out.key, out.err)
			continue
		}
		if out.rows != want[out.key] {
			t.Errorf("%s: concurrent rows differ from sequential reference\ngot:\n%s\nwant:\n%s",
				out.key, out.rows, want[out.key])
		}
	}

	m := s.Metrics()
	checkTierPartition(t, m, rounds*len(workload))
	// Repeats are served from a reuse tier: the result cache or the
	// in-flight dedup.
	if m.ResultCacheHits+m.Deduped == 0 {
		t.Errorf("no cache or dedup reuse across %d repeated rounds", rounds)
	}
	if m.VirtualSec <= 0 {
		t.Errorf("shared virtual clock did not advance")
	}
}

// TestShardedServiceMatchesReference proves the multi-shard service
// returns the same rows as exclusive sequential runs: sharding, the
// result cache, and dedup are throughput features only.
func TestShardedServiceMatchesReference(t *testing.T) {
	cfg := testConfig()
	s := newTestServer(t, func(c *Config) {
		c.Shards = 2
		c.MaxInFlight = 6
		c.MaxQueue = 32
	})
	queries := []string{"Q8p", "Q10"}
	want := make(map[string]string)
	for _, q := range queries {
		want[q] = rowsKey(t, referenceRows(t, cfg, q, "DYNOPT"))
	}
	const rounds = 2
	type outcome struct {
		query string
		rows  string
		err   error
	}
	results := make(chan outcome, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			go func(q string) {
				resp, err := s.query(context.Background(), Request{Query: q})
				if err != nil {
					results <- outcome{query: q, err: err}
					return
				}
				results <- outcome{query: q, rows: rowsKey(t, resp.Rows)}
			}(q)
		}
	}
	for i := 0; i < rounds*len(queries); i++ {
		out := <-results
		if out.err != nil {
			t.Errorf("%s: %v", out.query, out.err)
			continue
		}
		if out.rows != want[out.query] {
			t.Errorf("%s: sharded rows differ from sequential reference", out.query)
		}
	}
	checkTierPartition(t, s.Metrics(), rounds*len(queries))
}

// checkTierPartition asserts the one-path accounting invariant: each
// answered request is exactly one of result-cache hit, dedup follower,
// or execution (a result-cache miss), whatever the shard count, and
// none failed.
func checkTierPartition(t *testing.T, m MetricsSnapshot, want int) {
	t.Helper()
	if m.Queries != int64(want) || m.Errors != 0 {
		t.Errorf("queries = %d, errors = %d, want %d and 0", m.Queries, m.Errors, want)
	}
	if got := m.ResultCacheHits + m.Deduped + m.ResultCacheMisses; got != m.Queries {
		t.Errorf("tiers sum to %d (result hit %d + dedup %d + executed %d), want %d queries",
			got, m.ResultCacheHits, m.Deduped, m.ResultCacheMisses, m.Queries)
	}
}

// TestQueryBodyIsBounded: POST /query reads at most maxRequestBytes.
func TestQueryBodyIsBounded(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"sql":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestQueryBodyIsOneObject: POST /query reads one JSON object and
// nothing after it; anything else is a bad request.
func TestQueryBodyIsOneObject(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{`{"query":"Q10"} {"query":"Q2"}`, `{"query":"Q10"}x`, `{"query":`, ``} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "invalid JSON") {
			t.Errorf("body %q: status %d %s, want 400 invalid JSON", body, resp.StatusCode, msg)
		}
	}
}

// TestDrainingServerAnswers503: once Shutdown began, POST /query is
// refused as unavailable, not as a bad request.
func TestDrainingServerAnswers503(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"Q10"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: status %d, want 503", resp.StatusCode)
	}
}

// TestShutdownMidExecutionAnswers503: a query that Shutdown cancels
// while it executes is answered like one refused after Shutdown — 503,
// counted by no outcome counter — not as a client cancellation or a bad
// request.
func TestShutdownMidExecutionAnswers503(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Hold the query at its first job output until Shutdown has
	// canceled its context.
	inFlight := make(chan struct{})
	var once sync.Once
	s.hookJobOutput = func(ctx context.Context) {
		once.Do(func() { close(inFlight) })
		<-ctx.Done()
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"Q10"}`))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached execution")
	}
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	if got := <-status; got != http.StatusServiceUnavailable {
		t.Errorf("query canceled by Shutdown: status %d, want 503", got)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if m := s.Metrics(); m.Canceled != 0 || m.Errors != 0 || m.Timeouts != 0 || m.Queries != 0 {
		t.Errorf("canceled=%d errors=%d timeouts=%d queries=%d, want all 0",
			m.Canceled, m.Errors, m.Timeouts, m.Queries)
	}
}
