package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/oncecache"
	"dyno/internal/optimizer"
	"dyno/internal/runtime"
	"dyno/internal/sqlparse"
	"dyno/internal/stats"
	"dyno/internal/tpch"
)

// errOverloaded is returned when the admission queue is full.
var errOverloaded = errors.New("server: overloaded, admission queue full")

// errShuttingDown is returned to requests arriving after Shutdown
// began.
var errShuttingDown = errors.New("server: shutting down")

// Config sizes the service and its dataset.
type Config struct {
	// Dataset: TPC-H scale factor, row-count multiplier, and seed, as
	// everywhere else in the repository.
	SF    float64
	Scale float64
	Seed  int64

	// Workers overrides the cluster size; zero keeps
	// cluster.DefaultConfig (the paper's 14 workers). The scheduler is
	// always Fair — the whole point of the service is sharing slots
	// across concurrent queries.
	Workers int

	// Shards is the number of independent cluster/DFS/catalog shards.
	// Requests route to shards by hash of their normalized SQL, so
	// each query text always lands on the same shard (and its caches).
	// 0 or 1 runs a single shard, reproducing the unsharded service
	// bit for bit. Every shard generates its own copy of the dataset
	// from the same seed.
	Shards int

	// Admission control: at most MaxInFlight queries execute at once;
	// up to MaxQueue more wait; beyond that requests fail fast with
	// errOverloaded. QueryTimeout is the per-query wall-clock budget
	// (0 disables).
	MaxInFlight  int
	MaxQueue     int
	QueryTimeout time.Duration

	// ResultCacheSize bounds each shard's result cache (entries; 0
	// means 256). A repeat of a cached query returns the cached rows
	// without executing; concurrent identical misses coalesce onto one
	// execution; everything else runs full DYNOPT over the shard's
	// shared statistics store.
	ResultCacheSize int

	// NewRuntime builds each shard's execution backend; nil uses the
	// simulator backend (simruntime). The proc backend passes a factory
	// producing fleet-backed runtimes here; the fleet itself outlives
	// the server and is closed by its creator.
	NewRuntime func(cluster.Config) (runtime.Runtime, error)
}

// DefaultConfig returns a service sized for interactive use on the
// simulated cluster: a small dataset so queries answer in wall-clock
// seconds, four concurrent queries, a short queue, one shard.
func DefaultConfig() Config { return Config{MaxQueue: 16, QueryTimeout: 2 * time.Minute}.normalized() }

func (c Config) normalized() Config {
	if c.SF <= 0 {
		c.SF = 10
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 2014
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	c.MaxQueue = max(c.MaxQueue, 0)
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 256
	}
	return c
}

// Request is one query for the service.
type Request struct {
	// SQL is the query text; alternatively Query names one of the
	// TPC-H evaluation queries (Q2, Q7, Q8p, Q9p, Q10).
	SQL   string `json:"sql,omitempty"`
	Query string `json:"query,omitempty"`
	// Variant selects the optimizer variant (default DYNOPT) and
	// Strategy the leaf-job strategy (default UNC-1).
	Variant  string `json:"variant,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// MaxRows caps the rows returned (0 returns all).
	MaxRows int `json:"maxRows,omitempty"`
}

// response is the outcome of one query.
type response struct {
	Query   string `json:"query,omitempty"`
	Variant string `json:"variant"`
	// Shard identifies the shard that served the query (requests route
	// by hash of the normalized SQL).
	Shard int `json:"shard,omitempty"`

	Rows      []data.Value `json:"rows"`
	RowCount  int          `json:"rowCount"`
	Truncated bool         `json:"truncated,omitempty"`

	// ResultCacheHit reports that the rows came straight from the
	// normalized-SQL result cache — nothing executed. Deduped reports
	// that this request coalesced onto a concurrent identical
	// execution: the leader ran the query, this request only waited
	// for its result. In both cases the execution statistics below
	// (Jobs, PilotJobs, OptimizeSec, ...) describe the execution that
	// produced the rows, not work done by this request.
	ResultCacheHit bool `json:"resultCacheHit,omitempty"`
	Deduped        bool `json:"deduped,omitempty"`

	StatsReused int `json:"statsReusedLeaves"`
	PilotJobs   int `json:"pilotJobs"`

	Jobs        int     `json:"jobs"`
	Iterations  int     `json:"iterations"`
	VirtualSec  float64 `json:"virtualSec"`
	PilotSec    float64 `json:"pilotSec"`
	OptimizeSec float64 `json:"optimizeSec"`
	WallMillis  float64 `json:"wallMillis"`

	FinalPlan string       `json:"finalPlan,omitempty"`
	Warnings  []string     `json:"warnings,omitempty"`
	enc       *encodedRows // Rows as JSON, shared by every view of them
}

// Server is the query service. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg Config

	reg    *expr.Registry
	optCfg optimizer.Config
	shards []*shard
	// norms memoizes sqlparse.Normalize by raw text, one entry per
	// result the shards can hold.
	norms *oncecache.Cache[string, string]

	sem     chan struct{} // in-flight slots
	waiting atomic.Int64  // queued + executing requests
	seq     atomic.Int64  // session tags
	epoch   atomic.Int64  // invalidations so far

	// Graceful shutdown: baseCtx is canceled by Shutdown, which every
	// query context is tied to; wg tracks queries between admission and
	// completion; shutMu/closed gate new enrollments.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	shutMu     sync.RWMutex
	closed     bool
	wg         sync.WaitGroup

	met   counters
	lat   *latencySample
	start time.Time

	// hookJobOutput, when non-nil, runs after each job output file is
	// created, with the query's context. Tests use it to act at a
	// provably mid-execution moment.
	hookJobOutput func(ctx context.Context)
}

// New builds a service: each shard generates the TPC-H dataset once
// and owns its simulated cluster, DFS, catalog, and caches for the
// server's lifetime.
func New(cfg Config) (*Server, error) {
	cfg = cfg.normalized()
	ccfg := cluster.DefaultConfig()
	ccfg.Scheduler = cluster.Fair
	ccfg.RetireDoneJobs = true
	if cfg.Workers > 0 {
		ccfg.Workers = cfg.Workers
	}
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, tpch.DefaultUDFParams())
	shards := make([]*shard, cfg.Shards)
	for i := range shards {
		sh, err := newShard(i, cfg, ccfg)
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		reg:        reg,
		optCfg:     optimizer.DefaultConfig(float64(ccfg.SlotMemory)),
		shards:     shards,
		norms:      oncecache.New[string, string](int64(cfg.ResultCacheSize * cfg.Shards)),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		lat:        &latencySample{cap: 4096},
		start:      time.Now(),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
	}, nil
}

// query admits, runs, and accounts one query.
func (s *Server) query(ctx context.Context, req Request) (*response, error) {
	// Enroll in the shutdown drain set under the read lock; Shutdown
	// flips closed under the write lock and then waits for the group,
	// so it can never miss an admitted query.
	s.shutMu.RLock()
	if s.closed {
		s.shutMu.RUnlock()
		return nil, errShuttingDown
	}
	s.wg.Add(1)
	s.shutMu.RUnlock()
	defer s.wg.Done()

	if n := s.waiting.Add(1); n > int64(s.cfg.MaxInFlight+s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		s.met.rejected.Add(1)
		return nil, errOverloaded
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.met.canceled.Add(1)
		return nil, ctx.Err()
	case <-s.baseCtx.Done():
		return nil, errShuttingDown
	}
	defer func() { <-s.sem }()

	start := time.Now()
	resp, err := s.run(ctx, req)
	wall := time.Since(start)
	if err != nil {
		// Every failed outcome but a shutdown increments exactly one
		// counter: timeouts and canceled are disjoint from each other
		// and from errors, which counts only non-cancellation failures
		// (see counters).
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.met.timeouts.Add(1)
		case errors.Is(err, errShuttingDown):
			return nil, err
		case errors.Is(err, context.Canceled):
			s.met.canceled.Add(1)
		default:
			s.met.errors.Add(1)
		}
		return nil, err
	}
	resp.WallMillis = float64(wall.Microseconds()) / 1000
	s.met.queries.Add(1)
	s.lat.add(resp.WallMillis)
	return resp, nil
}

// shardFor routes a normalized query to its shard.
func (s *Server) shardFor(norm string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(norm); i++ {
		h = (h ^ uint64(norm[i])) * 1099511628211
	}
	return s.shards[h%uint64(len(s.shards))]
}

// requestView adapts a shared response prototype — the execution's
// full result, also stored in the result cache and handed to dedup
// followers — to one request: a shallow copy with per-request flags
// and MaxRows truncation. Rows, their JSON and Warnings are shared
// read-only.
func requestView(proto *response, req Request, resultHit, deduped bool) *response {
	r := *proto
	r.Query = req.Query
	r.ResultCacheHit = resultHit
	r.Deduped = deduped
	if req.MaxRows > 0 && len(r.Rows) > req.MaxRows {
		r.Rows = r.Rows[:req.MaxRows]
		r.Truncated = true
	}
	return &r
}

// run resolves, routes, and serves one admitted query from its shard's
// result table: a finished result, the execution another request has
// under way, or an engine session of its own.
func (s *Server) run(ctx context.Context, req Request) (*response, error) {
	sql := req.SQL
	if sql == "" {
		if req.Query == "" {
			return nil, fmt.Errorf("server: request needs sql or query")
		}
		var err error
		sql, err = tpch.QuerySQL(req.Query)
		if err != nil {
			return nil, fmt.Errorf("server: unknown query %q (valid: %s)",
				req.Query, strings.Join(tpch.QueryNames, ", "))
		}
	}
	variant, err := baselines.ParseVariant(cmp.Or(req.Variant, string(baselines.VariantDynOpt)))
	if err != nil {
		return nil, err
	}
	strategyName := cmp.Or(req.Strategy, "UNC-1")
	strat, err := core.ParseStrategy(strategyName)
	if err != nil {
		return nil, err
	}
	norm, _, err := s.norms.Get(ctx, sql, func() (string, int64, error) {
		norm, err := sqlparse.Normalize(sql)
		return norm, 1, err
	})
	if err != nil {
		return nil, err
	}

	sh := s.shardFor(norm)
	store, results := sh.session()
	key := string(variant) + "|" + strategyName + "|" + norm
	if proto, ok := results.Peek(key); ok {
		s.met.resultHits.Add(1)
		return requestView(proto, req, true, false), nil
	}

	// Only an execution or a wait on one needs its own context, tied to
	// both the caller and server shutdown: Shutdown cancels baseCtx,
	// which cancels every in-flight query with errShuttingDown as the
	// cause.
	qctx, qcancel := context.WithCancelCause(ctx)
	defer qcancel(nil)
	stop := context.AfterFunc(s.baseCtx, func() { qcancel(errShuttingDown) })
	defer stop()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		qctx, cancel = context.WithTimeout(qctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	proto, res, err := serve(qctx, results, key, func() (*response, int64, error) {
		resp, err := s.execute(qctx, sh, sql, variant, strat, store)
		return resp, 1, err
	})
	if errors.Is(err, context.Canceled) && errors.Is(context.Cause(qctx), errShuttingDown) {
		// Shutdown, not the client, canceled it: answer as a request
		// refused after Shutdown is answered.
		return nil, fmt.Errorf("%w: query canceled mid-execution", errShuttingDown)
	}
	if err != nil {
		return nil, err
	}
	switch res {
	case oncecache.Hit:
		s.met.resultHits.Add(1)
	case oncecache.Waited:
		s.met.deduped.Add(1)
	case oncecache.Built:
		s.met.resultMisses.Add(1)
	}
	return requestView(proto, req, res == oncecache.Hit, res == oncecache.Waited), nil
}

// serve gets key from a result table, running build when no request
// has it yet. A request that waited on an execution which was canceled
// while its own context is live does not inherit the cancellation: it
// asks again, running the query itself or waiting on a newer
// execution, so one canceled request never fails those behind it. An
// execution that fails on the query's own merits fails its waiters
// too, since running it again would fail the same way.
func serve(ctx context.Context, results *oncecache.Cache[string, *response], key string,
	build func() (*response, int64, error)) (*response, oncecache.Result, error) {
	for {
		proto, res, err := results.Get(ctx, key, build)
		canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if res != oncecache.Waited || !canceled || ctx.Err() != nil {
			return proto, res, err
		}
	}
}

// execute runs one query in its own engine session on sh — full DYNOPT
// over the shard's shared statistics store — and returns the full
// (untruncated) response prototype.
func (s *Server) execute(ctx context.Context, sh *shard, sql string, variant baselines.Variant,
	strat core.Strategy, store *stats.Store) (*response, error) {
	env := sh.rt.NewEnv(s.reg)
	env.Gate = &sessionGate{gate: sh.gate, ctx: ctx}
	if hook := s.hookJobOutput; hook != nil {
		env.OnCreateFile = func(string) { hook(ctx) }
	}

	opts := core.DefaultOptions()
	opts.Tag = fmt.Sprintf("s%d-", s.seq.Add(1))
	opts.Strategy = strat
	opts.ReuseStats = true
	eng, err := baselines.NewEngine(variant, env, sh.cat, s.optCfg, opts)
	if err != nil {
		return nil, err
	}
	// Share the shard's cross-query statistics store: pilot results
	// land in it and later queries over the same leaf expressions
	// skip their pilots.
	eng.Store = store

	res, err := eng.ExecuteSQLContext(ctx, sql)
	if err != nil {
		return nil, err
	}

	resp := &response{
		Variant:     string(variant),
		Shard:       sh.id,
		RowCount:    len(res.Rows),
		Jobs:        res.Jobs,
		Iterations:  res.Iterations,
		VirtualSec:  res.TotalSec,
		PilotSec:    res.PilotSec,
		OptimizeSec: res.OptimizeSec,
		FinalPlan:   res.FinalPlan,
		Warnings:    res.Warnings,
		Rows:        res.Rows,
		enc:         &encodedRows{},
	}
	if res.Pilot != nil {
		resp.StatsReused = res.Pilot.Reused
		resp.PilotJobs = res.Pilot.Jobs
		s.met.statsReused.Add(int64(res.Pilot.Reused))
		s.met.pilotJobs.Add(int64(res.Pilot.Jobs))
	}
	return resp, nil
}

// invalidate gives every shard a fresh statistics store and result
// table, so the next queries execute and re-run pilots against the
// current base tables. Call it after changing base data. Returns the
// new epoch, the count of invalidations so far.
func (s *Server) invalidate() int64 {
	e := s.epoch.Add(1)
	for _, sh := range s.shards {
		sh.invalidate(s.cfg.ResultCacheSize)
	}
	return e
}

// Shutdown drains the server: new requests fail fast with
// errShuttingDown, every in-flight query's context is canceled, and
// once all queries have returned the shard runtimes are closed. The
// ctx bounds how long to wait for the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutMu.Lock()
	already := s.closed
	s.closed = true
	s.shutMu.Unlock()
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if already {
		return nil
	}
	var firstErr error
	for _, sh := range s.shards {
		if err := sh.rt.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Metrics snapshots the service counters. Cache sizes aggregate over
// shards; VirtualSec reports the most-advanced shard clock.
func (s *Server) Metrics() MetricsSnapshot {
	var resultSize, storeLeaves int
	var virtual float64
	for _, sh := range s.shards {
		store, results := sh.session()
		n, _, _, _, _ := results.Stats()
		resultSize += n
		storeLeaves += store.Len()
		virtual = max(virtual, sh.gate.Now())
	}
	inFlight := len(s.sem)
	queued := max(int(s.waiting.Load())-inFlight, 0)
	return MetricsSnapshot{
		UptimeSec:         time.Since(s.start).Seconds(),
		Epoch:             s.epoch.Load(),
		Shards:            len(s.shards),
		Queries:           s.met.queries.Load(),
		Errors:            s.met.errors.Load(),
		Rejected:          s.met.rejected.Load(),
		Timeouts:          s.met.timeouts.Load(),
		Canceled:          s.met.canceled.Load(),
		InFlight:          inFlight,
		Queued:            queued,
		ResultCacheHits:   s.met.resultHits.Load(),
		ResultCacheMisses: s.met.resultMisses.Load(),
		ResultCacheSize:   resultSize,
		Deduped:           s.met.deduped.Load(),
		StatsReusedLeaves: s.met.statsReused.Load(),
		PilotJobs:         s.met.pilotJobs.Load(),
		StatsStoreLeaves:  storeLeaves,
		P50Millis:         s.lat.percentile(0.50),
		P95Millis:         s.lat.percentile(0.95),
		P99Millis:         s.lat.percentile(0.99),
		VirtualSec:        virtual,
	}
}
