package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dyno/internal/data"
	"dyno/internal/server"
	"dyno/internal/tpch"
)

// Literal domains the generator draws from (internal/tpch/gen.go), so
// every substituted text selects real rows.
var (
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	partTypes = []string{
		"ECONOMY ANODIZED STEEL", "LARGE BRUSHED BRASS", "STANDARD POLISHED TIN",
		"SMALL PLATED COPPER", "MEDIUM BURNISHED NICKEL", "PROMO BURNISHED STEEL",
	}
	nations = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
)

// substitute draws one text from a template, TPC-H qgen style: the
// canonical query with its literals replaced. Q9p has no literals and
// always returns the canonical text.
func substitute(template string, rng *rand.Rand) string {
	sql := tpch.MustQuerySQL(template)
	rep := func(old, new string) {
		if !strings.Contains(sql, old) {
			panic("bench: template " + template + " lost literal " + old)
		}
		sql = strings.ReplaceAll(sql, old, new)
	}
	switch template {
	case "Q2":
		rep("p_size <= 15", fmt.Sprintf("p_size <= %d", 5+rng.Intn(46)))
		rep("'LARGE BRUSHED BRASS'", "'"+partTypes[rng.Intn(len(partTypes))]+"'")
		rep("'EUROPE'", "'"+regions[rng.Intn(len(regions))]+"'")
	case "Q7":
		a := rng.Intn(len(nations))
		b := (a + 1 + rng.Intn(len(nations)-1)) % len(nations)
		// Placeholders first: the two names swap places in the text.
		rep("'FRANCE'", "'\x00a'")
		rep("'GERMANY'", "'\x00b'")
		rep("'\x00a'", "'"+nations[a]+"'")
		rep("'\x00b'", "'"+nations[b]+"'")
		y := 1992 + rng.Intn(6)
		rep("19950101", fmt.Sprintf("%d0101", y))
		rep("19961231", fmt.Sprintf("%d1231", y+1))
	case "Q8p":
		rep("'AMERICA'", "'"+regions[rng.Intn(len(regions))]+"'")
		rep("'ECONOMY ANODIZED STEEL'", "'"+partTypes[rng.Intn(len(partTypes))]+"'")
		y := 1992 + rng.Intn(6)
		rep("19950101", fmt.Sprintf("%d%02d01", y, 1+rng.Intn(6)))
		rep("19960630", fmt.Sprintf("%d%02d28", y+1, 1+rng.Intn(12)))
	case "Q10":
		y, m := 1992+rng.Intn(6), 1+rng.Intn(12)
		rep("19931001", fmt.Sprintf("%d%02d01", y, m))
		end := m + 1 + rng.Intn(3) // a one- to three-month window
		rep("19940101", fmt.Sprintf("%d%02d01", y+(end-1)/12, (end-1)%12+1))
		rep("'R'", "'"+[]string{"R", "A", "N"}[rng.Intn(3)]+"'")
	}
	return sql
}

// universe builds n distinct query texts in popularity order. The
// template of each rank is fixed (round-robin), so every seed has the
// same mix of light and heavy queries at every popularity level and
// the seed decides only the literals; Q9p contributes its single text
// once.
func universe(n int, rng *rand.Rand) []string {
	withLiterals := []string{"Q2", "Q7", "Q8p", "Q10"}
	seen := map[string]bool{}
	texts := []string{tpch.MustQuerySQL("Q9p")}
	seen[texts[0]] = true
	for i := 0; len(texts) < n; i++ {
		template := withLiterals[i%len(withLiterals)]
		for tries := 0; ; tries++ {
			if tries > 10000 {
				panic("bench: template " + template + " cannot supply its share of " + fmt.Sprint(n) + " distinct texts")
			}
			sql := substitute(template, rng)
			if !seen[sql] {
				seen[sql] = true
				texts = append(texts, sql)
				break
			}
		}
	}
	return texts
}

// serveBench is a started service and its traffic.
type serveBench struct {
	spec    spec
	maxRows int
	srv     *server.Server
	http    *http.Server
	url     string
	texts   []string
	draw    *zipfDraw // popularity ranks over texts
	client  []*http.Client

	mu    sync.Mutex
	first map[int]answer // text → the first answer it got

	// Traced runs: tr receives a client span per request and, through
	// middleware around Server.Handler(), a server span parented to it;
	// tracing switches both on for one cycle at a time.
	tr      *tracer
	tracing atomic.Bool
	nextOp  atomic.Int64

	virtualSec float64
	coldSec    float64

	// cal, while set, takes a calibration sample before every
	// calEvery-th request, outside the request's round trip and outside
	// the cycle's CPU and allocation figures. Only the measured run sets
	// it, and that run has one caller: samples are taken between one
	// caller's requests, not beside another's.
	cal *speedometer
}

// calEvery spaces the calibration samples of a cycle: one per ten
// requests adds about a sixth to the cycle's elapsed time.
const calEvery = 10

// reply is the part of server.Response the benchmark reads.
type reply struct {
	Rows           json.RawMessage `json:"rows"`
	RowCount       int             `json:"rowCount"`
	ResultCacheHit bool            `json:"resultCacheHit"`
	Deduped        bool            `json:"deduped"`
	PlanCacheHit   bool            `json:"planCacheHit"`
	StatsReused    int             `json:"statsReusedLeaves"`
	PilotJobs      int             `json:"pilotJobs"`
	MemoReused     int             `json:"memoGroupsReused"`
	VirtualSec     float64         `json:"virtualSec"`
	WallMillis     float64         `json:"wallMillis"`
}

// reqSample is one measured request.
type reqSample struct {
	Text    int
	Hit     bool // result-cache hit or deduped; otherwise the query executed
	RTTSec  float64
	Reply   reply
	Err     error
	AfterIn bool // first request after an invalidate
}

// interactiveRows is the maxRows every client asks for, as an
// interactive user would.
const interactiveRows = 20

// spanHeader carries a traced request's client span and operation id
// to the server-side middleware.
const spanHeader = "X-Bench-Span"

// traced wraps the service's handler with the server-side span.
func (b *serveBench) traced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		var parent, op int
		if n, _ := fmt.Sscanf(r.Header.Get(spanHeader), "%d,%d", &parent, &op); n != 2 {
			h.ServeHTTP(rw, r)
			return
		}
		id := b.tr.begin("server.handle", parent, op)
		h.ServeHTTP(rw, r)
		b.tr.end(id)
	})
}

// setupServe is the service's cold start: two shards generate their
// datasets, the listener comes up, the five canonical queries run cold
// (the reference pass) and once more after an invalidate (the warm-up
// pass). tr is nil except in traced runs.
func setupServe(sp spec, seed int64, tr *tracer) (*serveBench, error) {
	if runtime.GOMAXPROCS(0) < 2 {
		return nil, errors.New("serve-mix needs GOMAXPROCS >= 2: the caller and the two-shard server share one core otherwise")
	}
	cfg := server.DefaultConfig()
	cfg.SF, cfg.Scale, cfg.Shards, cfg.Seed = sp.SF, sp.Scale, 2, seed
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	b := &serveBench{
		spec:  sp,
		srv:   srv,
		url:   "http://" + ln.Addr().String(),
		first: map[int]answer{},
		tr:    tr,

		maxRows: interactiveRows,
	}
	b.http = &http.Server{Handler: srv.Handler()}
	if tr != nil {
		b.http.Handler = b.traced(srv.Handler())
	}
	go b.http.Serve(ln)
	b.texts, b.draw = traffic(sp, seed)
	for i := 0; i < max(sp.Clients, scalingClients); i++ {
		// One keep-alive connection per client, as a dynod caller holds.
		b.client = append(b.client, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	if err := b.warm(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warm is the service's reference pass — the five canonical texts,
// sequentially, cold — and its warm-up pass: the same five executed
// again after an invalidate (without it they would be result-cache
// hits and warm nothing). The canonical texts are not all in the
// universe, so they get negative text ids.
func (b *serveBench) warm() error {
	start := time.Now()
	for i, q := range queryNames {
		s := b.post(0, -1-i, tpch.MustQuerySQL(q))
		if s.Err != nil {
			return fmt.Errorf("reference %s: %w", q, s.Err)
		}
		b.virtualSec += s.Reply.VirtualSec
	}
	b.coldSec = time.Since(start).Seconds()
	if err := b.invalidate(0); err != nil {
		return err
	}
	for i, q := range queryNames {
		if s := b.post(0, -1-i, tpch.MustQuerySQL(q)); s.Err != nil {
			return fmt.Errorf("warm-up %s: %w", q, s.Err)
		}
	}
	return nil
}

func (b *serveBench) close() {
	b.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx)
	for _, c := range b.client {
		c.CloseIdleConnections()
	}
}

// traffic derives the workload's inputs from the seed: the universe
// of texts and the sampler every cycle's request sequence comes from.
func traffic(sp spec, seed int64) ([]string, *zipfDraw) {
	rng := rand.New(rand.NewSource(seed))
	texts := universe(sp.Universe, rng)
	return texts, newZipfDraw(len(texts), sp.ZipfS, rng)
}

// zipfDraw samples popularity ranks 0..n-1 with P(rank k) ∝
// 1/(k+1)^s, a whole cycle at a time and systematically: the cycle's
// m draws are the CDF's inverse at m evenly spaced points under one
// random offset, then shuffled. Every rank still appears with its
// Zipf probability, but the head ranks appear their expected number
// of times in every cycle and the number of distinct texts — hence
// the share of requests that must execute — hardly moves between
// cycles or seeds. Independent draws left that share, and every
// per-request cost with it, to chance.
type zipfDraw struct {
	cdf []float64
	rng *rand.Rand
}

func newZipfDraw(n int, s float64, rng *rand.Rand) *zipfDraw {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &zipfDraw{cdf: cdf, rng: rng}
}

func (z *zipfDraw) cycle(m int) []int {
	seq := make([]int, m)
	offset := z.rng.Float64()
	for i := range seq {
		u := (float64(i) + offset) / float64(m)
		seq[i] = min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
	}
	z.rng.Shuffle(m, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// post sends one query and checks its answer: a non-200 status, an
// undecodable body, or rows that differ from the first answer the
// same text ever got all fail the request.
func (b *serveBench) post(client, text int, sql string) reqSample {
	s := reqSample{Text: text}
	body, _ := json.Marshal(server.Request{SQL: sql, MaxRows: b.maxRows})
	req, err := http.NewRequest(http.MethodPost, b.url+"/query", bytes.NewReader(body))
	if err != nil {
		s.Err = err
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if b.tracing.Load() {
		op := int(b.nextOp.Add(1))
		id := b.tr.begin("client.query", -1, op)
		defer b.tr.end(id)
		req.Header.Set(spanHeader, fmt.Sprintf("%d,%d", id, op))
	}
	start := time.Now()
	resp, err := b.client[client].Do(req)
	if err != nil {
		s.Err = err
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.RTTSec = time.Since(start).Seconds()
	if err != nil {
		s.Err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.Err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return s
	}
	if err := json.Unmarshal(raw, &s.Reply); err != nil {
		s.Err = err
		return s
	}
	s.Hit = s.Reply.ResultCacheHit || s.Reply.Deduped
	got := answer{RowCount: s.Reply.RowCount, Rows: s.Reply.Rows}
	b.mu.Lock()
	want, seen := b.first[text]
	if !seen {
		b.first[text] = got
	}
	b.mu.Unlock()
	if seen {
		if err := want.same(got); err != nil {
			s.Err = fmt.Errorf("text %d: differs from the first answer to the same text: %w", text, err)
		}
	}
	return s
}

// answer is what a query returned, as the client saw it.
type answer struct {
	RowCount int
	Rows     json.RawMessage
}

// same compares two answers to one text. Identical bytes are the
// common case; otherwise the rows are compared as the oracle tests
// compare them (doubles within a relative 1e-9), because a
// re-execution sums group members in whatever order its tasks
// finished.
func (a answer) same(b answer) error {
	if a.RowCount != b.RowCount {
		return fmt.Errorf("%d rows vs %d", a.RowCount, b.RowCount)
	}
	if bytes.Equal(a.Rows, b.Rows) {
		return nil
	}
	x, err := a.rows()
	if err != nil {
		return err
	}
	y, err := b.rows()
	if err != nil {
		return err
	}
	return sameRows(x, y)
}

// rows decodes the answer's JSON rows back into values.
func (a answer) rows() ([]data.Value, error) {
	v, err := data.DecodeJSON(a.Rows)
	if err != nil {
		return nil, err
	}
	out := make([]data.Value, v.Len())
	for i := range out {
		out[i] = v.Index(i)
	}
	return out, nil
}

// checkServeOracle proves the service's rows against the brute-force
// evaluator: a reduced copy of the service (same SF, shards and seed,
// the oracle's scale) answers the five canonical queries in full, and
// a simulator stack over the same dataset feeds the oracle.
func checkServeOracle(sp spec, seed int64, logf func(string, ...any)) error {
	sp.Scale = sp.oracleScale()
	b, err := setupServe(sp, seed, nil)
	if err != nil {
		return err
	}
	defer b.close()
	sim, err := newStack("sim", sp.SF, sp.Scale, seed, "", nil)
	if err != nil {
		return err
	}
	defer sim.close()
	b.maxRows = 0 // every row, not an interactive user's first 20
	id := -100
	return oracleAgrees(sp, sim.cat, logf, func(q string) ([]data.Value, error) {
		// A text id of its own: this answer is not truncated, so it is
		// not the reference pass's answer to the same text.
		id--
		s := b.post(0, id, tpch.MustQuerySQL(q))
		if s.Err != nil {
			return nil, s.Err
		}
		return answer{Rows: s.Reply.Rows}.rows()
	})
}

// invalidate is the write beside the reads: it drops the result,
// plan, statistics and memo caches, so cold DYNOPT recurs on schedule.
func (b *serveBench) invalidate(client int) error {
	resp, err := b.client[client].Post(b.url+"/invalidate", "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("invalidate: status %d", resp.StatusCode)
	}
	return nil
}

// cycle is one invalidate period: client 0 invalidates, then the
// clients work through the cycle's request sequence in a closed loop,
// each taking the next unsent request when its previous one returns.
type cycle struct {
	Samples       []reqSample
	WallSec       float64
	CPUSec        float64
	AllocB        float64
	InvalidateSec float64
}

func (b *serveBench) runCycle(seq []int, clients int) (cycle, error) {
	var c cycle
	c.Samples = make([]reqSample, len(seq))
	calCPU, calAlloc := b.cal.cost()
	a0, c0, t0 := allocBytes(), cpuSeconds(), time.Now()
	if err := b.invalidate(0); err != nil {
		return c, err
	}
	c.InvalidateSec = time.Since(t0).Seconds()
	var next atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				if i%calEvery == 0 {
					b.cal.sample()
				}
				c.Samples[i] = b.post(cl, seq[i], b.texts[seq[i]])
				c.Samples[i].AfterIn = i == 0
			}
		}(cl)
	}
	wg.Wait()
	c.WallSec = time.Since(t0).Seconds()
	calCPUEnd, calAllocEnd := b.cal.cost()
	c.CPUSec = cpuSeconds() - c0 - (calCPUEnd - calCPU)
	c.AllocB = allocBytes() - a0 - (calAllocEnd - calAlloc)
	return c, nil
}

// sequence draws one cycle's requests.
func (b *serveBench) sequence() []int { return b.draw.cycle(b.spec.Invalidate) }
