// Package server implements a long-running query service over N
// independent shards, each owning a simulated cluster, DFS, and
// catalog. Requests route to shards by hash of their normalized SQL;
// within a shard, many queries execute concurrently: each request gets
// its own core.Engine session whose MapReduce jobs interleave with
// every other session's on the shard's cluster under the Fair
// scheduler. An admission controller bounds in-flight work. Repeat
// queries are served in tiers: a shard's table of normalized-SQL
// results returns a finished result's rows without executing anything
// and makes concurrent identical requests wait on the one execution
// under way, and a cross-query statistics store reuses pilot-run
// results across queries over the same leaf expressions; invalidation
// replaces the table and the store together when base tables change.
// cmd/dynod exposes the service over HTTP/JSON.
package server

import (
	"context"
	"fmt"
	"sync"

	"dyno/internal/cluster"
)

// simGate serializes access to the one cluster.Sim shared by every
// session. The simulator is single-threaded by design; the gate holds
// a mutex across each submission, clock access, and event step, so
// engine goroutines interleave at event granularity and the Fair
// scheduler sees all sessions' jobs when it hands out slots.
type simGate struct {
	mu  sync.Mutex
	sim *cluster.Sim
}

// Submit enqueues a job under the gate lock.
func (g *simGate) Submit(j cluster.Job) *cluster.Submission {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sim.Submit(j)
}

// Now returns the shared virtual clock.
func (g *simGate) Now() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sim.Now()
}

// Advance charges client-side work to the shared virtual clock.
func (g *simGate) Advance(d float64) {
	g.mu.Lock()
	g.sim.Advance(d)
	g.mu.Unlock()
}

// runUntil steps the simulator until pred() holds, releasing the lock
// between events so concurrent sessions can submit and observe their
// own jobs. Steps driven by one session execute events of all
// sessions — whoever drives makes everyone progress. A step that finds
// no event ends it with cluster.ErrIdle, as Sim.RunUntil does: every
// predicate waits on the session's own submissions, and one not done
// has an event queued or a task a step dispatches.
func (g *simGate) runUntil(ctx context.Context, pred func() bool) error {
	for {
		g.mu.Lock()
		if pred() {
			g.mu.Unlock()
			return nil
		}
		if err := ctx.Err(); err != nil {
			g.mu.Unlock()
			return err
		}
		stepped, _ := g.sim.Step()
		g.mu.Unlock()
		if !stepped {
			return cluster.ErrIdle
		}
	}
}

// sessionGate binds one query session's cancellation context to the
// shared gate and tracks the session's submissions, so that a
// canceled or timed-out session releases the cluster resources it
// still holds. It implements mapreduce.Gate.
type sessionGate struct {
	gate *simGate
	ctx  context.Context

	mu   sync.Mutex
	subs []*cluster.Submission
}

// Submit implements mapreduce.Gate.
func (s *sessionGate) Submit(j cluster.Job) *cluster.Submission {
	sub := s.gate.Submit(j)
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// Now implements mapreduce.Gate.
func (s *sessionGate) Now() float64 { return s.gate.Now() }

// Advance implements mapreduce.Gate.
func (s *sessionGate) Advance(d float64) { s.gate.Advance(d) }

// RunUntil implements mapreduce.Gate. On cancellation it abandons the
// session's live jobs before returning.
func (s *sessionGate) RunUntil(pred func() bool) error {
	err := s.gate.runUntil(s.ctx, pred)
	if err != nil && s.ctx.Err() != nil {
		s.abandon(err)
	}
	return err
}

// abandon cancels every submission the session still has in flight:
// queued tasks are dropped immediately; running attempts finish and
// free their slots as other sessions step the simulator.
func (s *sessionGate) abandon(cause error) {
	s.mu.Lock()
	subs := append([]*cluster.Submission(nil), s.subs...)
	s.mu.Unlock()
	s.gate.mu.Lock()
	defer s.gate.mu.Unlock()
	for _, sub := range subs {
		if !sub.Done() {
			sub.Cancel(fmt.Errorf("server: session canceled: %w", cause))
		}
	}
}
