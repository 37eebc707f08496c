package server

import (
	"context"
	"errors"
	"sync"
)

// flightCall is one in-flight execution followers can wait on.
type flightCall struct {
	done chan struct{}
	resp *response
	err  error
}

// flightGroup coalesces concurrent identical cache-miss queries onto
// one execution, singleflight-style: the first caller for a key (the
// leader) runs the query; callers arriving while it is in flight (the
// followers) wait for the leader's response and share it — and its
// error — without executing anything themselves. Each shard owns one
// group; keys are the same epoch|variant|strategy|normSQL strings the
// caches use.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn for key, coalescing concurrent calls. leader reports
// which role this call played: the leader's response is the execution
// itself, a follower's is the leader's shared result. A follower whose
// context is canceled while waiting returns its context error without
// disturbing the leader. A follower that observes the LEADER's
// cancellation while its own context is still live does not inherit
// the failure: it loops and re-elects (running the query itself or
// joining a newer leader), so one canceled request can never fail the
// requests coalesced behind it.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*response, error)) (resp *response, err error, leader bool) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
				if isCancellation(c.err) && ctx.Err() == nil {
					continue // leader canceled, we weren't: re-elect
				}
				return c.resp, c.err, false
			case <-ctx.Done():
				return nil, ctx.Err(), false
			}
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()
		defer func() {
			// Remove the entry and release followers even if fn panics, so
			// a wedged key cannot strand future queries.
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.resp, c.err = fn()
		return c.resp, c.err, true
	}
}

// isCancellation reports whether an execution failed because its
// context ended rather than on the query's own merits.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
