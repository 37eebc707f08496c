package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupReelectsAfterLeaderCancel: a follower that observes
// its leader failing with a cancellation error — while the follower's
// own context is still live — must not inherit the failure. It
// re-elects (here: becomes the new leader itself) and the request
// succeeds.
func TestFlightGroupReelectsAfterLeaderCancel(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	var followerExecs atomic.Int32

	// Leader: canceled mid-execution, returns its context error.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, err, leader := g.do(context.Background(), "k", func() (*response, error) {
			<-release
			return nil, context.Canceled
		})
		if !leader || !errors.Is(err, context.Canceled) {
			t.Errorf("leader: err=%v leader=%v", err, leader)
		}
	}()
	for g.pending() == 0 {
		time.Sleep(time.Millisecond)
	}

	// Follower with a live context, parked on the leader's call.
	type out struct {
		resp   *response
		err    error
		leader bool
	}
	followerDone := make(chan out, 1)
	go func() {
		r, err, leader := g.do(context.Background(), "k", func() (*response, error) {
			followerExecs.Add(1)
			return &response{RowCount: 3}, nil
		})
		followerDone <- out{r, err, leader}
	}()
	time.Sleep(10 * time.Millisecond) // let the follower park
	close(release)
	<-leaderDone

	select {
	case o := <-followerDone:
		if o.err != nil {
			t.Fatalf("follower inherited the leader's cancellation: %v", o.err)
		}
		if !o.leader {
			t.Fatal("follower did not re-elect after leader cancellation")
		}
		if o.resp == nil || o.resp.RowCount != 3 {
			t.Fatalf("follower response = %+v, want its own execution's", o.resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower hung after leader cancellation")
	}
	if n := followerExecs.Load(); n != 1 {
		t.Fatalf("follower executed %d times, want 1", n)
	}
	if g.pending() != 0 {
		t.Fatal("flight entry leaked")
	}
}

// TestFlightGroupCanceledFollowerDoesNotReelect: when the leader's
// cancellation and the follower's own cancellation coincide, the
// follower reports its own context error instead of looping.
func TestFlightGroupCanceledFollowerDoesNotReelect(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	go func() {
		g.do(context.Background(), "k", func() (*response, error) {
			<-release
			return nil, context.Canceled
		})
	}()
	for g.pending() == 0 {
		time.Sleep(time.Millisecond)
	}

	fctx, fcancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err, _ := g.do(fctx, "k", func() (*response, error) {
			t.Error("canceled follower executed the query")
			return nil, nil
		})
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	fcancel()
	close(release)

	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled follower: err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled follower hung")
	}
}

// TestFlightGroupFollowerInheritsRealErrors: re-election is only for
// cancellations. A leader failing on the query's own merits shares
// that error with its followers — retrying would fail identically.
func TestFlightGroupFollowerInheritsRealErrors(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	boom := errors.New("boom")
	var execs atomic.Int32
	go func() {
		g.do(context.Background(), "k", func() (*response, error) {
			execs.Add(1)
			<-release
			return nil, boom
		})
	}()
	for g.pending() == 0 {
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan error, 1)
	go func() {
		_, err, leader := g.do(context.Background(), "k", func() (*response, error) {
			execs.Add(1)
			return nil, boom
		})
		if leader {
			t.Error("follower became leader on a non-cancellation error")
		}
		followerDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	select {
	case err := <-followerDone:
		if !errors.Is(err, boom) {
			t.Fatalf("follower: err = %v, want the leader's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower hung")
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want 1 (no re-election on real errors)", n)
	}
}
