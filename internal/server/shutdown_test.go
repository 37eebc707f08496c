package server

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShutdownDrainsWithoutLeakingGoroutines drives concurrent
// queries, shuts the server down mid-flight, and requires that every
// Execute returns (with nil, cancellation, or errShuttingDown — never
// a hang), new requests fail fast, and the goroutine count settles
// back to the pre-server baseline. Run under -race this also shakes
// out unsynchronized shutdown paths.
func TestShutdownDrainsWithoutLeakingGoroutines(t *testing.T) {
	baseline := goruntime.NumGoroutine()

	// Every request carries its own literal so each genuinely
	// executes: cached or coalesced repeats would finish too fast to
	// be caught in flight by the shutdown.
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 4
		c.MaxQueue = 16
	})

	const clients = 6
	var (
		wg         sync.WaitGroup
		completed  atomic.Int64
		unexpected = make(chan error, clients)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := s.query(context.Background(), Request{SQL: q10Variant(i*clients + c)})
				if err == nil {
					completed.Add(1)
					continue
				}
				// The only acceptable terminal outcomes once shutdown
				// begins: the query's context was canceled under it, or
				// admission refused it.
				if !errors.Is(err, context.Canceled) && !errors.Is(err, errShuttingDown) {
					unexpected <- err
				}
				return
			}
		}(c)
	}

	// Let the clients get queries genuinely in flight first.
	deadline := time.Now().Add(5 * time.Second)
	for completed.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Shutdown returning means the wait group drained, so every client
	// must exit promptly.
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	select {
	case <-clientsDone:
	case <-time.After(10 * time.Second):
		t.Fatal("clients still blocked in Execute after Shutdown returned")
	}
	close(unexpected)
	for err := range unexpected {
		t.Errorf("unexpected Execute error during shutdown: %v", err)
	}

	if _, err := s.query(context.Background(), Request{Query: "Q10"}); !errors.Is(err, errShuttingDown) {
		t.Fatalf("Execute after Shutdown: err = %v, want errShuttingDown", err)
	}

	// A second Shutdown is a cheap no-op.
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	// Everything the server and its queries spawned must have exited.
	// Poll: exits are asynchronous with Execute's return.
	for waited := time.Duration(0); ; waited += 10 * time.Millisecond {
		if goruntime.NumGoroutine() <= baseline+2 {
			break
		}
		if waited > 5*time.Second {
			buf := make([]byte, 1<<20)
			n := goruntime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: baseline %d, now %d\n%s",
				baseline, goruntime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownCancelsQueuedRequests: a request parked in the
// admission queue (not yet executing) must also observe shutdown and
// fail fast instead of waiting for a slot that will never free.
func TestShutdownCancelsQueuedRequests(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 8
	})

	// Occupy the single slot with a query held mid-execution: the hook
	// parks it until the test releases it, so the slot cannot free.
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hookJobOutput = func(context.Context) {
		once.Do(func() { close(inFlight) })
		<-release
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.query(context.Background(), Request{Query: "Q10"})
	}()
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never reached execution")
	}

	// Park a second request in the queue behind it.
	queued := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.query(context.Background(), Request{Query: "Q2"})
		queued <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the admission select

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(shutCtx) }()

	// The queued request must fail fast even while the slot holder is
	// still draining.
	select {
	case err := <-queued:
		if !errors.Is(err, errShuttingDown) && !errors.Is(err, context.Canceled) {
			t.Fatalf("queued request: err = %v, want errShuttingDown or cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request hung after Shutdown began")
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
}
