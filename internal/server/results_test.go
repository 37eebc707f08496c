package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dyno/internal/oncecache"
)

// testShard is a shard with no cluster: enough for its statistics
// store and result table.
func testShard(resultCacheSize int) *shard {
	sh := &shard{}
	sh.invalidate(resultCacheSize)
	return sh
}

type table = oncecache.Cache[string, *response]

// served is what one serve call returned.
type served struct {
	resp *response
	res  oncecache.Result
	err  error
}

// goServe runs serve on its own goroutine.
func goServe(ctx context.Context, results *table, key string, build func() (*response, int64, error)) <-chan served {
	out := make(chan served, 1)
	go func() {
		r, res, err := serve(ctx, results, key, build)
		out <- served{r, res, err}
	}()
	return out
}

// recv is the call's result, failing the test if it has not returned
// after 10 s.
func recv(t *testing.T, call <-chan served) served {
	t.Helper()
	select {
	case o := <-call:
		return o
	case <-time.After(10 * time.Second):
		t.Fatal("serve hung")
		return served{}
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
	}
}

// lookups and builds count the calls that found a key of results
// (finished or under way) and the calls that ran a build.
func lookups(results *table) int64 { _, _, hits, _, _ := results.Stats(); return hits }
func builds(results *table) int64  { _, _, _, misses, _ := results.Stats(); return misses }

// answer returns a build that waits for release, then answers err, or
// a response of n rows when err is nil.
func answer(n int, err error, release <-chan struct{}) func() (*response, int64, error) {
	return func() (*response, int64, error) {
		<-release
		if err != nil {
			return nil, 0, err
		}
		return &response{RowCount: n}, 1, nil
	}
}

// released is a closed channel: a build handed it answers at once.
var released = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func TestFIFOCacheEvictsAtMax(t *testing.T) {
	if n := (Config{}).normalized().ResultCacheSize; n != 256 {
		t.Fatalf("default ResultCacheSize = %d, want 256", n)
	}
	_, results := testShard(3).session()
	for i := 0; i < 5; i++ {
		serve(context.Background(), results, fmt.Sprintf("k%d", i), answer(i, nil, released))
	}
	if n, _, _, _, _ := results.Stats(); n != 3 {
		t.Fatalf("size = %d, want 3", n)
	}
	for i := 0; i < 5; i++ {
		r, ok := results.Peek(fmt.Sprintf("k%d", i))
		if ok != (i >= 2) || ok && r.RowCount != i {
			t.Errorf("k%d = %v/%v; only the newest three may stay", i, r, ok)
		}
	}
}

// TestFIFOCacheDropsStaleEpochPut: an execution that straddles an
// invalidate finishes into the table it started in. A request issued
// after the invalidate neither waits on it nor reads its result.
func TestFIFOCacheDropsStaleEpochPut(t *testing.T) {
	sh := testShard(8)
	_, old := sh.session()
	release := make(chan struct{})
	stale := goServe(context.Background(), old, "q", answer(1, nil, release))
	waitFor(t, func() bool { return builds(old) == 1 })

	sh.invalidate(8)
	_, cur := sh.session()
	o := recv(t, goServe(context.Background(), cur, "q", answer(2, nil, released)))
	if o.err != nil || o.res != oncecache.Built || o.resp.RowCount != 2 {
		t.Fatalf("request after the invalidate: %+v; want its own execution", o)
	}
	close(release)
	recv(t, stale)
	if r, ok := cur.Peek("q"); !ok || r.RowCount != 2 {
		t.Fatalf("live table holds %v/%v, want the post-invalidate result", r, ok)
	}
	if n, _, _, _, _ := cur.Stats(); n != 1 {
		t.Fatalf("live table holds %d entries, want 1", n)
	}
}

// TestFIFOCacheClearRacesPut: executions that took their table before a
// run of invalidates leave nothing in the table the last one installed.
func TestFIFOCacheClearRacesPut(t *testing.T) {
	sh := testShard(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		_, results := sh.session()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				serve(context.Background(), results, key, answer(i, nil, released))
				results.Peek(key)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sh.invalidate(64)
			_, results := sh.session()
			results.Stats()
		}
	}()
	wg.Wait()
	_, results := sh.session()
	if n, _, _, _, _ := results.Stats(); n != 0 {
		t.Fatalf("%d stale entries survived racing invalidates", n)
	}
}

// TestFlightGroupCoalesces: concurrent identical requests share one
// execution, and a waiter whose own context ends leaves without it.
func TestFlightGroupCoalesces(t *testing.T) {
	results := oncecache.New[string, *response](8)
	release := make(chan struct{})
	build := answer(7, nil, release)
	calls := []<-chan served{goServe(context.Background(), results, "k", build)}
	waitFor(t, func() bool { return builds(results) == 1 })
	for i := 0; i < 2; i++ {
		calls = append(calls, goServe(context.Background(), results, "k", build))
	}
	waitFor(t, func() bool { return lookups(results) == 2 })
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if o := recv(t, goServe(canceled, results, "k", build)); !errors.Is(o.err, context.Canceled) || o.res != oncecache.Waited {
		t.Fatalf("canceled waiter: %+v; want Waited, context.Canceled", o)
	}
	close(release)

	for i, call := range calls {
		o := recv(t, call)
		if o.err != nil || o.resp.RowCount != 7 {
			t.Fatalf("call %d: %+v; want the shared 7 rows", i, o)
		}
		want := oncecache.Waited
		if i == 0 {
			want = oncecache.Built
		}
		if o.res != want {
			t.Errorf("call %d: %v, want %v", i, o.res, want)
		}
	}
	if n := builds(results); n != 1 {
		t.Fatalf("the query executed %d times, want 1", n)
	}
	if o := recv(t, goServe(context.Background(), results, "k", build)); o.res != oncecache.Hit {
		t.Fatalf("repeat after the execution: %v, want Hit", o.res)
	}
}

// TestFlightGroupReelectsAfterLeaderCancel: a request that observes the
// execution it waited on fail with a cancellation, while its own
// context is still live, does not inherit the failure: it executes the
// query itself and succeeds.
func TestFlightGroupReelectsAfterLeaderCancel(t *testing.T) {
	results := oncecache.New[string, *response](8)
	release := make(chan struct{})
	leader := goServe(context.Background(), results, "k", answer(0, context.Canceled, release))
	waitFor(t, func() bool { return builds(results) == 1 })
	follower := goServe(context.Background(), results, "k", answer(3, nil, released))
	waitFor(t, func() bool { return lookups(results) == 1 })
	close(release)

	if o := recv(t, leader); o.res != oncecache.Built || !errors.Is(o.err, context.Canceled) {
		t.Errorf("leader: %+v", o)
	}
	o := recv(t, follower)
	if o.err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", o.err)
	}
	if o.res != oncecache.Built || o.resp.RowCount != 3 || builds(results) != 2 {
		t.Fatalf("follower: %+v after %d executions; want one of its own", o, builds(results))
	}
	if r, ok := results.Peek("k"); !ok || r.RowCount != 3 {
		t.Fatalf("table holds %v/%v, want the follower's result", r, ok)
	}
}

// TestFlightGroupCanceledFollowerDoesNotReelect: when the leader's
// cancellation and the follower's own coincide, the follower reports
// its own context error instead of executing.
func TestFlightGroupCanceledFollowerDoesNotReelect(t *testing.T) {
	results := oncecache.New[string, *response](8)
	release := make(chan struct{})
	goServe(context.Background(), results, "k", answer(0, context.Canceled, release))
	waitFor(t, func() bool { return builds(results) == 1 })

	fctx, fcancel := context.WithCancel(context.Background())
	follower := goServe(fctx, results, "k", func() (*response, int64, error) {
		t.Error("canceled follower executed the query")
		return nil, 0, nil
	})
	waitFor(t, func() bool { return lookups(results) == 1 })
	fcancel()
	close(release)
	if o := recv(t, follower); !errors.Is(o.err, context.Canceled) {
		t.Fatalf("canceled follower: err = %v, want context.Canceled", o.err)
	}
}

// TestFlightGroupFollowerInheritsRealErrors: re-election is only for
// cancellations. An execution failing on the query's own merits shares
// its error with its waiters, since a retry would fail the same way,
// and leaves no entry behind.
func TestFlightGroupFollowerInheritsRealErrors(t *testing.T) {
	results := oncecache.New[string, *response](8)
	release := make(chan struct{})
	boom := errors.New("boom")
	build := answer(0, boom, release)
	goServe(context.Background(), results, "k", build)
	waitFor(t, func() bool { return builds(results) == 1 })
	follower := goServe(context.Background(), results, "k", build)
	waitFor(t, func() bool { return lookups(results) == 1 })
	close(release)
	if o := recv(t, follower); o.res != oncecache.Waited || !errors.Is(o.err, boom) {
		t.Fatalf("follower: %+v; want Waited with the leader's error", o)
	}
	if n := builds(results); n != 1 {
		t.Fatalf("query executed %d times, want 1", n)
	}
	if o := recv(t, goServe(context.Background(), results, "k", build)); o.res != oncecache.Built || !errors.Is(o.err, boom) {
		t.Fatalf("request after the failure: %+v; want a fresh execution", o)
	}
}
