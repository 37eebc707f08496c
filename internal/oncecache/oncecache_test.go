package oncecache

import (
	"context"
	"testing"
	"time"
)

// TestOnceCache pins what a worker's three caches rely on: FIFO
// eviction by cost, Peek that never builds, Drop that keeps the cost
// honest, and a build that finishes after its key was dropped staying
// out of the cache.
func TestOnceCache(t *testing.T) {
	c := New[string, string](10)
	put := func(key string, cost int64) {
		t.Helper()
		v, res, err := c.Get(context.Background(), key, func() (string, int64, error) { return "v" + key, cost, nil })
		if err != nil || v != "v"+key || res != Built {
			t.Fatalf("Get(%s) = %q, %v, %v", key, v, res, err)
		}
	}
	put("a", 4)
	put("b", 4)
	if v, res, err := c.Get(context.Background(), "a", nil); err != nil || v != "va" || res != Hit {
		t.Fatalf("Get(a) again = %q, %v, %v; want a hit", v, res, err)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Error("Peek found a key nobody built")
	}
	if n, _, hits, misses, _ := c.Stats(); n != 2 || hits != 1 || misses != 2 {
		t.Errorf("Peek of an unknown key changed the cache: %d entries, %d hits, %d misses", n, hits, misses)
	}
	put("c", 4) // 12 > 10: the oldest goes
	if _, ok := c.Peek("a"); ok {
		t.Error("the oldest entry survived an over-budget insert")
	}
	if v, ok := c.Peek("b"); !ok || v != "vb" {
		t.Errorf("Peek(b) = %q, %v", v, ok)
	}
	if n, cost, _, _, evicts := c.Stats(); n != 2 || cost != 8 || evicts != 1 {
		t.Errorf("after eviction: %d entries, cost %d, %d evictions; want 2, 8, 1", n, cost, evicts)
	}
	c.Drop(func(key string) bool { return key == "b" })
	if n, cost, _, _, evicts := c.Stats(); n != 1 || cost != 4 || evicts != 1 {
		t.Errorf("after Drop: %d entries, cost %d, %d evictions; want 1, 4, 1", n, cost, evicts)
	}
	// Dropped mid-build: the caller still gets its value, the cache does
	// not keep it.
	v, _, err := c.Get(context.Background(), "d", func() (string, int64, error) {
		c.Drop(func(key string) bool { return key == "d" })
		return "vd", 4, nil
	})
	if err != nil || v != "vd" {
		t.Fatalf("Get(d) = %q, %v", v, err)
	}
	if _, ok := c.Peek("d"); ok {
		t.Error("an entry dropped while it was being built was cached")
	}
	if n, cost, _, _, _ := c.Stats(); n != 1 || cost != 4 {
		t.Errorf("after the dropped build: %d entries, cost %d; want 1, 4", n, cost)
	}
}

// TestPanickingBuildReleasesWaiters: a build that panics must not
// leave its key built with a zero value. Its waiter gets an error, the
// panic reaches the builder, no entry is left, and the next Get builds.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	c := New[string, *int](10)
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get(context.Background(), "k", func() (*int, int64, error) {
			<-release
			panic("boom")
		})
	}()
	waitFor(t, func() bool { _, _, _, misses, _ := c.Stats(); return misses == 1 })

	type out struct {
		v   *int
		res Result
		err error
	}
	waiter := make(chan out, 1)
	go func() {
		v, res, err := c.Get(context.Background(), "k", func() (*int, int64, error) {
			t.Error("the waiter built while the first build was under way")
			return nil, 1, nil
		})
		waiter <- out{v, res, err}
	}()
	waitFor(t, func() bool { _, _, hits, _, _ := c.Stats(); return hits == 1 })
	close(release)

	if p := <-panicked; p != "boom" {
		t.Fatalf("builder recovered %v, want the build's panic", p)
	}
	if o := <-waiter; o.err == nil || o.v != nil || o.res != Waited {
		t.Fatalf("waiter got %v, %v, %v; want nil, Waited and an error", o.v, o.res, o.err)
	}
	if n, _, _, _, _ := c.Stats(); n != 0 {
		t.Fatalf("%d entries after a panicking build, want 0", n)
	}
	one := 1
	v, res, err := c.Get(context.Background(), "k", func() (*int, int64, error) { return &one, 1, nil })
	if err != nil || v == nil || *v != 1 || res != Built {
		t.Fatalf("Get after the panic = %v, %v, %v; want a fresh build", v, res, err)
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
