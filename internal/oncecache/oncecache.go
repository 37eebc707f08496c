// Package oncecache is a FIFO map bounded by total cost whose entries
// are built once: callers that miss a key while its first caller is
// still building it wait for that build instead of repeating it. The
// query service keeps its results in one per shard, and a worker its
// blocks, tables and retained map outputs.
package oncecache

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// Result reports what a Get did.
type Result int

const (
	Hit    Result = iota // found a finished entry
	Waited               // waited on another caller's build
	Built                // ran build itself
)

// errPanicked is what the callers waiting on a build that panicked get.
var errPanicked = errors.New("oncecache: build panicked")

// Cache is safe for concurrent use. The zero value is not usable; make
// one with New.
type Cache[K comparable, V any] struct {
	max int64 // total cost bound

	mu    sync.Mutex
	m     map[K]*entry[V]
	order []K // built keys, oldest first
	cost  int64

	hits, misses, evicts int64
}

type entry[V any] struct {
	done  chan struct{} // closed once v, cost and err are set
	v     V
	cost  int64
	err   error
	built bool // v is set and the entry is in order; guarded by the cache's mu
}

// New returns an empty cache whose built entries cost at most max in
// total.
func New[K comparable, V any](max int64) *Cache[K, V] {
	return &Cache[K, V]{max: max, m: map[K]*entry[V]{}}
}

// Get returns key's value and what the call did. The first caller to
// ask runs build, which also reports the value's cost; a caller that
// finds the build under way waits for it, or leaves with ctx.Err()
// when ctx ends first, and gets the builder's value and error. A build
// that fails leaves no entry, so the next Get builds again. So does a
// build that panics: its waiters get an error and the panic goes on up
// the builder's stack. A build that finishes after Drop named its key
// is returned to its callers but not kept.
func (c *Cache[K, V]) Get(ctx context.Context, key K, build func() (V, int64, error)) (v V, res Result, err error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.hits++
		built := e.built
		c.mu.Unlock()
		if built {
			return e.v, Hit, nil
		}
		select {
		case <-e.done:
			return e.v, Waited, e.err
		case <-ctx.Done():
			return v, Waited, ctx.Err()
		}
	}
	c.misses++
	e := &entry[V]{done: make(chan struct{}), err: errPanicked}
	c.m[key] = e
	c.mu.Unlock()
	defer c.settle(key, e)
	e.v, e.cost, e.err = build()
	return e.v, Built, e.err
}

// settle keeps a finished build, evicting the oldest entries past the
// bound, or forgets a failed one, and releases its waiters.
func (c *Cache[K, V]) settle(key K, e *entry[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(e.done)
	if c.m[key] != e {
		return // dropped while it was being built
	}
	if e.err != nil {
		delete(c.m, key)
		return
	}
	for c.cost+e.cost > c.max && len(c.order) > 0 {
		c.cost -= c.m[c.order[0]].cost
		delete(c.m, c.order[0])
		c.order = c.order[1:]
		c.evicts++
	}
	c.order = append(c.order, key)
	c.cost += e.cost
	e.built = true
}

// Peek returns key's value if it has been built; it builds nothing.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[key]; e != nil && e.built {
		return e.v, true
	}
	return v, false
}

// Drop forgets every entry whose key dead reports true. It is not an
// eviction: the caller knows those keys will not be asked for again.
func (c *Cache[K, V]) Drop(dead func(key K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.m {
		if dead(key) {
			if e.built {
				c.cost -= e.cost
			}
			delete(c.m, key)
		}
	}
	c.order = slices.DeleteFunc(c.order, func(key K) bool { return c.m[key] == nil })
}

// Stats returns the built entry count, their total cost, and the
// counters: hits count the calls that found an entry, built or not,
// misses the builds.
func (c *Cache[K, V]) Stats() (n int, cost, hits, misses, evicts int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order), c.cost, c.hits, c.misses, c.evicts
}
