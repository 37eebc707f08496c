package server

import "sync"

// fifoCache is the bounded FIFO map behind the result cache (*response
// values). Keys embed the statistics epoch
// ("e<N>|variant|strategy|normalized SQL"), so bumping the epoch
// orphans every entry even before clear reclaims them.
//
// put re-checks the epoch the caller computed its key against: a query
// that started before an invalidate would otherwise park its stale
// entry in the freshly cleared cache, where the old-epoch key can
// never hit again but permanently occupies a FIFO slot and evicts live
// entries. Such puts are dropped atomically under the cache lock.
type fifoCache[V any] struct {
	mu      sync.Mutex
	max     int
	epoch   int64
	entries map[string]V
	order   []string
}

func newFIFOCache[V any](max int) *fifoCache[V] {
	if max <= 0 {
		max = 256
	}
	return &fifoCache[V]{max: max, entries: make(map[string]V)}
}

func (c *fifoCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	return v, ok
}

// put stores v under key if epoch still matches the cache's epoch and
// reports whether the entry was stored. Overwriting an existing key
// replaces the value without duplicating its eviction-order slot.
func (c *fifoCache[V]) put(key string, epoch int64, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != c.epoch {
		return false
	}
	if _, ok := c.entries[key]; ok {
		c.entries[key] = v
		return true
	}
	for len(c.entries) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = v
	c.order = append(c.order, key)
	return true
}

// clear wipes the cache and advances it to the given epoch; later puts
// computed against an older epoch are refused.
func (c *fifoCache[V]) clear(epoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = epoch
	c.entries = make(map[string]V)
	c.order = nil
}

func (c *fifoCache[V]) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
