package server

// keys returns the cached keys in no particular order.
func (c *fifoCache[V]) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// pending returns the number of in-flight keys.
func (g *flightGroup) pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
