// Package coord is the in-process stand-in for the ZooKeeper service DYNO
// uses on a real cluster. It provides the one primitive this
// reproduction needs from it: shared atomic counters (the global
// pilot-run output counter that map tasks increment and consult, §4.2).
// The paper's other use — tasks publishing the locations of their
// partial statistics files for the client to merge (§5.4) — has no
// counterpart here: the client merges the tasks' stats.Partials directly.
package coord

import (
	"fmt"
	"sort"
	"sync"
)

// Service is a named collection of counters. The zero value is not
// usable; use NewService. All methods are safe for concurrent use;
// reads (Get, CounterNames) take a shared lock, since the pilot-run
// counter is polled from the early-termination hot path while parallel
// tasks increment it.
type Service struct {
	mu       sync.RWMutex
	counters map[string]int64
}

// NewService returns an empty coordination service.
func NewService() *Service {
	return &Service{counters: make(map[string]int64)}
}

// Add atomically adds delta to the named counter and returns the new
// value. Counters spring into existence at zero.
func (s *Service) Add(name string, delta int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters[name] += delta
	return s.counters[name]
}

// Get returns the current value of the named counter.
func (s *Service) Get(name string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counters[name]
}

// Reset deletes the named counter.
func (s *Service) Reset(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.counters, name)
}

// CounterNames returns the sorted names of live counters (for tests and
// debugging).
func (s *Service) CounterNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String summarizes the service state.
func (s *Service) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return fmt.Sprintf("coord{counters=%d}", len(s.counters))
}
