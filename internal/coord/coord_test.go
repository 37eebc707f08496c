package coord

import (
	"sync"
	"testing"
)

func TestCounterAddGet(t *testing.T) {
	s := NewService()
	if got := s.Get("c"); got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
	if got := s.Add("c", 5); got != 5 {
		t.Fatalf("Add = %d, want 5", got)
	}
	if got := s.Add("c", 3); got != 8 {
		t.Fatalf("Add = %d, want 8", got)
	}
	if got := s.Get("c"); got != 8 {
		t.Fatalf("Get = %d, want 8", got)
	}
	s.Reset("c")
	if got := s.Get("c"); got != 0 {
		t.Fatalf("after Reset = %d, want 0", got)
	}
}

func TestCountersAreIndependent(t *testing.T) {
	s := NewService()
	s.Add("a", 1)
	s.Add("b", 2)
	if s.Get("a") != 1 || s.Get("b") != 2 {
		t.Error("counters interfere")
	}
	names := s.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("CounterNames = %v", names)
	}
}

func TestConcurrentCounter(t *testing.T) {
	s := NewService()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := s.Get("n"); got != 1600 {
		t.Errorf("concurrent adds = %d, want 1600", got)
	}
}

func TestStringSummary(t *testing.T) {
	s := NewService()
	s.Add("a", 1)
	if got := s.String(); got != "coord{counters=1}" {
		t.Errorf("String = %q", got)
	}
}

// TestConcurrentPilotLifecycle mirrors how a parallel wave of pilot
// tasks hits the service: many goroutines bump the early-termination
// counter and poll it, interleaved with the debugging reads. Run under
// -race this validates the shared-lock read paths against concurrent
// writers.
func TestConcurrentPilotLifecycle(t *testing.T) {
	s := NewService()
	const tasks = 32
	const perTask = 50
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perTask; j++ {
				s.Add("job/pilot/out", 1)
				_ = s.Get("job/pilot/out") // early-termination poll
			}
			_ = s.CounterNames()
			_ = s.String()
		}()
	}
	wg.Wait()
	if got := s.Get("job/pilot/out"); got != tasks*perTask {
		t.Errorf("counter = %d, want %d", got, tasks*perTask)
	}
}
