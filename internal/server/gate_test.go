package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"dyno/internal/cluster"
)

// TestIdleGateReturnsErrIdle: a session gate over a simulator with no
// event and an unmet predicate returns cluster.ErrIdle at once, as
// Sim.RunUntil does: no submission of the session is pending, so no
// step can ever satisfy it.
func TestIdleGateReturnsErrIdle(t *testing.T) {
	g := &sessionGate{gate: &simGate{sim: cluster.New(cluster.Config{Workers: 1, MapSlotsPerWorker: 1, ReduceSlotsPerWorker: 1})}, ctx: context.Background()}
	start := time.Now()
	err := g.RunUntil(func() bool { return false })
	if !errors.Is(err, cluster.ErrIdle) {
		t.Fatalf("RunUntil over an idle cluster = %v, want cluster.ErrIdle", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Errorf("RunUntil took %v to see an idle cluster", d)
	}
}
