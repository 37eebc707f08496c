package experiments

import (
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/tpch"
)

// runWithParallelism executes one query under DYNOPT with an explicit
// executor setting (and optional tweak) and returns the result plus the
// full trace.
func runWithParallelism(t *testing.T, cfg Config, query string, parallelism int, tweak func(*setup)) (*core.Result, []cluster.TraceEvent) {
	t.Helper()
	eng, env, err := newEngine(baselines.VariantDynOpt, 100, cfg, func(s *setup) {
		s.cluster.Parallelism = parallelism
		if tweak != nil {
			tweak(s)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace []cluster.TraceEvent
	env.Sim.SetTrace(func(ev cluster.TraceEvent) { trace = append(trace, ev) })
	res, err := eng.ExecuteSQL(tpch.MustQuerySQL(query))
	if err != nil {
		t.Fatalf("%s with Parallelism=%d: %v", query, parallelism, err)
	}
	return res, trace
}

// TestParallelExecutorMatchesSerial is the executor differential: on
// Q8', Q9', and Q10 at SF 100, and on Q8' under PILR_MT with UNC-2
// (concurrent pilot leaf jobs plus two join jobs in flight — the
// workload with the most simultaneous tasks), waves run inline on the
// scheduler goroutine (parallelism 1) and waves run on a
// pool of 4 must produce identical rows, identical virtual timings, and
// an identical trace-event sequence.
func TestParallelExecutorMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cfg := testConfig()
	cases := []struct {
		name, query string
		tweak       func(*setup)
	}{
		{"Q8p", "Q8p", nil},
		{"Q9p", "Q9p", nil},
		{"Q10", "Q10", nil},
		{"Q8p/PILR_MT/UNC-2", "Q8p", func(s *setup) {
			s.opts.PilotMode = core.PilotMT
			s.opts.Strategy = core.Uncertain{N: 2}
		}},
	}
	for _, c := range cases {
		serial, serialTrace := runWithParallelism(t, cfg, c.query, 1, c.tweak)
		par, parTrace := runWithParallelism(t, cfg, c.query, 4, c.tweak)

		if len(par.Rows) != len(serial.Rows) {
			t.Fatalf("%s: %d rows parallel, %d serial", c.name, len(par.Rows), len(serial.Rows))
		}
		for i := range serial.Rows {
			if !data.Equal(par.Rows[i], serial.Rows[i]) {
				t.Errorf("%s row %d: parallel %v, serial %v", c.name, i, par.Rows[i], serial.Rows[i])
			}
		}
		if par.TotalSec != serial.TotalSec {
			t.Errorf("%s: TotalSec parallel %v, serial %v", c.name, par.TotalSec, serial.TotalSec)
		}
		if par.PilotSec != serial.PilotSec {
			t.Errorf("%s: PilotSec parallel %v, serial %v", c.name, par.PilotSec, serial.PilotSec)
		}
		if par.Jobs != serial.Jobs {
			t.Errorf("%s: Jobs parallel %d, serial %d", c.name, par.Jobs, serial.Jobs)
		}
		if len(parTrace) != len(serialTrace) {
			t.Fatalf("%s: %d trace events parallel, %d serial", c.name, len(parTrace), len(serialTrace))
		}
		for i := range serialTrace {
			if parTrace[i] != serialTrace[i] {
				t.Fatalf("%s trace[%d]: parallel %+v, serial %+v", c.name, i, parTrace[i], serialTrace[i])
			}
		}
	}
}
