package procruntime

import (
	"dyno/internal/cluster"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/runtime"
)

// Runtime is the multi-process execution backend. It keeps the
// simulator stack controller-side (scheduling, shuffling, statistics,
// virtual accounting — the differential contract depends on it) and
// installs a fleet-backed task executor so every map/reduce record
// loop runs on a worker process. The fleet's lifecycle belongs to its
// creator: several shard Runtimes may share one fleet, so Close here
// does not drain the workers.
type Runtime struct {
	fleet *Fleet
	fs    *dfs.FS
	sim   *cluster.Sim
	waves *waveRunner
}

var _ runtime.Runtime = (*Runtime)(nil)

// New builds a proc runtime over an existing fleet; its simulator hands
// each dispatch wave to the fleet whole.
func New(fleet *Fleet, ccfg cluster.Config) *Runtime {
	r := &Runtime{
		fleet: fleet,
		fs:    dfs.New(),
		sim:   cluster.New(ccfg),
		waves: &waveRunner{f: fleet},
	}
	r.sim.SetWaveRunner(r.waves.run)
	return r
}

// Name implements runtime.Runtime.
func (r *Runtime) Name() string { return "proc" }

// FS implements runtime.Runtime.
func (r *Runtime) FS() *dfs.FS { return r.fs }

// Sim implements runtime.Runtime.
func (r *Runtime) Sim() *cluster.Sim { return r.sim }

// NewEnv implements runtime.Runtime: the environment delegates task
// bodies to the fleet.
func (r *Runtime) NewEnv(reg *expr.Registry) *mapreduce.Env {
	return &mapreduce.Env{
		FS:   r.fs,
		Sim:  r.sim,
		Reg:  reg,
		Exec: executor{f: r.fleet, fs: r.fs, waves: r.waves},
	}
}

// Close implements runtime.Runtime; the shared fleet is closed by its
// creator, not here.
func (r *Runtime) Close() error { return nil }
