// Package simruntime adapts the existing simulator stack (cluster.Sim
// + dfs.FS) to the runtime seam, unchanged: an environment built here
// is field-for-field what the engine constructed before the seam
// existed, so results, traces, and virtual timelines are bit-identical
// to the pre-seam engine.
package simruntime

import (
	"dyno/internal/cluster"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/runtime"
)

// Runtime is the simulator-backed execution backend.
type Runtime struct {
	fs  *dfs.FS
	sim *cluster.Sim
}

var _ runtime.Runtime = (*Runtime)(nil)

// New builds a simulator runtime: a fresh DFS namespace sized to the
// cluster's workers and a simulator with the given config.
func New(ccfg cluster.Config) *Runtime { return &Runtime{fs: dfs.New(), sim: cluster.New(ccfg)} }

// Name implements runtime.Runtime.
func (r *Runtime) Name() string { return "sim" }

// FS implements runtime.Runtime.
func (r *Runtime) FS() *dfs.FS { return r.fs }

// Sim implements runtime.Runtime.
func (r *Runtime) Sim() *cluster.Sim { return r.sim }

// NewEnv implements runtime.Runtime.
func (r *Runtime) NewEnv(reg *expr.Registry) *mapreduce.Env {
	return &mapreduce.Env{FS: r.fs, Sim: r.sim, Reg: reg}
}

// Close implements runtime.Runtime; the simulator holds no external
// resources.
func (r *Runtime) Close() error { return nil }
