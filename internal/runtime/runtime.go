// Package runtime defines the engine's execution seam: everything the
// query engine needs from an execution backend — job submission and
// scheduling, DFS block storage, task dispatch, usage/trace collection,
// and cancellation — reached through one interface with two
// implementations:
//
//   - simruntime: the discrete-event simulator stack unchanged (fast,
//     deterministic, the CI reference arm; virtual timelines stay
//     bit-identical to the pre-seam engine), and
//   - procruntime: a real multi-process backend — worker processes
//     (cmd/dynoworker) speaking HTTP/JSON execute every map/reduce
//     task against file-backed DFS blocks on local disk, while the
//     simulator keeps driving scheduling and accounting in the
//     controller.
//
// Differential contract: a query executed on both backends produces
// the same plans, the same rows, and the same job counts; only the
// place the record loops run (and the honest wall-clock they take)
// differs.
package runtime

import (
	"dyno/internal/cluster"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
)

// Runtime is one execution backend instance: a cluster (scheduling +
// virtual accounting) and a DFS namespace, plus the environment
// factory jobs run through. A Runtime owns one dataset; a sharded
// service holds one Runtime per shard.
type Runtime interface {
	// Name identifies the backend ("sim" or "proc").
	Name() string
	// FS is the backend's DFS namespace.
	FS() *dfs.FS
	// Sim is the scheduling substrate. Both backends expose it: the
	// proc backend keeps the discrete-event scheduler as its
	// controller-side dispatch/accounting engine while delegating task
	// bodies to workers.
	Sim() *cluster.Sim
	// NewEnv builds a job environment bound to this backend. Callers
	// may set per-session fields (Gate, OnCreateFile, tuning knobs) on
	// the returned value.
	NewEnv(reg *expr.Registry) *mapreduce.Env
	// Close releases backend resources (the proc backend drains its
	// worker fleet). Runtimes are not usable after Close.
	Close() error
}
