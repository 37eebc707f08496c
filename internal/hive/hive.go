// Package hive provides the Hive 0.12 runtime profile used in §6.6 of
// the paper: the same MapReduce substrate as the Jaql runtime, but with
// broadcast joins served from the MapReduce DistributedCache, so a
// build side is loaded once per worker node instead of once per map
// task. This is the mechanism the paper credits for Hive's larger Q9'
// speedup (3.98x vs Jaql's 1.88x): queries with many broadcast joins
// amortize the build loads across all tasks of a node.
package hive

import "dyno/internal/mapreduce"

// Configure switches an existing environment to the Hive profile.
func Configure(env *mapreduce.Env) {
	env.DistributedCache = true
}
