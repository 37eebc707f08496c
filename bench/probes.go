package main

import (
	"fmt"
	"math/rand"
	"time"

	"dyno/internal/batch"
	"dyno/internal/cluster"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/runtime/wire"
	"dyno/internal/sqlparse"
	"dyno/internal/stats"
)

// Kernel probes time single calls into the data-plane packages on the
// workload's own generated tables — the per-row costs the engine pays
// inside every job, measured from outside the program. Each probe
// runs several times over the same rows and reports the median.

// probeRows caps the rows a probe touches, so the traced run's length
// does not grow with the dataset.
const probeRows = 60000

// medianTime runs fn reps times and returns the median duration in
// seconds; setup, when non-nil, runs before each repetition, untimed.
func medianTime(reps int, setup func(), fn func()) float64 {
	var secs []float64
	for i := 0; i < reps; i++ {
		if setup != nil {
			setup()
		}
		start := time.Now()
		fn()
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs)
}

// tableBlocks returns the record slices of a table's leading blocks,
// up to probeRows rows, and the row count.
func tableBlocks(cat *jaql.Catalog, table string) ([][]data.Value, int, error) {
	f, ok := cat.Lookup(table)
	if !ok {
		return nil, 0, fmt.Errorf("probe: no table %q", table)
	}
	var blocks [][]data.Value
	rows := 0
	for _, b := range f.Blocks() {
		blocks = append(blocks, b.Records())
		rows += b.NumRecords()
		if rows >= probeRows {
			break
		}
	}
	if rows == 0 {
		return nil, 0, fmt.Errorf("probe: table %q is empty", table)
	}
	return blocks, rows, nil
}

// wherePred parses a one-table WHERE clause and strips its alias, the
// form batch.Data.Select evaluates.
func wherePred(table, alias, where string) (expr.Expr, error) {
	q, err := sqlparse.Parse(fmt.Sprintf("SELECT %s.x FROM %s %s WHERE %s", alias, table, alias, where))
	if err != nil {
		return nil, err
	}
	pred, ok := expr.StripAlias(q.Where, alias)
	if !ok {
		return nil, fmt.Errorf("probe: predicate %q does not strip to %s", where, alias)
	}
	return pred, nil
}

// kernelProbes fills the batch/stats/data/dfs/wire layer metrics from
// the catalog's lineitem and orders tables.
func kernelProbes(cat *jaql.Catalog, reps int, out layerSet) error {
	timeReps := func(setup func(), fn func()) float64 { return medianTime(reps, setup, fn) }
	blocks, rows, err := tableBlocks(cat, "lineitem")
	if err != nil {
		return err
	}
	perRow := func(sec float64) float64 { return sec * 1e9 / float64(rows) }

	// batch: cold image, Q7's and Q10's lineitem predicates, the join
	// key column every lineitem shuffle builds.
	out["batch.image_build_ns_per_row"] = perRow(timeReps(nil, func() {
		for _, recs := range blocks {
			batch.For(nil, recs).Wrapped("l")
		}
	}))
	q7, err := wherePred("lineitem", "l", "l.l_shipdate >= 19950101 AND l.l_shipdate <= 19961231")
	if err != nil {
		return err
	}
	q10, err := wherePred("lineitem", "l", "l.l_returnflag = 'R'")
	if err != nil {
		return err
	}
	out["batch.select_ns_per_row"] = perRow(timeReps(nil, func() {
		for _, recs := range blocks {
			d := batch.For(nil, recs)
			d.Select(q7, q7.String())
			d.Select(q10, q10.String())
		}
	})) / 2
	keyPaths := []data.Path{data.MustParsePath("l.l_orderkey")}
	keySig := batch.KeySig("l", keyPaths)
	var keys []data.Value
	out["batch.keys_hash_ns_per_row"] = perRow(timeReps(func() { keys = keys[:0] }, func() {
		for _, recs := range blocks {
			d := batch.For(nil, recs)
			kc := d.Keys(keySig, "l", keyPaths)
			d.Hashes(kc)
			keys = append(keys, kc.Vals...)
		}
	}))

	// stats: the collector over Q8p's three lineitem join columns, one
	// collector per block as one per task, then the client-side merge.
	var wrapped [][]data.Value
	for _, recs := range blocks {
		wrapped = append(wrapped, batch.For(nil, recs).Wrapped("l"))
	}
	statPaths := []data.Path{
		data.MustParsePath("l.l_partkey"), data.MustParsePath("l.l_suppkey"), data.MustParsePath("l.l_orderkey"),
	}
	var parts []*stats.Partial
	out["stats.observe_ns_per_row"] = perRow(timeReps(func() { parts = parts[:0] }, func() {
		for _, rowsOf := range wrapped {
			c := stats.NewCollector(statPaths, kmvSize)
			for _, row := range rowsOf {
				c.ObserveOutput(row, 100)
			}
			parts = append(parts, c.Partial())
		}
	}))
	out["stats.merge_us"] = timeReps(nil, func() { stats.MergePartials(parts) }) * 1e6

	// data: the two per-key primitives under every shuffle.
	perKey := func(sec float64) float64 { return sec * 1e9 / float64(len(keys)) }
	buf := make([]byte, 0, 64)
	out["data.normkey_ns_per_key"] = perKey(timeReps(nil, func() {
		for _, k := range keys {
			buf, _ = data.AppendNormKey(buf[:0], k)
		}
	}))
	var sink uint64
	out["data.hash64_ns_per_key"] = perKey(timeReps(nil, func() {
		for _, k := range keys {
			sink += data.Hash64(k)
		}
	}))
	_ = sink

	// dfs: writing a job's output file.
	out["dfs.append_ns_per_row"] = perRow(timeReps(nil, func() {
		w := dfs.New().Create("probe/out")
		for _, recs := range blocks {
			w.AppendAll(recs)
		}
		w.Close()
	}))

	// wire: block frames over the same lineitem blocks.
	var frames [][]byte
	encSec := timeReps(func() { frames = frames[:0] }, func() {
		for _, recs := range blocks {
			f := wire.EncodeBlock(recs)
			frames = append(frames, append([]byte(nil), f.Bytes()...))
			f.Close()
		}
	})
	frameBytes := 0
	for _, f := range frames {
		frameBytes += len(f)
	}
	var decErr error
	decSec := timeReps(nil, func() {
		for _, f := range frames {
			if _, err := wire.DecodeBlock(f); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return fmt.Errorf("probe: decode block: %w", decErr)
	}
	mb := float64(frameBytes) / (1 << 20)
	out["wire.block_encode_mb_per_s"] = mb / encSec
	out["wire.block_decode_mb_per_s"] = mb / decSec
	out["wire.block_bytes_per_row"] = float64(frameBytes) / float64(rows)

	// wire: shuffle frames and the reduce-side sort over orders pairs.
	oblocks, _, err := tableBlocks(cat, "orders")
	if err != nil {
		return err
	}
	okey := data.MustParsePath("o_orderkey")
	var pairs []wire.KV
	for _, recs := range oblocks {
		for i, row := range batch.For(nil, recs).Wrapped("o") {
			pairs = append(pairs, wire.KV{Key: okey.Eval(recs[i]), Tag: "o", Rec: row})
		}
	}
	var shuf []byte
	encSec = timeReps(nil, func() {
		f := wire.EncodeShuffle(pairs)
		shuf = append(shuf[:0], f.Bytes()...)
		f.Close()
	})
	decSec = timeReps(nil, func() {
		if _, err := wire.DecodeShuffle(shuf); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("probe: decode shuffle: %w", decErr)
	}
	mb = float64(len(shuf)) / (1 << 20)
	out["wire.shuffle_encode_mb_per_s"] = mb / encSec
	out["wire.shuffle_decode_mb_per_s"] = mb / decSec
	// Sorting needs unsorted input every time: shuffle a copy, untimed.
	rng := rand.New(rand.NewSource(1))
	work := make([]wire.KV, len(pairs))
	out["wire.sortkvs_ns_per_pair"] = timeReps(func() {
		copy(work, pairs)
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
	}, func() { wire.SortKVs(work) }) * 1e9 / float64(len(pairs))
	return nil
}

// noopJob is a job of n map tasks that do nothing: what the simulator
// itself costs per task (event queue, slot bookkeeping, the wave
// executor's hand-off).
type noopJob struct{ n int }

func (j noopJob) Name() string { return "noop" }

func (j noopJob) Start(*cluster.Submission) []*cluster.Task {
	tasks := make([]*cluster.Task, j.n)
	for i := range tasks {
		tasks[i] = &cluster.Task{
			Kind: cluster.MapTask,
			Name: fmt.Sprintf("noop-m%d", i),
			Run:  func(cluster.TaskContext) (cluster.Usage, error) { return cluster.Usage{}, nil },
		}
	}
	return tasks
}

func (j noopJob) TaskDone(*cluster.Submission, *cluster.Task) []*cluster.Task { return nil }

const noopTasks = 1000

func clusterProbe(reps int, out layerSet) error {
	var runErr error
	sec := medianTime(reps, nil, func() {
		sim := cluster.New(clusterConfig())
		sim.Submit(noopJob{n: noopTasks})
		if err := sim.Run(); err != nil {
			runErr = err
		}
	})
	out["cluster.noop_task_us"] = sec * 1e6 / noopTasks
	return runErr
}

// The mapreduce probes push two relations through one join job each
// on a simulator at the spec's probe SF, where orders ⋈ lineitem is too big to
// broadcast (one repartition job) and lineitem ⋈ supplier is not (one
// map-only job). The wall includes the query's pilot runs and final
// sort; the join job is most of it.
const (
	repartitionSQL = `SELECT o.o_orderpriority, sum(l.l_quantity) AS qty
		FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey
		GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority`
	broadcastSQL = `SELECT s.s_nationkey, sum(l.l_quantity) AS qty
		FROM lineitem l, supplier s WHERE l.l_suppkey = s.s_suppkey
		GROUP BY s.s_nationkey ORDER BY s.s_nationkey`
)

func mapreduceProbes(sp spec, seed int64, reps int, out layerSet) error {
	st, err := newStack("sim", sp.JoinProbeSF, sp.JoinProbeScale, seed, "", nil)
	if err != nil {
		return err
	}
	defer st.close()
	rowsOf := func(table string) float64 {
		f, _ := st.cat.Lookup(table)
		return float64(f.NumRecords())
	}
	probe := func(name, sql string, rows float64, wantMapOnly int) error {
		var secs []float64
		for i := 0; i < reps; i++ {
			op := st.runSQL(name, sql)
			if op.Err != nil {
				return fmt.Errorf("probe %s: %w", name, op.Err)
			}
			if op.Res.Jobs != 1 || op.Res.MapOnlyJobs != wantMapOnly {
				return fmt.Errorf("probe %s: planned %d jobs, %d map-only; want 1 job, %d map-only",
					name, op.Res.Jobs, op.Res.MapOnlyJobs, wantMapOnly)
			}
			secs = append(secs, op.WallSec)
		}
		out[name] = rows / median(secs)
		return nil
	}
	if err := probe("mapreduce.repartition_rows_per_s", repartitionSQL, rowsOf("orders")+rowsOf("lineitem"), 0); err != nil {
		return err
	}
	return probe("mapreduce.broadcast_rows_per_s", broadcastSQL, rowsOf("lineitem")+rowsOf("supplier"), 1)
}
