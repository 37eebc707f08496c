package physop

import (
	"fmt"
	"sync"
	"testing"

	"dyno/internal/cluster"
	"dyno/internal/coord"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/stats"
)

// The differential tests in this file run the same operator both ways
// — every split offered to the columnar kernel (the default), and the
// per-record kernel alone (Env.DisableBatch) — and assert the outputs
// are bit-identical: same records, same order, same statistics. Both
// kernels come out of one Compile; the columnar one is a pure
// host-side accelerator and any observable divergence is a bug. The
// input tables are adversarial key mixes: every scalar kind, strings
// with embedded 0x00 terminator bytes, nulls, -0.0, and integers
// beyond ±2^53 that the normalized key encoding refuses.

func testEnv() *mapreduce.Env {
	cfg := cluster.Config{
		Workers:              4,
		MapSlotsPerWorker:    4,
		ReduceSlotsPerWorker: 2,
		SlotMemory:           1 << 30,
		JobStartup:           10,
		TaskOverhead:         1,
		ScanBps:              1 << 20,
		ShuffleBps:           1 << 19,
		WriteBps:             1 << 20,
		Parallelism:          4,
	}
	return &mapreduce.Env{
		FS:    dfs.New(dfs.WithBlockSize(16<<10), dfs.WithNodes(4)),
		Sim:   cluster.New(cfg),
		Coord: coord.NewService(),
		Reg:   expr.NewRegistry(),
	}
}

// diffEnvs returns the two arms' environments.
func diffEnvs() (batchEnv, rowEnv *mapreduce.Env) {
	batchEnv, rowEnv = testEnv(), testEnv()
	rowEnv.DisableBatch = true
	return
}

// mixedKeyTable writes records whose key column cycles through every
// scalar kind the normalized encoding supports — including negative
// doubles, strings containing 0x00 (the terminator byte that must be
// escaped), -0.0 and nulls.
func mixedKeyTable(env *mapreduce.Env, name string, n int) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		var key data.Value
		switch i % 7 {
		case 0:
			key = data.Int(int64(i%13 - 6))
		case 1:
			key = data.Double(float64(i%11) - 5.5)
		case 2:
			key = data.String(fmt.Sprintf("k%02d", i%9))
		case 3:
			key = data.Bool(i%2 == 0)
		case 4:
			key = data.Null()
		case 5:
			key = data.String("a\x00" + string(rune('a'+i%3)))
		case 6:
			key = data.Double(-0.0)
		}
		w.Append(data.Object(
			data.Field{Name: "k", Value: key},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
		))
	}
	return w.Close()
}

// hugeKeyTable mixes encodable keys with integers beyond ±2^53, which
// the normalized encoding refuses: shuffles fall back to Compare-based
// sorting, build sides are demoted to the hash index.
func hugeKeyTable(env *mapreduce.Env, name string, n int) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		var key data.Value
		if i%5 == 0 {
			key = data.Int(int64(1)<<60 + int64(i%7))
		} else {
			key = data.Int(int64(i % 17))
		}
		w.Append(data.Object(
			data.Field{Name: "k", Value: key},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
		))
	}
	return w.Close()
}

func assertSameRecords(t *testing.T, batch, row []data.Value) {
	t.Helper()
	if len(batch) != len(row) {
		t.Fatalf("record count diverged: batch %d, per-record %d", len(batch), len(row))
	}
	for i := range batch {
		if !data.Equal(batch[i], row[i]) {
			t.Fatalf("record %d diverged:\n  batch:      %v\n  per-record: %v", i, batch[i], row[i])
		}
	}
}

func assertSameStats(t *testing.T, batch, row *stats.Partial) {
	t.Helper()
	if batch.InRecords != row.InRecords || batch.OutRecords != row.OutRecords || batch.OutBytes != row.OutBytes {
		t.Fatalf("partial counters diverged: batch{in=%d out=%d bytes=%d} per-record{in=%d out=%d bytes=%d}",
			batch.InRecords, batch.OutRecords, batch.OutBytes, row.InRecords, row.OutRecords, row.OutBytes)
	}
	be, re := batch.Exact(), row.Exact()
	if be.Card != re.Card || be.AvgRecSize != re.AvgRecSize || len(be.Cols) != len(re.Cols) {
		t.Fatalf("exact stats diverged: batch{card=%v avg=%v cols=%d} per-record{card=%v avg=%v cols=%d}",
			be.Card, be.AvgRecSize, len(be.Cols), re.Card, re.AvgRecSize, len(re.Cols))
	}
	for path, bc := range be.Cols {
		rc, ok := re.Cols[path]
		if !ok || bc.NDV != rc.NDV || !data.Equal(bc.Min, rc.Min) || !data.Equal(bc.Max, rc.Max) {
			t.Fatalf("column %q stats diverged: batch{ndv=%v min=%v max=%v} per-record{ndv=%v min=%v max=%v}",
				path, bc.NDV, bc.Min, bc.Max, rc.NDV, rc.Min, rc.Max)
		}
	}
}

// diffFilter is a filter over the wrapped rows' mixed-kind key column
// and integer sequence column that exercises every batch-supported
// predicate shape: comparisons against a mixed-kind column (nulls,
// booleans, 0x00 strings, -0.0), an int column, and And/Or/Not.
func diffFilter() expr.Expr {
	return &expr.Or{Terms: []expr.Expr{
		&expr.And{Terms: []expr.Expr{
			&expr.Cmp{Op: expr.GE, L: expr.NewCol("t.seq"), R: expr.NewLit(data.Int(100))},
			&expr.Cmp{Op: expr.LT, L: expr.NewCol("t.seq"), R: expr.NewLit(data.Int(1200))},
		}},
		&expr.Not{E: &expr.Cmp{Op: expr.LT, L: expr.NewCol("t.k"), R: expr.NewLit(data.String("k05"))}},
	}}
}

func mustRun(t *testing.T, env *mapreduce.Env, spec mapreduce.Spec, err error) *mapreduce.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var keyPath = []data.Path{data.MustParsePath("t.k")}

// runScan executes a scan op (filter, wrap as {t: rec}).
func runScan(t *testing.T, env *mapreduce.Env, f *dfs.File, filter expr.Expr) *mapreduce.Result {
	t.Helper()
	op := &OpSpec{Kind: Scan, Source: &Source{Wrap: "t", Filter: filter}}
	spec, err := op.Bind(mapreduce.Spec{Name: "diff-scan", Output: "diff-scanned", CollectStats: keyPath}, f)
	if spec.Inputs[0].BatchMap == nil {
		t.Fatal("scan op compiled without a columnar kernel; the comparison would be vacuous")
	}
	return mustRun(t, env, spec, err)
}

// runShuffle executes the map side of a repartition op (filter, wrap,
// key by t.k) under an identity reducer, so the output exposes the
// exact reduce-side order of every pair.
func runShuffle(t *testing.T, env *mapreduce.Env, f *dfs.File, filter expr.Expr) *mapreduce.Result {
	t.Helper()
	op := &OpSpec{Kind: Repartition, Left: &Source{Wrap: "t", Filter: filter}, LeftKeys: keyPath}
	spec, err := op.Bind(mapreduce.Spec{Name: "diff-shuffle", Output: "diff-shuffled", NumReducers: 4, CollectStats: keyPath}, f)
	if spec.Inputs[0].BatchMap == nil {
		t.Fatal("repartition op compiled without a columnar kernel; the comparison would be vacuous")
	}
	spec.Reduce = func(rc *mapreduce.ReduceCtx, _ data.Value, group []mapreduce.Tagged) {
		for _, g := range group {
			rc.Emit(g.Rec)
		}
	}
	return mustRun(t, env, spec, err)
}

// bindBuild binds a build side to its file's first record, as the
// compiler does.
func bindBuild(b mapreduce.Broadcast) mapreduce.Broadcast {
	sample, _ := b.File.FirstRecord()
	return BindBuild(b, sample)
}

// runProbe executes a one-step chain op: probe rows {t: rec} joined to
// build rows {b: rec} on k.
func runProbe(t *testing.T, env *mapreduce.Env, probe, build *dfs.File) *mapreduce.Result {
	t.Helper()
	op := &OpSpec{Kind: Chain, Source: &Source{Wrap: "t"}, Steps: []ChainStep{{Build: "b0", Keys: keyPath}}}
	spec := mapreduce.Spec{Name: "diff-probe", Output: "diff-probed",
		Broadcasts: []mapreduce.Broadcast{bindBuild(mapreduce.Broadcast{Name: "b0", File: build, Wrap: "b", KeyPaths: []data.Path{data.MustParsePath("b.k")}})}}
	spec, err := op.Bind(spec, probe)
	if spec.Inputs[0].BatchMap == nil {
		t.Fatal("chain op compiled without a columnar kernel; the comparison would be vacuous")
	}
	return mustRun(t, env, spec, err)
}

func TestScanKernelsIdentical(t *testing.T) {
	t.Parallel()
	bEnv, rEnv := diffEnvs()
	bRes := runScan(t, bEnv, mixedKeyTable(bEnv, "t", 1500), diffFilter())
	rRes := runScan(t, rEnv, mixedKeyTable(rEnv, "t", 1500), diffFilter())
	assertSameRecords(t, bRes.Output.AllRecords(), rRes.Output.AllRecords())
	assertSameStats(t, bRes.Stats, rRes.Stats)
	if bRes.OutRecords == 0 || bRes.OutRecords == 1500 {
		t.Fatalf("filter not selective: %d of 1500 rows survived", bRes.OutRecords)
	}
}

// TestShuffleKernelsIdentical: split-wide key evaluation,
// normalization, and partition hashing route every record to the same
// reducer position as EmitKV, over keys of every encodable kind.
func TestShuffleKernelsIdentical(t *testing.T) {
	t.Parallel()
	bEnv, rEnv := diffEnvs()
	bRes := runShuffle(t, bEnv, mixedKeyTable(bEnv, "t", 1500), diffFilter())
	rRes := runShuffle(t, rEnv, mixedKeyTable(rEnv, "t", 1500), diffFilter())
	assertSameRecords(t, bRes.Output.AllRecords(), rRes.Output.AllRecords())
	assertSameStats(t, bRes.Stats, rRes.Stats)
}

// TestShuffleKernelsUnencodableKeys: the columnar kernel records an
// empty normalized key for |int| > 2^53, which must route and sort
// exactly like EmitKV's own fallback.
func TestShuffleKernelsUnencodableKeys(t *testing.T) {
	t.Parallel()
	bEnv, rEnv := diffEnvs()
	bRes := runShuffle(t, bEnv, hugeKeyTable(bEnv, "t", 900), nil)
	rRes := runShuffle(t, rEnv, hugeKeyTable(rEnv, "t", 900), nil)
	if bRes.OutRecords != 900 {
		t.Fatalf("out records: %d, want 900", bRes.OutRecords)
	}
	assertSameRecords(t, bRes.Output.AllRecords(), rRes.Output.AllRecords())
	assertSameStats(t, bRes.Stats, rRes.Stats)
}

// TestProbeKernelsIdentical: the vectorized probe (cached per-split
// key encodings against the normalized-key index) and the per-record
// probe produce the identical join over mixed-kind keys — and over a
// build side an unencodable key demoted to the hash index, where the
// columnar kernel must fall back to Probe per row.
func TestProbeKernelsIdentical(t *testing.T) {
	for name, table := range map[string]func(*mapreduce.Env, string, int) *dfs.File{"mixed": mixedKeyTable, "demoted": hugeKeyTable} {
		table := table
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bEnv, rEnv := diffEnvs()
			bRes := runProbe(t, bEnv, table(bEnv, "probe", 800), table(bEnv, "build", 120))
			rRes := runProbe(t, rEnv, table(rEnv, "probe", 800), table(rEnv, "build", 120))
			if bRes.OutRecords == 0 {
				t.Fatal("join produced no rows; test is vacuous")
			}
			assertSameRecords(t, bRes.Output.AllRecords(), rRes.Output.AllRecords())
		})
	}
}

// TestBatchCacheConcurrentJobs runs the same scan concurrently over
// one shared file from independent environments (each with its own
// cluster simulator, sharing only the file system), so racing jobs
// contend on each split's auxiliary cache slot (CAS attach) and on
// lazy vector/selection construction under the split mutex — the
// sharing pattern of the concurrent query service. Run with -race, the
// test asserts the per-block cache is safe to share and that every job
// still observes identical output.
func TestBatchCacheConcurrentJobs(t *testing.T) {
	t.Parallel()
	base := testEnv()
	f := mixedKeyTable(base, "t", 1500)
	const jobs = 4
	results := make([][]data.Value, jobs)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			env := testEnv()
			env.FS = base.FS // shared blocks, private simulator
			op := &OpSpec{Kind: Scan, Source: &Source{Wrap: "t", Filter: diffFilter()}}
			spec, err := op.Bind(mapreduce.Spec{Name: "diff-concurrent", Output: "diff-concurrent-out-" + string(rune('a'+j))}, f)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := mapreduce.Run(env, spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[j] = res.Output.AllRecords()
		}(j)
	}
	wg.Wait()
	for j := 1; j < jobs; j++ {
		assertSameRecords(t, results[0], results[j])
	}
}
