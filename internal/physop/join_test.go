package physop

import (
	"sync"
	"testing"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
)

// The tests in this file hold the two joins' arena-built rows to rows
// built by data.MergeObjects in plain nested loops: residuals that
// reject about half the candidates (every rejection hands fields back
// to the arena), chains deep enough to use the scratch arena, and
// pruned variants whose merged rows are all scratch.

// seqTable writes n records {k: i % mod, pad: "x", seq: i}.
func seqTable(env *mapreduce.Env, name string, n, mod int) *dfs.File {
	w := env.FS.Create(name)
	for i := 0; i < n; i++ {
		w.Append(data.Object(
			data.Field{Name: "k", Value: data.Int(int64(i % mod))},
			data.Field{Name: "pad", Value: data.String("x")},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
		))
	}
	return w.Close()
}

func wrap(alias string, rec data.Value) data.Value {
	return data.Object(data.Field{Name: alias, Value: rec})
}

func seqLess(a, b string) expr.Expr {
	return &expr.Cmp{Op: expr.LT, L: expr.NewCol(a + ".seq"), R: expr.NewCol(b + ".seq")}
}

// chainOracle is the three-step chain by definition: every probe row
// against every b0, b1, b2 row in build scan order, equal on k, under
// the same residuals, merged by MergeObjects.
func chainOracle(probe, b0, b1, b2 []data.Value, prune func(data.Value) data.Value) []data.Value {
	k, seq := data.MustParsePath("k"), data.MustParsePath("seq")
	var out []data.Value
	for _, p := range probe {
		for _, x := range b0 {
			if !data.Equal(k.Eval(p), k.Eval(x)) {
				continue
			}
			for _, y := range b1 {
				if !data.Equal(k.Eval(x), k.Eval(y)) || seq.Eval(p).Int() >= seq.Eval(y).Int() {
					continue
				}
				for _, z := range b2 {
					if !data.Equal(k.Eval(y), k.Eval(z)) || seq.Eval(x).Int() >= seq.Eval(z).Int() {
						continue
					}
					row := data.MergeObjects(data.MergeObjects(data.MergeObjects(wrap("t", p), wrap("b0", x)), wrap("b1", y)), wrap("b2", z))
					if prune != nil {
						row = prune(row)
					}
					out = append(out, row)
				}
			}
		}
	}
	return out
}

func runChain3(t *testing.T, a arm, env *mapreduce.Env, prune map[string]map[string]bool) (ran, []data.Value) {
	t.Helper()
	probe := seqTable(env, "probe", 600, 7)
	builds := []*dfs.File{seqTable(env, "b0", 21, 7), seqTable(env, "b1", 28, 7), seqTable(env, "b2", 35, 7)}
	op := &OpSpec{Kind: Chain, Source: &Source{Wrap: "t"}, Prune: prune, Steps: []ChainStep{
		{Build: "b0", Keys: []data.Path{data.MustParsePath("t.k")}},
		{Build: "b1", Keys: []data.Path{data.MustParsePath("b0.k")}, Residual: seqLess("t", "b1")},
		{Build: "b2", Keys: []data.Path{data.MustParsePath("b1.k")}, Residual: seqLess("b0", "b2")},
	}}
	spec := mapreduce.Spec{Name: "chain3", Output: "chain3-out"}
	for i, name := range []string{"b0", "b1", "b2"} {
		spec.Broadcasts = append(spec.Broadcasts, a.bindBuildFile(mapreduce.Broadcast{
			Name: name, File: builds[i], Wrap: name, KeyPaths: []data.Path{data.MustParsePath(name + ".k")}}))
	}
	spec, err := a.bind(op, spec, probe)
	want := chainOracle(probe.AllRecords(), builds[0].AllRecords(), builds[1].AllRecords(), builds[2].AllRecords(), NewPruner(prune))
	if len(want) == 0 {
		t.Fatal("oracle join is empty; test is vacuous")
	}
	return mustRun(t, env, spec, err), want
}

// TestChainRowsMatchMergeOracle: a three-step chain with residuals,
// compiled to the map kernel ("batch") and to the record-at-a-time
// oracle ("row"), and the kernel of its pruned variant, emit the merge
// oracle's rows in its order — after the whole job ran, so a scratch
// row that leaked into the output would have been overwritten many
// times over.
func TestChainRowsMatchMergeOracle(t *testing.T) {
	for name, a := range map[string]arm{"batch": kernelArm, "row": oracleArm} {
		t.Run(name, func(t *testing.T) {
			res, want := runChain3(t, a, testEnv(), nil)
			assertSameRecords(t, res.Output.AllRecords(), want)
		})
	}
	t.Run("pruned", func(t *testing.T) {
		res, want := runChain3(t, kernelArm, testEnv(), map[string]map[string]bool{
			"t": {"k": true, "seq": true}, "b0": nil, "b1": {"k": true, "seq": true}, "b2": {"seq": true}})
		assertSameRecords(t, res.Output.AllRecords(), want)
	})
}

// joinPairs builds one reduce partition of a repartition join: left and
// right rows on keys [0, keys), interleaved as map outputs would be.
func joinPairs(keys, perSide, seed int) []mapreduce.Pair {
	var pairs []mapreduce.Pair
	for i := 0; i < keys*perSide; i++ {
		k := data.Int(int64((i*7 + seed) % keys))
		rec := func(alias string) data.Value {
			return wrap(alias, data.Object(data.Field{Name: "k", Value: k}, data.Field{Name: "seq", Value: data.Int(int64(i + seed))}))
		}
		pairs = append(pairs, mapreduce.Pair{Key: k, Tag: "L", Rec: rec("l")}, mapreduce.Pair{Key: k, Tag: "R", Rec: rec("r")})
	}
	mapreduce.SortPairsByKey(pairs)
	return pairs
}

// joinOracle is the reducer by definition over sorted pairs: per key
// group, left × right in group order, residual l.seq < r.seq.
func joinOracle(pairs []mapreduce.Pair, prune func(data.Value) data.Value) []data.Value {
	seq := func(alias string, row data.Value) int64 { return data.MustParsePath(alias + ".seq").Eval(row).Int() }
	var out []data.Value
	for lo := 0; lo < len(pairs); {
		hi := lo
		for hi < len(pairs) && data.Equal(pairs[hi].Key, pairs[lo].Key) {
			hi++
		}
		for _, l := range pairs[lo:hi] {
			for _, r := range pairs[lo:hi] {
				if l.Tag != "L" || r.Tag != "R" || seq("l", l.Rec) >= seq("r", r.Rec) {
					continue
				}
				row := data.MergeObjects(l.Rec, r.Rec)
				if prune != nil {
					row = prune(row)
				}
				out = append(out, row)
			}
		}
		lo = hi
	}
	return out
}

// TestJoinReduceSharedAcrossTasks: one compiled Kernels.Reduce serves
// all of a job's reduce tasks, which the pool runs in parallel — so its
// per-group scratch and its arena must live on each task's ReduceCtx.
// Two tasks of one kernel run concurrently (meaningful under -race) and
// each must emit its own partition's oracle rows, plain and pruned.
func TestJoinReduceSharedAcrossTasks(t *testing.T) {
	for name, live := range map[string]map[string]map[string]bool{"plain": nil, "pruned": {"l": {"seq": true}, "r": nil}} {
		t.Run(name, func(t *testing.T) {
			op := &OpSpec{Kind: Repartition, Left: &Source{}, Right: &Source{}, Residual: seqLess("l", "r"), Prune: live}
			k, err := Compile(op, 0, data.Null())
			if err != nil {
				t.Fatal(err)
			}
			parts := [][]mapreduce.Pair{joinPairs(40, 6, 0), joinPairs(25, 9, 1000)}
			got := make([][]data.Value, len(parts))
			errs := make([]error, len(parts))
			var wg sync.WaitGroup
			for p := range parts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[p], _, errs[p] = mapreduce.RunReduceTask(expr.NewRegistry(), k.Reduce, parts[p])
				}()
			}
			wg.Wait()
			for p := range parts {
				if errs[p] != nil {
					t.Fatal(errs[p])
				}
				want := joinOracle(parts[p], NewPruner(live))
				if len(want) == 0 || len(want) == 40*6*6 {
					t.Fatalf("residual not selective: %d rows", len(want))
				}
				assertSameRecords(t, got[p], want)
			}
		})
	}
}
