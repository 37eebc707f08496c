package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/stats"
)

// The tests in this file drive the shuffle and the broadcast hash
// table with adversarial keys and check the outputs against oracles
// written directly over data.Hash64, data.Compare and data.Equal — the
// definitions the normalized-key machinery (sorting and grouping by
// encoded strings, the normalized-key table index, pooled buffers)
// must be indistinguishable from.

// TestPairLayout: a map task's output is positions, so what it owns
// costs 4 bytes per pair (an int32 in Idx) and 4 per reducer (an int32
// offset); gathered reduce inputs and the key groups reducers see are
// arrays of Pair, so its size is the unit of the reduce side's
// allocation and copy cost: two strings' worth of headers plus
// data.Value's three words twice.
func TestPairLayout(t *testing.T) {
	var s Partitioned
	if pos, off := reflect.TypeOf(s.Idx).Elem().Size(), reflect.TypeOf(s.Offs).Elem().Size(); pos != 4 || off != 4 {
		t.Errorf("a position is %d bytes and an offset %d, want 4 and 4", pos, off)
	}
	if sz := reflect.TypeOf(Pair{}).Size(); sz > 80 {
		t.Errorf("Sizeof(Pair) = %d, want <= 80", sz)
	}
}

// mixedKeyTable writes records whose shuffle keys cycle through every
// scalar kind the normalized encoding supports — including negative
// doubles, the empty string, strings containing 0x00 (the terminator
// byte that must be escaped), -0.0, NaN and nulls — so sorting and
// grouping are exercised across kind boundaries.
func mixedKeyTable(env *Env, name string, n int) *dfs.File {
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
			key = data.String("a\x00" + string(rune('a'+i%3))) // embedded terminator byte
		case 6:
			key = data.Double(math.Copysign(0, -1)) // Compare-equal to 0
			if i%2 == 1 {
				key = data.Double(math.NaN())
			}
		}
		w.Append(data.Object(
			data.Field{Name: "k", Value: key},
			data.Field{Name: "seq", Value: data.Int(int64(i))},
		))
	}
	return w.Close()
}

// hugeKeyTable mixes small integer keys with integers beyond ±2^53,
// whose normalized keys carry the residual tail (and which once made the
// encoding refuse the whole batch).
func hugeKeyTable(env *Env, name string, n int) *dfs.File {
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

// runShuffle executes the canonical identity shuffle (key by .k, emit
// group members in order) with statistics collection on .k.
func runShuffle(t *testing.T, env *Env, f *dfs.File) *Result {
	t.Helper()
	key := data.MustParsePath("k")
	res, err := Run(env, Spec{
		Name:   "diff-shuffle",
		Inputs: []Input{{File: f, Map: keyedBy("L", key.Eval)}},
		Reduce: func(rc *ReduceCtx, key data.Value, group []Pair) {
			for _, g := range group {
				rc.Emit(g.Rec)
			}
		},
		NumReducers:  shuffleReducers,
		Output:       "diff-shuffled",
		CollectStats: []data.Path{data.MustParsePath("k")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const shuffleReducers = 4

// shuffleOracle is the identity shuffle by definition: each record
// goes to partition data.Hash64(k) % reducers, a partition holds its
// records in input order stably sorted by data.Compare on k, and the
// output is the partitions in order.
func shuffleOracle(f *dfs.File) []data.Value {
	key := data.MustParsePath("k")
	parts := make([][]data.Value, shuffleReducers)
	for _, rec := range f.AllRecords() {
		p := data.Hash64(key.Eval(rec)) % shuffleReducers
		parts[p] = append(parts[p], rec)
	}
	var out []data.Value
	for _, part := range parts {
		sort.SliceStable(part, func(i, j int) bool {
			return data.Compare(key.Eval(part[i]), key.Eval(part[j])) < 0
		})
		out = append(out, part...)
	}
	return out
}

func assertSameRecords(t *testing.T, got, want []data.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count diverged: got %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !data.Equal(got[i], want[i]) {
			t.Fatalf("record %d diverged:\n  got:    %v\n  oracle: %v", i, got[i], want[i])
		}
	}
}

// assertKeyStats checks the job's statistics on .k against the input:
// every record out, and the column's distinct count over the
// non-null keys under data.Hash64, which the estimate is below the
// synopsis size.
func assertKeyStats(t *testing.T, res *Result, f *dfs.File) {
	t.Helper()
	key := data.MustParsePath("k")
	recs := f.AllRecords()
	n := int64(len(recs))
	got := res.Stats
	if got.OutRecords != n {
		t.Fatalf("counters: out=%d, want %d", got.OutRecords, n)
	}
	distinct := map[uint64]bool{}
	for _, rec := range recs {
		if k := key.Eval(rec); !k.IsNull() {
			distinct[data.Hash64(k)] = true
		}
	}
	if len(distinct) >= stats.DefaultKMVSize {
		t.Fatalf("%d distinct keys: the check needs fewer than %d", len(distinct), stats.DefaultKMVSize)
	}
	col, ok := got.Exact().Cols["k"]
	if !ok {
		t.Fatal("no statistics collected for column k")
	}
	if col.NDV != float64(len(distinct)) {
		t.Fatalf("column k NDV = %v, oracle %d distinct keys", col.NDV, len(distinct))
	}
}

// TestShuffleMatchesCompareOracle: over keys of every encodable kind,
// the shuffle's normalized-key sort and grouping reproduce the
// Hash64/Compare definition record for record.
func TestShuffleMatchesCompareOracle(t *testing.T) {
	env := benchEnv()
	f := mixedKeyTable(env, "t", 1500)
	res := runShuffle(t, env, f)
	assertSameRecords(t, res.Output.AllRecords(), shuffleOracle(f))
	assertKeyStats(t, res, f)
}

// TestShuffleFallbackKeysMatchOracle: keys beyond ±2^53 (the inputs the
// deleted Compare-sorting fallback existed for) sort and group by their
// normalized keys exactly as the definition says.
func TestShuffleFallbackKeysMatchOracle(t *testing.T) {
	env := benchEnv()
	f := hugeKeyTable(env, "t", 900)
	res := runShuffle(t, env, f)
	assertSameRecords(t, res.Output.AllRecords(), shuffleOracle(f))
	assertKeyStats(t, res, f)
}

// TestBroadcastJoinMatchesEqualOracle asserts the hash table probes to
// exactly the matches data.Equal defines, in build scan order, by value
// and by normalized key alike — over mixed-kind keys and over keys beyond
// ±2^53 (the arm named for the hash index they once demoted a table to).
func TestBroadcastJoinMatchesEqualOracle(t *testing.T) {
	key := data.MustParsePath("k")
	for name, table := range map[string]func(*Env, string, int) *dfs.File{"indexed": mixedKeyTable, "demoted": hugeKeyTable} {
		t.Run(name, func(t *testing.T) {
			env := benchEnv()
			probe, build := table(env, "probe", 800), table(env, "build", 120)
			res, err := Run(env, Spec{
				Name: "diff-bjoin",
				Inputs: []Input{{File: probe, Map: perRecord(func(mc *MapCtx, rec data.Value) {
					matches := mc.Build("b").Probe(key.Eval(rec))
					if byNK := mc.Build("b").ProbeNK(data.NormKey(key.Eval(rec))); len(byNK) != len(matches) {
						t.Errorf("ProbeNK(%v) finds %d rows, Probe %d", key.Eval(rec), len(byNK), len(matches))
					}
					for _, m := range matches {
						mc.Emit(data.MergeObjects(rec, m))
					}
				})}},
				Broadcasts: []Broadcast{bound(Broadcast{Name: "b", File: build, KeyPaths: []data.Path{key}})},
				Output:     "diff-bjoined",
			})
			if err != nil {
				t.Fatal(err)
			}
			var want []data.Value
			for _, p := range probe.AllRecords() {
				for _, b := range build.AllRecords() {
					if data.Equal(key.Eval(p), key.Eval(b)) {
						want = append(want, data.MergeObjects(p, b))
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("join produced no rows; test is vacuous")
			}
			assertSameRecords(t, res.Output.AllRecords(), want)
		})
	}
}

// TestSortPairsByKeyMatchesCompareOrder holds SortPairsByKey to its
// definition — the permutation slices.SortStableFunc produces under
// data.Compare on the key — on the inputs that separate a correct
// permutation sort from a lucky one: heavy duplicates (ties broken by
// input position), keys that share their first 8 normalized bytes (the
// prefix decides nothing), sorted and reversed input, the numbers whose
// keys once did not encode (NaN, -0.0, ±(2^53+1) beside 2^53 as int and
// double), and pairs with no nk at all (decoded from a frame) alone or
// mixed with pairs that carry one.
func TestSortPairsByKeyMatchesCompareOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mixed := func() data.Value {
		switch rng.Intn(6) {
		case 0:
			return data.Int(int64(rng.Intn(21) - 10))
		case 1:
			return data.Double(rng.NormFloat64())
		case 2:
			return data.String(fmt.Sprintf("s%d", rng.Intn(8)))
		case 3:
			return data.Bool(rng.Intn(2) == 0)
		case 4:
			return data.Null()
		default:
			return data.Array(data.Int(int64(rng.Intn(4))), data.String("x"))
		}
	}
	keys := func(n int, mk func(i int) data.Value) []data.Value {
		out := make([]data.Value, n)
		for i := range out {
			out[i] = mk(i)
		}
		return out
	}
	const n = 2000
	cases := map[string][]data.Value{
		"mixed kinds":      keys(n, func(int) data.Value { return mixed() }),
		"heavy duplicates": keys(n, func(int) data.Value { return data.Int(int64(rng.Intn(5))) }),
		// "shared-prefix-NN": 0x04 plus 7 shared bytes fill the prefix.
		"shared prefix": keys(n, func(int) data.Value { return data.String(fmt.Sprintf("shared-prefix-%02d", rng.Intn(40))) }),
		// Composite keys: class byte, class byte, 6 of 8 number bytes.
		"composite": keys(n, func(int) data.Value { return data.Array(data.Int(int64(rng.Intn(3))), data.Int(int64(rng.Intn(300)))) }),
		"short keys": keys(n, func(i int) data.Value {
			return []data.Value{data.Null(), data.Bool(i%3 == 0), data.String(""), data.String("a")}[rng.Intn(4)]
		}),
		"sorted":   keys(n, func(i int) data.Value { return data.Int(int64(i / 3)) }),
		"reversed": keys(n, func(i int) data.Value { return data.Int(int64((n - i) / 3)) }),
		"unencodable": keys(n, func(i int) data.Value {
			if i == n/2 {
				return data.Int(1<<60 + 1)
			}
			return []data.Value{data.Int(int64(rng.Intn(50))), data.Double(math.NaN()), data.Double(-math.NaN()),
				data.Double(math.Copysign(0, -1)), data.Int(0), data.Int(1<<53 + 1), data.Double(1 << 53), data.Int(1 << 53),
				data.Int(-(1<<53 + 1)), data.Double(math.Inf(1)), data.Array(data.Int(1<<53+1), data.Double(math.NaN()))}[rng.Intn(11)]
		}),
		"two":   keys(2, func(i int) data.Value { return data.Int(int64(1 - i)) }),
		"one":   keys(1, func(int) data.Value { return data.Int(7) }),
		"empty": nil,
	}
	// How many of a batch's pairs arrive with their nk attached.
	arms := map[string]func(i int) bool{
		"nk":      func(int) bool { return true },
		"no nk":   func(int) bool { return false },
		"some nk": func(i int) bool { return i%3 != 0 },
	}
	for name, ks := range cases {
		want := make([]Pair, len(ks))
		for i, k := range ks {
			want[i] = Pair{Key: k, Tag: "T", Rec: data.Int(int64(i))}
		}
		slices.SortStableFunc(want, func(a, b Pair) int { return data.Compare(a.Key, b.Key) })
		for arm, hasNK := range arms {
			t.Run(name+"/"+arm, func(t *testing.T) {
				got := make([]Pair, len(ks))
				for i, k := range ks {
					got[i] = Pair{Key: k, Tag: "T", Rec: data.Int(int64(i))}
					if hasNK(i) {
						got[i].nk = data.NormKey(k)
					}
				}
				SortPairsByKey(got)
				for i := range got {
					if got[i].Rec.Int() != want[i].Rec.Int() || !data.Equal(got[i].Key, want[i].Key) {
						t.Fatalf("permutation diverged at %d: got input #%d (key %v), stable sort has #%d (key %v)",
							i, got[i].Rec.Int(), got[i].Key, want[i].Rec.Int(), want[i].Key)
					}
					if nk := data.NormKey(got[i].Key); got[i].nk != nk {
						t.Fatalf("pair %d carries nk %q for key %v, want %q", i, got[i].nk, got[i].Key, nk)
					}
				}
			})
		}
	}
}

// BenchmarkSortPairsByKey measures the normalized-key sort — the
// comparator on the shuffle's critical path (CI tracks its allocs/op).
func BenchmarkSortPairsByKey(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 4096
	base := make([]Pair, n)
	for i := range base {
		key := data.Int(int64(rng.Intn(1 << 20)))
		base[i] = Pair{Key: key, nk: data.NormKey(key), Tag: "T"}
	}
	scratch := make([]Pair, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, base)
		SortPairsByKey(scratch)
	}
}
