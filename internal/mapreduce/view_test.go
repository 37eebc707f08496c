package mapreduce

import (
	"slices"
	"testing"

	"dyno/internal/data"
)

// TestMapOnlyJobWritesAView: a map-only job of one input and no build
// side whose every split ran records its output as a view of its input
// — the splits in the order its map tasks were submitted, which is the
// order its rows were written in, and the job's operator — while an
// early-stopped pilot, a shuffle job, a job of two inputs and a
// broadcast join record none.
func TestMapOnlyJobWritesAView(t *testing.T) {
	env := testEnv(t)
	f := writeTable(env, "t", "a", 600)
	if f.NumBlocks() < 6 {
		t.Fatalf("need several blocks, got %d", f.NumBlocks())
	}
	// A pilot that starts on two splits out of file order and takes the
	// rest on demand until it has seen the whole input.
	var reserve []int
	for s := f.NumBlocks() - 1; s >= 0; s-- {
		if s != 4 && s != 1 {
			reserve = append(reserve, s)
		}
	}
	op := &struct{ name string }{"scan"}
	res, err := Run(env, Spec{
		Name:       "pilot",
		Inputs:     []Input{{File: f, Splits: []int{4, 1}, Map: identityMap}},
		Output:     "out",
		StopAfter:  1 << 40,
		MoreSplits: [][]int{reserve},
		RemoteOp:   op,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Output.View()
	if !res.WholeInput || v == nil {
		t.Fatalf("a pilot over the whole input (WholeInput %v) recorded view %+v", res.WholeInput, v)
	}
	if v.Base != f || v.Op != op || !slices.Equal(v.Splits[:2], []int{4, 1}) || len(v.Splits) != f.NumBlocks() {
		t.Fatalf("view of %s through %v over splits %v, want t through the job's op over 4, 1, then the reserve", v.Base.Name(), v.Op, v.Splits)
	}
	var want []data.Value
	for _, s := range v.Splits {
		want = append(want, f.Block(s).Records()...)
	}
	if got := res.Output.AllRecords(); !slices.EqualFunc(got, want, func(a, b data.Value) bool { return data.Compare(a, b) == 0 }) {
		t.Fatalf("the output's %d rows are not its base's blocks in the view's split order (%d rows)", len(got), len(want))
	}

	other := writeTable(env, "u", "b", 100)
	build := bound(Broadcast{Name: "b0", File: other, KeyPaths: []data.Path{data.MustParsePath("b.id")}})
	for name, spec := range map[string]Spec{
		"early-stopped pilot": {Inputs: []Input{{File: f, Map: identityMap}}, StopAfter: 40},
		"shuffle job": {Inputs: []Input{{File: f, Map: keyedBy("", func(rec data.Value) data.Value { return rec })}},
			Reduce: func(*ReduceCtx, data.Value, []Pair) {}},
		"two inputs":     {Inputs: []Input{{File: f, Map: identityMap}, {File: other, Map: identityMap}}},
		"broadcast join": {Inputs: []Input{{File: f, Map: identityMap}}, Broadcasts: []Broadcast{build}},
	} {
		spec.Name, spec.Output = name, name
		res, err := Run(env, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v := res.Output.View(); v != nil {
			t.Errorf("%s recorded a view of %s over %v", name, v.Base.Name(), v.Splits)
		}
	}
}
