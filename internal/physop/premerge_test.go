package physop

import (
	"math/rand"
	"testing"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
)

// The tests in this file hold a chain step's pre-merge check (preMerge,
// implied) to its one obligation — a build match it rejects would have
// failed a later residual — and hold chains that drop matches early to
// the oracle chain, which never does: same rows, same order, the same
// float of UDF cost on every task.

// checks returns the pre-merge check preMerge gives each step of chain
// (nil: none).
func checks(chain []ChainStep) []*binder[expr.Expr] {
	steps := make([]probeStep, len(chain))
	preMerge(steps, chain)
	pres := make([]*binder[expr.Expr], len(steps))
	for i := range steps {
		pres[i] = steps[i].pre
	}
	return pres
}

// derived is the pre-merge check the first of two steps gets from
// res on the second, bound to the build row sample (nil: none).
func derived(res expr.Expr, sample data.Value) expr.Expr {
	pre := checks([]ChainStep{{Build: "first"}, {Build: "second", Residual: res}})[0]
	if pre == nil {
		return nil
	}
	return pre.bind(sample)
}

// fieldsOf is implied's test for an alias of build row m, preMerge's
// own.
func fieldsOf(m data.Value) func(alias string) bool {
	return func(alias string) bool { return !m.FieldOr(alias).IsNull() }
}

func cmpLit(col string, op expr.CmpOp, v data.Value) expr.Expr {
	return &expr.Cmp{Op: op, L: expr.NewCol(col), R: expr.NewLit(v)}
}

func nameIs(alias, name string) expr.Expr {
	return cmpLit(alias+".n_name", expr.EQ, data.String(name))
}

// q7Residual is Q7's cross-nation residual over n1 and n2.
func q7Residual() expr.Expr {
	return &expr.Or{Terms: []expr.Expr{
		&expr.And{Terms: []expr.Expr{nameIs("n1", "FRANCE"), nameIs("n2", "GERMANY")}},
		&expr.And{Terms: []expr.Expr{nameIs("n1", "GERMANY"), nameIs("n2", "FRANCE")}},
	}}
}

// TestPreMergeDerivesWhatLaterResidualsImply: Q7's residual gives each
// nation step its two names; a UDF term, an arithmetic term and a
// comparison across two aliases contribute nothing, and a disjunct with
// no term over the build row's aliases leaves no check at all.
func TestPreMergeDerivesWhatLaterResidualsImply(t *testing.T) {
	t.Parallel()
	nation := func(alias string) data.Value {
		return wrap(alias, data.Object(data.Field{Name: "n_name", Value: data.String("PERU")}, data.Field{Name: "n_nationkey", Value: data.Int(3)}))
	}
	or := func(terms ...expr.Expr) expr.Expr { return &expr.Or{Terms: terms} }
	and := func(terms ...expr.Expr) expr.Expr { return &expr.And{Terms: terms} }
	udf := &expr.Call{Name: "keep_match", Args: []expr.Expr{expr.NewCol("n1.n_nationkey")}}
	plus1 := &expr.Arith{Op: expr.Add, L: expr.NewCol("n1.n_nationkey"), R: expr.NewLit(data.Int(1))}
	arith := &expr.Cmp{Op: expr.GT, L: expr.NewCol("n1.n_nationkey"), R: plus1}
	cross := &expr.Cmp{Op: expr.EQ, L: expr.NewCol("n1.n_nationkey"), R: expr.NewCol("n2.n_nationkey")}
	for _, tc := range []struct {
		name  string
		res   expr.Expr
		build data.Value
		want  expr.Expr // nil: no check
	}{
		{"q7-n1", q7Residual(), nation("n1"), or(nameIs("n1", "FRANCE"), nameIs("n1", "GERMANY"))},
		{"q7-n2", q7Residual(), nation("n2"), or(nameIs("n2", "GERMANY"), nameIs("n2", "FRANCE"))},
		{"q7-other-alias", q7Residual(), nation("s"), nil},
		{"udf-arith-cross-contribute-nothing",
			or(and(udf, nameIs("n1", "FRANCE")), and(arith, nameIs("n1", "PERU"), cross)),
			nation("n1"), or(nameIs("n1", "FRANCE"), nameIs("n1", "PERU"))},
		{"udf-alone", or(and(udf, nameIs("n2", "FRANCE")), nameIs("n1", "PERU")), nation("n1"), nil},
		{"arith-alone", or(arith, nameIs("n1", "PERU")), nation("n1"), nil},
		{"udf-operand", or(&expr.Cmp{Op: expr.EQ, L: expr.NewCol("n1.n_name"), R: udf}, nameIs("n1", "PERU")), nation("n1"), nil},
		{"cross-alone", or(cross, nameIs("n1", "PERU")), nation("n1"), nil},
		{"disjunct-without-term", or(and(nameIs("n1", "FRANCE"), nameIs("n2", "GERMANY")), nameIs("n2", "PERU")), nation("n1"), nil},
		{"conjunction-of-residuals", and(q7Residual(), cmpLit("n1.n_nationkey", expr.LT, data.Int(9))), nation("n1"),
			and(or(nameIs("n1", "FRANCE"), nameIs("n1", "GERMANY")), cmpLit("n1.n_nationkey", expr.LT, data.Int(9)))},
		{"two-alias-build", or(and(cross, nameIs("n1", "X")), and(nameIs("n2", "Y"), nameIs("s", "Z"))),
			data.Object(data.Field{Name: "n1", Value: nation("n1").FieldOr("n1")}, data.Field{Name: "n2", Value: nation("n2").FieldOr("n2")}),
			or(nameIs("n1", "X"), nameIs("n2", "Y"))},
	} {
		same := func(got expr.Expr) bool {
			return (got == nil) == (tc.want == nil) && (got == nil || got.String() == tc.want.String())
		}
		if got := implied(tc.res, fieldsOf(tc.build)); !same(got) {
			t.Errorf("%s: implied %v, want %v", tc.name, got, tc.want)
		}
		// preMerge takes nothing from a residual that calls a UDF.
		if got := derived(tc.res, tc.build); expr.ContainsUDF(tc.res) && got != nil || !expr.ContainsUDF(tc.res) && !same(got) {
			t.Errorf("%s: pre-merge check %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPreMergeIsImpliedByTheResidual is the check's obligation over
// random And/Or/Not/Cmp residuals on three aliases — comparisons
// against literals, across aliases, over arithmetic and UDF calls —
// and rows with nulls and missing fields: wherever the residual is
// truthy on the merged row, what it implies over the build row's
// aliases (b's, or b's and c's), and the pre-merge check bound to the
// table's first row, are truthy on the build row, and evaluating them
// charges nothing.
func TestPreMergeIsImpliedByTheResidual(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(49))
	aliases, fields := []string{"a", "b", "c"}, []string{"x", "y"}
	value := func() data.Value {
		return [...]data.Value{data.Null(), data.Int(0), data.Int(1), data.Int(2), data.String("p")}[rng.Intn(5)]
	}
	col := func() expr.Expr { return expr.NewCol(aliases[rng.Intn(3)] + "." + fields[rng.Intn(2)]) }
	operand := func() expr.Expr {
		switch rng.Intn(6) {
		case 0:
			return &expr.Arith{Op: expr.Add, L: col(), R: expr.NewLit(data.Int(1))}
		case 1:
			return &expr.Call{Name: "keep_match", Args: []expr.Expr{col()}}
		case 2, 3:
			return col()
		}
		return expr.NewLit(value())
	}
	var tree func(depth int) expr.Expr
	tree = func(depth int) expr.Expr {
		kind := rng.Intn(10)
		if depth == 0 {
			kind = rng.Intn(4)
		}
		switch kind {
		case 0:
			return &expr.Call{Name: "keep_match", Args: []expr.Expr{col()}}
		case 4, 5:
			return &expr.Not{E: tree(depth - 1)}
		case 6, 7:
			return &expr.And{Terms: []expr.Expr{tree(depth - 1), tree(depth - 1), tree(depth - 1)}[:1+rng.Intn(3)]}
		case 8, 9:
			return &expr.Or{Terms: []expr.Expr{tree(depth - 1), tree(depth - 1), tree(depth - 1)}[:1+rng.Intn(3)]}
		}
		return &expr.Cmp{Op: expr.CmpOp(rng.Intn(6)), L: operand(), R: operand()}
	}
	rec := func() data.Value {
		var fs []data.Field
		for _, f := range fields {
			if rng.Intn(4) > 0 { // a quarter of the fields are missing
				fs = append(fs, data.Field{Name: f, Value: value()})
			}
		}
		return data.Object(fs...)
	}
	ctx := &expr.Ctx{Reg: expr.NewRegistry()}
	registerUDFs(ctx.Reg)
	var checked, rejected [2]int // implied's, preMerge's
	for range 6000 {
		res, one := tree(3), rng.Intn(2) == 0
		build := func(b, c data.Value) data.Value { // one table, one layout
			if one {
				return wrap("b", b)
			}
			return data.Object(data.Field{Name: "b", Value: b}, data.Field{Name: "c", Value: c})
		}
		first := build(rec(), rec())
		for i, pre := range []expr.Expr{implied(res, fieldsOf(first)), derived(res, first)} {
			if pre == nil {
				continue
			}
			checked[i]++
			for range 20 {
				a, b, c := rec(), rec(), rec()
				m := build(b, c)
				merged := data.Object(data.Field{Name: "a", Value: a}, data.Field{Name: "b", Value: b}, data.Field{Name: "c", Value: c})
				cpu := ctx.CPUSeconds
				ok := pre.Eval(ctx, m).Truthy()
				if ctx.CPUSeconds != cpu {
					t.Fatalf("check %v charged UDF cost", pre)
				}
				if !ok {
					rejected[i]++
					if res.Eval(ctx, merged).Truthy() {
						t.Fatalf("residual %v holds on %v, check %v rejects its build row %v", res, merged, pre, m)
					}
				}
			}
		}
	}
	t.Logf("checks %v rejected build rows %v", checked, rejected)
	if min(checked[0], checked[1]) < 200 || min(rejected[0], rejected[1]) < 2000 {
		t.Fatalf("vacuous: %d residuals gave a check, which rejected %d rows", checked, rejected)
	}
}

// nationTable writes nations 0..4: FRANCE, GERMANY, a null name, PERU,
// and one without a name field, each with seq nk+1.
func nationTable(env *mapreduce.Env) *dfs.File {
	w := env.FS.Create("nation")
	for nk, name := range []data.Value{data.String("FRANCE"), data.String("GERMANY"), data.Null(), data.String("PERU")} {
		w.Append(data.Object(data.Field{Name: "n_name", Value: name}, data.Field{Name: "nk", Value: data.Int(int64(nk))}, data.Field{Name: "seq", Value: data.Int(int64(nk + 1))}))
	}
	w.Append(data.Object(data.Field{Name: "nk", Value: data.Int(4)}, data.Field{Name: "seq", Value: data.Int(5)}))
	return w.Close()
}

// keyedTable writes n records {seq: i, <name>: f(i)} for each key.
func keyedTable(env *mapreduce.Env, file string, n int, keys map[string]func(i int) int) *dfs.File {
	w := env.FS.Create(file)
	for i := range n {
		fs := []data.Field{{Name: "seq", Value: data.Int(int64(i))}}
		for name, f := range keys {
			fs = append(fs, data.Field{Name: name, Value: data.Int(int64(f(i)))})
		}
		w.Append(data.Object(fs...))
	}
	return w.Close()
}

// q7Op is a Q7-shaped chain: probe rows l, filtered by a UDF, joined
// to nations n1 on l.snk, to customers c on l.ck and to nations n2 on
// c.nk, with Q7's residual on the last of them. order lists the builds
// in chain order; mutate may change residuals.
func q7Op(order []string, mutate func(steps map[string]*ChainStep)) *OpSpec {
	steps := map[string]*ChainStep{
		"n1": {Keys: []data.Path{data.MustParsePath("l.snk")}},
		"c":  {Keys: []data.Path{data.MustParsePath("l.ck")}},
		"n2": {Keys: []data.Path{data.MustParsePath("c.nk")}},
	}
	steps[order[len(order)-1]].Residual = q7Residual()
	if mutate != nil {
		mutate(steps)
	}
	op := &OpSpec{Kind: Chain, Source: &Source{Wrap: "l", Filter: call("keep_seq", "l.seq")}}
	for _, name := range order {
		st := *steps[name]
		st.Build = name
		op.Steps = append(op.Steps, st)
	}
	return op
}

// runQ7Chain runs a q7Op on env. Supplier nation 5 and customer nation
// 5 match no nation.
func runQ7Chain(t *testing.T, a arm, env *mapreduce.Env, op *OpSpec) ran {
	t.Helper()
	probe := keyedTable(env, "l", 600, map[string]func(int) int{"snk": func(i int) int { return i / 7 % 6 }, "ck": func(i int) int { return i % 40 }})
	nation := nationTable(env)
	builds := map[string]mapreduce.Broadcast{
		"n1": {File: nation, Wrap: "n1", KeyPaths: []data.Path{data.MustParsePath("n1.nk")}},
		"c": {File: keyedTable(env, "customer", 40, map[string]func(int) int{"ck": func(i int) int { return i }, "nk": func(i int) int { return i / 2 % 6 }}),
			Wrap: "c", KeyPaths: []data.Path{data.MustParsePath("c.ck")}},
		"n2": {File: nation, Wrap: "n2", KeyPaths: []data.Path{data.MustParsePath("n2.nk")}},
	}
	spec := mapreduce.Spec{Name: "q7", Output: "q7-out"}
	for _, st := range op.Steps {
		b := builds[st.Build]
		b.Name = st.Build
		spec.Broadcasts = append(spec.Broadcasts, a.bindBuildFile(b))
	}
	spec, err := a.bind(op, spec, probe)
	return mustRun(t, env, spec, err)
}

// TestPreMergeChainMatchesOracle: Q7-shaped chains whose first nation
// step drops matches before merging them emit the oracle chain's rows,
// and charge its UDF cost to the last bit, with the nation pair in
// either order — and so do chains where a UDF in the dropping step's
// own residual, in an intermediate step's residual or inside the
// implying residual keeps the step from dropping anything.
func TestPreMergeChainMatchesOracle(t *testing.T) {
	t.Parallel()
	udf := func(col string) expr.Expr { return call("keep_match", col) }
	for _, tc := range []struct {
		name   string
		order  []string
		mutate func(steps map[string]*ChainStep)
		drops  int // the step with a pre-merge check on its nation rows, or -1
	}{
		{"n1-first", []string{"n1", "c", "n2"}, nil, 0},
		{"n2-first", []string{"c", "n2", "n1"}, nil, 1},
		{"udf-in-intermediate-residual", []string{"n1", "c", "n2"}, func(s map[string]*ChainStep) { s["c"].Residual = udf("c.seq") }, -1},
		{"udf-in-own-residual", []string{"n1", "c", "n2"}, func(s map[string]*ChainStep) { s["n1"].Residual = udf("n1.seq") }, -1},
		{"udf-in-implying-residual", []string{"n1", "c", "n2"}, func(s map[string]*ChainStep) {
			or := s["n2"].Residual.(*expr.Or)
			for i, d := range or.Terms {
				or.Terms[i] = &expr.And{Terms: append([]expr.Expr{udf("c.seq")}, d.(*expr.And).Terms...)}
			}
		}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := differential(t, func(a arm, env *mapreduce.Env) ran { return runQ7Chain(t, a, env, q7Op(tc.order, tc.mutate)) })
			if got.OutRecords == 0 || got.totalCPU() == 0 {
				t.Fatalf("vacuous: %d rows, %v UDF cost", got.OutRecords, got.totalCPU())
			}
			pairs := map[[2]string]int{}
			for _, r := range got.Output.AllRecords() {
				pairs[[2]string{r.FieldOr("n1").FieldOr("n_name").Str(), r.FieldOr("n2").FieldOr("n_name").Str()}]++
			}
			if len(pairs) != 2 || pairs[[2]string{"FRANCE", "GERMANY"}] == 0 || pairs[[2]string{"GERMANY", "FRANCE"}] == 0 {
				t.Fatalf("nation pairs joined: %v", pairs)
			}
			op := q7Op(tc.order, tc.mutate)
			for i, pre := range checks(op.Steps) {
				alias := op.Steps[i].Build
				if drops := pre != nil && pre.bind(wrap(alias, data.Object())) != nil; drops != (i == tc.drops) {
					t.Errorf("step %d (%s) drops matches early: %v", i, alias, drops)
				}
			}
		})
	}
}
