package tpch

import (
	"math"
	"testing"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/naive"
	"dyno/internal/sqlparse"
)

func genSmall(t *testing.T, sf float64) (*dfs.FS, catalog) {
	t.Helper()
	fs := dfs.New()
	cat, err := Generate(fs, Config{SF: sf, Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fs, cat
}

type catalog interface {
	Lookup(name string) (*dfs.File, bool)
	Tables() []string
}

func TestGenerateTableSizes(t *testing.T) {
	_, cat := genSmall(t, 10)
	counts := map[string]int64{}
	for _, name := range cat.Tables() {
		f, _ := cat.Lookup(name)
		counts[name] = f.NumRecords()
	}
	if counts["nation"] != 25 || counts["region"] != 5 {
		t.Errorf("fixed tables: %v", counts)
	}
	// Proportions: lineitem = 4× orders = 30× part.
	if counts["lineitem"] != 4*counts["orders"] {
		t.Errorf("lineitem %d vs orders %d", counts["lineitem"], counts["orders"])
	}
	if counts["lineitem"] != 30*counts["part"] {
		t.Errorf("lineitem %d vs part %d", counts["lineitem"], counts["part"])
	}
	if counts["lineitem"] != int64(600*10*0.2) {
		t.Errorf("lineitem rows = %d", counts["lineitem"])
	}
}

func TestVirtualVolumeMatchesSF(t *testing.T) {
	fs, _ := genSmall(t, 10)
	want := 10.0 * bytesPerSF
	got := float64(fs.TotalSize())
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("virtual volume = %g, want ~%g", got, want)
	}
}

func TestForeignKeysResolve(t *testing.T) {
	_, cat := genSmall(t, 5)
	get := func(name string) []data.Value {
		f, ok := cat.Lookup(name)
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		return f.AllRecords()
	}
	nations := map[int64]bool{}
	for _, n := range get("nation") {
		nations[n.FieldOr("n_nationkey").Int()] = true
		if n.FieldOr("n_regionkey").Int() >= regions {
			t.Error("n_regionkey out of range")
		}
	}
	suppliers := map[int64]bool{}
	for _, s := range get("supplier") {
		suppliers[s.FieldOr("s_suppkey").Int()] = true
		if !nations[s.FieldOr("s_nationkey").Int()] {
			t.Error("supplier with dangling nation")
		}
	}
	customers := map[int64]bool{}
	for _, c := range get("customer") {
		customers[c.FieldOr("c_custkey").Int()] = true
	}
	orders := map[int64]bool{}
	for _, o := range get("orders") {
		orders[o.FieldOr("o_orderkey").Int()] = true
		if !customers[o.FieldOr("o_custkey").Int()] {
			t.Error("order with dangling customer")
		}
	}
	parts := map[int64]bool{}
	for _, p := range get("part") {
		parts[p.FieldOr("p_partkey").Int()] = true
	}
	ps := map[[2]int64]bool{}
	for _, r := range get("partsupp") {
		pk, sk := r.FieldOr("ps_partkey").Int(), r.FieldOr("ps_suppkey").Int()
		if !parts[pk] || !suppliers[sk] {
			t.Error("partsupp with dangling keys")
		}
		ps[[2]int64{pk, sk}] = true
	}
	for _, l := range get("lineitem") {
		if !orders[l.FieldOr("l_orderkey").Int()] {
			t.Error("lineitem with dangling order")
		}
		pk, sk := l.FieldOr("l_partkey").Int(), l.FieldOr("l_suppkey").Int()
		if !ps[[2]int64{pk, sk}] {
			t.Fatalf("lineitem (partkey=%d, suppkey=%d) missing from partsupp", pk, sk)
		}
	}
}

func TestCorrelatedOrderPredicates(t *testing.T) {
	_, cat := genSmall(t, 5)
	f, _ := cat.Lookup("orders")
	var urgent, urgentShip, ship int
	total := 0
	for _, o := range f.AllRecords() {
		total++
		u := o.FieldOr("o_orderpriority").Str() == "1-URGENT"
		s := o.FieldOr("o_shippriority").Int() == 1
		if u {
			urgent++
		}
		if s {
			ship++
		}
		if u && s {
			urgentShip++
		}
	}
	if urgent == 0 {
		t.Fatal("no urgent orders generated")
	}
	// Perfect correlation: P(urgent ∧ ship) = P(urgent), while the
	// independence estimate P(urgent)·P(ship) ≈ 0.4·P(urgent).
	if urgentShip != urgent {
		t.Errorf("urgentShip=%d urgent=%d: predicates not correlated", urgentShip, urgent)
	}
	if ship <= urgent {
		t.Error("o_shippriority=1 should also cover 2-HIGH orders")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	fs1 := dfs.New()
	fs2 := dfs.New()
	c1, err := Generate(fs1, Config{SF: 2, Scale: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Generate(fs2, Config{SF: 2, Scale: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c1.Tables() {
		f1, _ := c1.Lookup(name)
		f2, _ := c2.Lookup(name)
		a, b := f1.AllRecords(), f2.AllRecords()
		if len(a) != len(b) {
			t.Fatalf("%s row counts differ", name)
		}
		for i := range a {
			if !data.Equal(a[i], b[i]) {
				t.Fatalf("%s row %d differs", name, i)
			}
		}
	}
}

func TestGenerateRejectsBadSF(t *testing.T) {
	if _, err := Generate(dfs.New(), Config{SF: 0}); err == nil {
		t.Error("SF=0 should fail")
	}
}

func TestAllQueriesParse(t *testing.T) {
	for _, name := range QueryNames {
		sql := MustQuerySQL(name)
		if _, err := sqlparse.Parse(sql); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
	if _, err := QuerySQL("Q99"); err == nil {
		t.Error("unknown query should error")
	}
}

func TestQueriesReturnRowsOnOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle evaluation of full workload is slow")
	}
	fs := dfs.New()
	cat, err := Generate(fs, Config{SF: 30, Scale: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := expr.NewRegistry()
	p := DefaultUDFParams()
	p.Q9DimSel = 0.5 // small data: keep dims populated
	RegisterUDFs(reg, p)
	for _, name := range QueryNames {
		q := sqlparse.MustParse(MustQuerySQL(name))
		rows, err := naive.Evaluate(q, cat, reg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) == 0 {
			t.Errorf("%s returns no rows on the oracle; workload degenerate", name)
		}
	}
}

// callUDF evaluates the registered UDF name on one argument.
func callUDF(t *testing.T, reg *expr.Registry, name string, arg data.Value) data.Value {
	t.Helper()
	ctx := &expr.Ctx{Reg: reg}
	v := (&expr.Call{Name: name, Args: []expr.Expr{expr.NewLit(arg)}}).Eval(ctx, data.Null())
	if ctx.Err != nil {
		t.Fatal(ctx.Err)
	}
	return v
}

func TestUDFSelectivityKnob(t *testing.T) {
	reg := expr.NewRegistry()
	p := DefaultUDFParams()
	p.Q9DimSel = 0.2
	RegisterUDFs(reg, p)
	kept := 0
	const n = 5000
	for i := 0; i < n; i++ {
		rec := data.Object(data.Field{Name: "p_partkey", Value: data.Int(int64(i))})
		if callUDF(t, reg, "q9_keep_part", rec).Truthy() {
			kept++
		}
	}
	got := float64(kept) / n
	if math.Abs(got-0.2) > 0.03 {
		t.Errorf("observed selectivity %v, want ~0.2", got)
	}
}

func TestUDFSelectivityExtremes(t *testing.T) {
	if keep(data.Int(1), 0, 1) {
		t.Error("sel 0 keeps nothing")
	}
	if !keep(data.Int(1), 1, 1) {
		t.Error("sel 1 keeps everything")
	}
}

func TestUDFsIndependentAcrossSalts(t *testing.T) {
	// The same key should not be systematically co-kept by different
	// UDFs.
	reg := expr.NewRegistry()
	p := DefaultUDFParams()
	p.Q9DimSel = 0.5
	RegisterUDFs(reg, p)
	agree := 0
	const n = 2000
	for i := 0; i < n; i++ {
		a := callUDF(t, reg, "q9_keep_part", data.Object(data.Field{Name: "p_partkey", Value: data.Int(int64(i))})).Truthy()
		b := callUDF(t, reg, "q9_keep_orders", data.Object(data.Field{Name: "o_orderkey", Value: data.Int(int64(i))})).Truthy()
		if a == b {
			agree++
		}
	}
	frac := float64(agree) / n
	if frac > 0.6 || frac < 0.4 {
		t.Errorf("salted UDFs agree %v of the time, want ~0.5", frac)
	}
}
