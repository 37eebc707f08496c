package optimizer

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dyno/internal/expr"
	"dyno/internal/plan"
	"dyno/internal/stats"
)

func mkRel(alias string, card, avgSize float64, ndv map[string]float64) *plan.Rel {
	cols := make(map[string]stats.ColStats, len(ndv))
	for c, v := range ndv {
		cols[c] = stats.ColStats{NDV: v}
	}
	return &plan.Rel{
		Name:    alias,
		Aliases: []string{alias},
		Leaf:    &plan.Leaf{Table: alias, Alias: alias},
		Stats:   stats.TableStats{Card: card, AvgRecSize: avgSize, Cols: cols},
	}
}

func eq(l, r string) expr.Expr {
	return &expr.Cmp{Op: expr.EQ, L: expr.NewCol(l), R: expr.NewCol(r)}
}

func cfgWithMmax(m float64) Config { return DefaultConfig(m) }

func TestTwoWayPrefersBroadcastForSmallBuild(t *testing.T) {
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("f", 1_000_000, 100, map[string]float64{"f.k": 1000}),
			mkRel("d", 1000, 100, map[string]float64{"d.k": 1000}),
		},
		JoinPreds: []expr.Expr{eq("f.k", "d.k")},
	}
	// Mmax admits only the dimension: the fact table cannot build.
	res, err := Optimize(block, cfgWithMmax(5e7))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Root.(*plan.Join)
	if j.Method != plan.BroadcastJoin {
		t.Fatalf("method = %v, want broadcast", j.Method)
	}
	// Build side must be the small relation.
	if got := j.Right.(*plan.Scan).Rel.Name; got != "d" {
		t.Errorf("build side = %s, want d", got)
	}
	// FK join cardinality: |f|·|d| / max(1000,1000) = |f|.
	if math.Abs(j.EstCard-1_000_000) > 1 {
		t.Errorf("EstCard = %v, want 1e6", j.EstCard)
	}
}

func TestTwoWayFallsBackToRepartitionWhenBuildTooBig(t *testing.T) {
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("a", 1_000_000, 100, map[string]float64{"a.k": 1000}),
			mkRel("b", 900_000, 100, map[string]float64{"b.k": 1000}),
		},
		JoinPreds: []expr.Expr{eq("a.k", "b.k")},
	}
	cfg := cfgWithMmax(1000 * 100) // neither side fits
	res, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Root.(*plan.Join).Method != plan.Repartition {
		t.Errorf("method = %v, want repartition", res.Root.(*plan.Join).Method)
	}
}

// starBlock builds the Q9'-shaped star: one fact, k small dimensions.
func starBlock(dims int, dimCard float64) *plan.JoinBlock {
	b := &plan.JoinBlock{}
	b.Rels = append(b.Rels, mkRel("f", 2_000_000, 120, map[string]float64{
		"f.k0": 1000, "f.k1": 1000, "f.k2": 1000, "f.k3": 1000,
	}))
	names := []string{"d0", "d1", "d2", "d3"}
	keys := []string{"f.k0", "f.k1", "f.k2", "f.k3"}
	for i := 0; i < dims; i++ {
		b.Rels = append(b.Rels, mkRel(names[i], dimCard, 80, map[string]float64{
			names[i] + ".k": dimCard,
		}))
		b.JoinPreds = append(b.JoinPreds, eq(keys[i], names[i]+".k"))
	}
	return b
}

func TestStarJoinAllBroadcastAndChained(t *testing.T) {
	block := starBlock(3, 500)
	res, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	joins := plan.Joins(res.Root)
	if len(joins) != 3 {
		t.Fatalf("joins = %d", len(joins))
	}
	chained := 0
	for _, j := range joins {
		if j.Method != plan.BroadcastJoin {
			t.Errorf("join %v not broadcast", j)
		}
		if j.Chained {
			chained++
		}
	}
	// Three consecutive broadcasts: the lower two are chained into the
	// top, so two carry the mark.
	if chained != 2 {
		t.Errorf("chained joins = %d, want 2", chained)
	}
}

func TestChainRespectsMemoryBudget(t *testing.T) {
	block := starBlock(3, 500) // each dim ~40 KB
	cfg := cfgWithMmax(70_000) // only one build fits at a time
	res, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Joins(res.Root) {
		if j.Chained {
			t.Errorf("no chain should fit in %v budget: %v", cfg.Mmax, plan.Format(res.Root))
		}
	}
}

func TestChainingReducesCost(t *testing.T) {
	block := starBlock(3, 500)
	on, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgWithMmax(1e9)
	cfg.DisableChaining = true
	off, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Root.Cost() >= off.Root.Cost() {
		t.Errorf("chained cost %v should beat unchained %v", on.Root.Cost(), off.Root.Cost())
	}
}

func TestJoinOrderPrefersSelectiveFirst(t *testing.T) {
	// f ⋈ sel (tiny output) ⋈ big: joining sel first shrinks the
	// intermediate, so the optimizer should do that.
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("f", 1_000_000, 100, map[string]float64{"f.a": 1_000_000, "f.b": 1000}),
			mkRel("sel", 10, 100, map[string]float64{"sel.a": 10}),
			mkRel("big", 500_000, 100, map[string]float64{"big.b": 1000}),
		},
		JoinPreds: []expr.Expr{eq("f.a", "sel.a"), eq("f.b", "big.b")},
	}
	res, err := Optimize(block, cfgWithMmax(1e6))
	if err != nil {
		t.Fatal(err)
	}
	joins := plan.Joins(res.Root)
	first := joins[0]
	names := strings.Join(first.Aliases(), ",")
	if !strings.Contains(names, "sel") {
		t.Errorf("first join should involve sel, got %s in\n%s", names, plan.Format(res.Root))
	}
}

func TestBushyPlanWhenCheaper(t *testing.T) {
	// Chain a—b—c—d where (a⋈b) and (c⋈d) are both tiny but any
	// left-deep order drags a huge intermediate.
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("a", 1_000_000, 100, map[string]float64{"a.k": 1_000_000, "a.j": 500}),
			mkRel("b", 1_000_000, 100, map[string]float64{"b.k": 1_000_000}),
			mkRel("c", 1_000_000, 100, map[string]float64{"c.m": 1_000_000, "c.j": 500}),
			mkRel("d", 1_000_000, 100, map[string]float64{"d.m": 1_000_000}),
		},
		JoinPreds: []expr.Expr{eq("a.k", "b.k"), eq("c.m", "d.m"), eq("a.j", "c.j")},
	}
	// a⋈b: 1e6 rows (key-key), c⋈d: 1e6 rows, (ab)⋈(cd) on j.
	// Left-deep alternatives like ((a⋈b)⋈c)⋈d blow up:
	// (a⋈b)⋈c on j = 1e6·1e6/500 = 2e9 rows.
	cfg := cfgWithMmax(1e6)
	res, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IsLeftDeep(res.Root) {
		t.Errorf("expected bushy plan:\n%s", plan.Format(res.Root))
	}
	// A left-deep order, ((a⋈b)⋈c)⋈d by repartition (no side fits
	// Mmax), costed with the search's own formulas. Every left-deep
	// order without a cartesian product builds a 2e9-row intermediate
	// over a and c.
	scan := func(i int) plan.Node { return &plan.Scan{Rel: block.Rels[i]} }
	join := func(l, r plan.Node) plan.Node { return &plan.Join{Method: plan.Repartition, Left: l, Right: r} }
	ld := join(join(join(scan(0), scan(1)), scan(2)), scan(3))
	if err := NewEstimator(block, cfg).Annotate(ld); err != nil {
		t.Fatal(err)
	}
	if res.Root.Cost() >= ld.Cost() {
		t.Errorf("bushy cost %v should beat left-deep %v:\n%s", res.Root.Cost(), ld.Cost(), plan.Format(ld))
	}
}

func TestCartesianAvoidance(t *testing.T) {
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("a", 1000, 100, map[string]float64{"a.k": 1000}),
			mkRel("b", 1000, 100, map[string]float64{"b.k": 1000, "b.m": 1000}),
			mkRel("c", 1000, 100, map[string]float64{"c.m": 1000}),
		},
		JoinPreds: []expr.Expr{eq("a.k", "b.k"), eq("b.m", "c.m")},
	}
	res, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Joins(res.Root) {
		if len(j.Conds) == 0 {
			t.Errorf("cartesian product in connected query:\n%s", plan.Format(res.Root))
		}
	}
}

func TestDisconnectedQueryStillPlans(t *testing.T) {
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("a", 100, 10, nil),
			mkRel("b", 100, 10, nil),
		},
	}
	res, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	j := res.Root.(*plan.Join)
	if len(j.Conds) != 0 {
		t.Error("disconnected join should have no conditions")
	}
	if math.Abs(j.EstCard-10_000) > 1 {
		t.Errorf("cartesian card = %v, want 1e4", j.EstCard)
	}
}

func TestResidualAttachesAtCoveringJoin(t *testing.T) {
	udf := &expr.Call{Name: "checkid", Args: []expr.Expr{expr.NewCol("a"), expr.NewCol("b")}}
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("a", 10_000, 100, map[string]float64{"a.k": 10_000}),
			mkRel("b", 10_000, 100, map[string]float64{"b.k": 10_000, "b.m": 100}),
			mkRel("c", 100, 100, map[string]float64{"c.m": 100}),
		},
		JoinPreds: []expr.Expr{eq("a.k", "b.k"), eq("b.m", "c.m")},
		NonLocal:  []expr.Expr{udf},
	}
	res, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, j := range plan.Joins(res.Root) {
		for _, r := range j.Residual {
			if strings.Contains(r.String(), "checkid") {
				found++
				al := strings.Join(j.Aliases(), ",")
				if !strings.Contains(al, "a") || !strings.Contains(al, "b") {
					t.Errorf("residual attached at join over %s", al)
				}
			}
		}
	}
	if found != 1 {
		t.Errorf("residual attached %d times, want exactly once:\n%s", found, plan.Format(res.Root))
	}
}

func TestNDVFallbackWhenStatsMissing(t *testing.T) {
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("a", 10_000, 100, nil),
			mkRel("b", 1000, 100, nil),
		},
		JoinPreds: []expr.Expr{eq("a.k", "b.k")},
	}
	res, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	// NDV fallback = 10% of card: max(1000, 100) = 1000 divisor.
	want := 10_000.0 * 1000 / 1000
	if math.Abs(res.Root.Card()-want) > 1 {
		t.Errorf("card = %v, want %v", res.Root.Card(), want)
	}
}

func TestSearchCountsAndSingleRelation(t *testing.T) {
	block := starBlock(3, 500)
	res, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExprsConsidered <= 0 || res.GroupsExpanded < 4 {
		t.Errorf("counters: considered=%d expanded=%d", res.ExprsConsidered, res.GroupsExpanded)
	}
	one := &plan.JoinBlock{Rels: []*plan.Rel{mkRel("a", 10, 10, nil)}}
	r1, err := Optimize(one, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r1.Root.(*plan.Scan); !ok {
		t.Errorf("single relation plan = %T", r1.Root)
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Optimize(&plan.JoinBlock{}, cfgWithMmax(1)); err == nil {
		t.Error("empty block should error")
	}
	big := &plan.JoinBlock{}
	for i := 0; i < 21; i++ {
		big.Rels = append(big.Rels, mkRel(string(rune('a'+i)), 10, 10, nil))
	}
	if _, err := Optimize(big, cfgWithMmax(1)); !errors.Is(err, errTooManyRelations) {
		t.Errorf("oversized block: got %v, want errTooManyRelations", err)
	}
	if _, err := Optimize(starBlock(3, 500), cfgWithMmax(1e9)); errors.Is(err, errTooManyRelations) {
		t.Error("small block must not report errTooManyRelations")
	}
}

func TestDeterministicPlans(t *testing.T) {
	block := starBlock(3, 500)
	a, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(block, cfgWithMmax(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Format(a.Root) != plan.Format(b.Root) {
		t.Error("optimizer output is not deterministic")
	}
}

func TestCostTreeMatchesWinnerCost(t *testing.T) {
	block := starBlock(2, 500)
	cfg := cfgWithMmax(1e9)
	cfg.DisableChaining = true
	res, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Root.Cost()
	got := costTree(res.Root, cfg)
	if math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Errorf("costTree = %v, memo winner = %v", got, want)
	}
}
