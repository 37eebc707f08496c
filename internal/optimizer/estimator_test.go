package optimizer

import (
	"math"
	"testing"

	"dyno/internal/expr"
	"dyno/internal/plan"
)

func estimatorBlock() *plan.JoinBlock {
	return &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("f", 100_000, 100, map[string]float64{"f.k": 1000, "f.m": 500}),
			mkRel("d", 1000, 100, map[string]float64{"d.k": 1000}),
			mkRel("e", 500, 100, map[string]float64{"e.m": 500}),
		},
		JoinPreds: []expr.Expr{eq("f.k", "d.k"), eq("f.m", "e.m")},
		NonLocal: []expr.Expr{
			&expr.Call{Name: "check", Args: []expr.Expr{expr.NewCol("f"), expr.NewCol("e")}},
		},
	}
}

func TestEstimatorAnnotateFillsCardsAndPreds(t *testing.T) {
	block := estimatorBlock()
	cfg := DefaultConfig(1e9)
	est := NewEstimator(block, cfg)
	// Hand-built left-deep tree: (f ⋈r d) ⋈r e.
	inner := &plan.Join{
		Method: plan.Repartition,
		Left:   &plan.Scan{Rel: block.Rels[0]},
		Right:  &plan.Scan{Rel: block.Rels[1]},
	}
	root := &plan.Join{
		Method: plan.Repartition,
		Left:   inner,
		Right:  &plan.Scan{Rel: block.Rels[2]},
	}
	if err := est.Annotate(root); err != nil {
		t.Fatal(err)
	}
	// f ⋈ d on k: 1e5·1e3/1000 = 1e5.
	if math.Abs(inner.EstCard-100_000) > 1 {
		t.Errorf("inner card = %v", inner.EstCard)
	}
	if len(inner.Conds) != 1 || len(inner.Residual) != 0 {
		t.Errorf("inner preds: conds=%v residual=%v", inner.Conds, inner.Residual)
	}
	// Root covers f,e: the residual UDF attaches there.
	if len(root.Conds) != 1 || len(root.Residual) != 1 {
		t.Errorf("root preds: conds=%v residual=%v", root.Conds, root.Residual)
	}
	if root.Cost() <= 0 {
		t.Error("cost not computed")
	}
}

func TestEstimatorAnnotateMatchesOptimizerProps(t *testing.T) {
	block := estimatorBlock()
	cfg := DefaultConfig(1e9)
	res, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Re-annotating the optimizer's own tree must reproduce its
	// cardinalities.
	wantCards := map[string]float64{}
	for _, j := range plan.Joins(res.Root) {
		wantCards[j.String()] = j.EstCard
	}
	est := NewEstimator(block, cfg)
	if err := est.Annotate(res.Root); err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Joins(res.Root) {
		if got := j.EstCard; math.Abs(got-wantCards[j.String()]) > 1e-6*math.Max(1, got) {
			t.Errorf("card drift for %s: %v vs %v", j.String(), got, wantCards[j.String()])
		}
	}
}

func TestEstimatorUnknownAlias(t *testing.T) {
	block := estimatorBlock()
	est := NewEstimator(block, DefaultConfig(1e9))
	bad := &plan.Join{
		Method: plan.Repartition,
		Left:   &plan.Scan{Rel: mkRel("zz", 1, 1, nil)},
		Right:  &plan.Scan{Rel: block.Rels[0]},
	}
	if err := est.Annotate(bad); err == nil {
		t.Error("unknown alias should error")
	}
}

func TestEstimatorHasEdge(t *testing.T) {
	block := estimatorBlock()
	est := NewEstimator(block, DefaultConfig(1e9))
	if !est.HasEdge(map[int]bool{0: true}, 1) {
		t.Error("f-d edge missing")
	}
	if est.HasEdge(map[int]bool{1: true}, 2) {
		t.Error("d-e should have no edge")
	}
}

func TestReplicationFactors(t *testing.T) {
	var cfg Config // 128 MB splits
	if got := replication(cfg, 64<<20); got != 1 {
		t.Errorf("small probe replication = %v", got)
	}
	if got := replication(cfg, 10*128<<20); got != 10 {
		t.Errorf("10-block probe replication = %v", got)
	}
	cfg.DCacheWorkers = 4
	if got := replication(cfg, 10*128<<20); got != 4 {
		t.Errorf("distributed cache should cap at workers: %v", got)
	}
}

func TestReplicationChangesBroadcastChoice(t *testing.T) {
	// A ~1.8 GB build over a 100 GB probe: per-task loading makes the
	// broadcast lose; the distributed cache makes it win.
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("big", 1_000_000, 100_000, map[string]float64{"big.k": 10_000}),
			mkRel("mid", 18_000, 100_000, map[string]float64{"mid.k": 10_000}),
		},
		JoinPreds: []expr.Expr{eq("big.k", "mid.k")},
	}
	cfg := DefaultConfig(2 << 30)
	perTask, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DCacheWorkers = 14
	cached, err := Optimize(block, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if perTask.Root.(*plan.Join).Method != plan.Repartition {
		t.Errorf("per-task loading should repartition:\n%s", plan.Format(perTask.Root))
	}
	if cached.Root.(*plan.Join).Method != plan.BroadcastJoin {
		t.Errorf("distributed cache should broadcast:\n%s", plan.Format(cached.Root))
	}
}

func TestDeepBuildBudgetIsDerated(t *testing.T) {
	// d1⋈d2 is estimated at 5e8 bytes (2.5M rows of 200 B, its upper
	// bound too). The one join inside it halves the build budget
	// (riskFactor 2): Mmax 1.2e9 admits it, Mmax 8e8 does not, though a
	// single relation of that size would fit.
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("f", 10_000_000, 100, map[string]float64{"f.a": 90_000}),
			mkRel("d1", 2_500_000, 100, map[string]float64{"d1.a": 90_000, "d1.j": 90_000}),
			mkRel("d2", 90_000, 100, map[string]float64{"d2.j": 90_000}),
		},
		JoinPreds: []expr.Expr{eq("f.a", "d1.a"), eq("d1.j", "d2.j")},
	}
	eligible := func(mmax float64) bool {
		m := newMemo(block, Config{Mmax: mmax})
		_, ok := m.joinCost(plan.BroadcastJoin, 0b001, 0b110, 0, 0, false)
		return ok
	}
	if !eligible(1.2e9) || eligible(8e8) {
		t.Errorf("pair build eligible at Mmax 1.2e9: %v, at 8e8: %v; want true, false",
			eligible(1.2e9), eligible(8e8))
	}
	if m := newMemo(block, Config{Mmax: 8e8}); m.propsFor(0b110).bytesUp() != 5e8 {
		t.Errorf("pair upper bound = %v bytes, want 5e8", m.propsFor(0b110).bytesUp())
	}
	broadcastsPair := func(cfg Config) bool {
		res, err := Optimize(block, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range plan.Joins(res.Root) {
			if j.Method == plan.BroadcastJoin {
				if r, ok := j.Right.(*plan.Join); ok && len(r.Aliases()) == 2 {
					return true
				}
			}
		}
		return false
	}
	if broadcastsPair(Config{Mmax: 8e8}) {
		t.Error("risk factor should derate the composite build out of eligibility")
	}
}

func TestCompositeKeyBackoff(t *testing.T) {
	// Two fully-correlated join conditions between l and ps: full
	// independence would estimate |l|·|ps| / (5000·500) = 6; backoff
	// keeps the estimate near |l|·|ps|/5000·(1/500)^0.5 ≈ 134.
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("l", 150_000, 100, map[string]float64{"l.pk": 5000, "l.sk": 500}),
			mkRel("ps", 10_000, 100, map[string]float64{"ps.pk": 5000, "ps.sk": 500}),
		},
		JoinPreds: []expr.Expr{eq("l.pk", "ps.pk"), eq("l.sk", "ps.sk")},
	}
	res, err := Optimize(block, DefaultConfig(1e12))
	if err != nil {
		t.Fatal(err)
	}
	card := res.Root.Card()
	indep := 150_000.0 * 10_000 / (5000 * 500)
	if card <= indep*2 {
		t.Errorf("backoff card %v should sit well above independence %v", card, indep)
	}
	if card >= 150_000*10_000/5000.0 {
		t.Errorf("backoff card %v should sit below single-condition %v", card, 150_000*10_000/5000.0)
	}
}

func TestUpperBoundBlocksOverextrapolatedBuilds(t *testing.T) {
	// The l⋈p' trap of Q9' at SF1000: ndv(l.pk) over-extrapolated to
	// ~|l| makes the expected join tiny, but the upper bound (min-NDV
	// divisor, p's exact 50) stays huge, so the subtree cannot become
	// a broadcast build.
	block := &plan.JoinBlock{
		Rels: []*plan.Rel{
			mkRel("l", 150_000, 6e6, map[string]float64{"l.pk": 144_000, "l.ok": 148_000}),
			mkRel("p", 50, 5e6, map[string]float64{"p.pk": 50}),
			mkRel("o", 400, 4e6, map[string]float64{"o.ok": 400}),
		},
		JoinPreds: []expr.Expr{eq("l.pk", "p.pk"), eq("l.ok", "o.ok")},
	}
	res, err := Optimize(block, DefaultConfig(2<<30))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Joins(res.Root) {
		if j.Method != plan.BroadcastJoin {
			continue
		}
		if r, ok := j.Right.(*plan.Join); ok {
			t.Errorf("multi-join subtree %v must not be a broadcast build (upper bound)", r.Aliases())
		}
	}
}

func TestCJobPrefersFlatChains(t *testing.T) {
	// With a per-job cost, a flat broadcast chain (one map job) should
	// beat nesting the tiny dimensions into their own jobs.
	block := starBlock(3, 500)
	res, err := Optimize(block, DefaultConfig(1e9/broadcastSafety))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.IsLeftDeep(res.Root) {
		t.Errorf("flat chain expected:\n%s", plan.Format(res.Root))
	}
	chained := 0
	for _, j := range plan.Joins(res.Root) {
		if j.Chained {
			chained++
		}
	}
	if chained != 2 {
		t.Errorf("chained = %d, want 2", chained)
	}
}

func TestMarkChainsCostAware(t *testing.T) {
	// A 0.8 GB build over a 100 GB probe: merging it into the probe's
	// job replicates the build ~800x; the chain pass must refuse.
	probe := &plan.Scan{Rel: mkRel("l", 1_000_000, 100_000, map[string]float64{"l.k": 1000, "l.m": 1000})}
	smallBuild := &plan.Scan{Rel: mkRel("s", 100, 1000, map[string]float64{"s.k": 100})}
	bigBuild := &plan.Scan{Rel: mkRel("b", 8000, 100_000, map[string]float64{"b.m": 8000})}
	inner := &plan.Join{Method: plan.BroadcastJoin, Left: probe, Right: smallBuild,
		EstCard: 1_000_000, EstBytes: 1e9}
	root := &plan.Join{Method: plan.BroadcastJoin, Left: inner, Right: bigBuild,
		EstCard: 1_000_000, EstBytes: 1.2e9}
	cfg := DefaultConfig(4 << 30)
	markChains(root, cfg)
	if inner.Chained {
		t.Error("merging a 0.8 GB build into a 100 GB probe's job should not pay off")
	}
	// With the distributed cache the replication is capped and the
	// chain becomes worthwhile.
	inner.Chained = false
	cfg.DCacheWorkers = 14
	markChains(root, cfg)
	if !inner.Chained {
		t.Error("under the distributed cache the chain should be taken")
	}
}
