package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dyno/internal/data"
)

func orderRec(i int64) data.Value {
	return data.Object(
		data.Field{Name: "o", Value: data.Object(
			data.Field{Name: "o_orderkey", Value: data.Int(i)},
			data.Field{Name: "o_custkey", Value: data.Int(i % 100)},
		)},
	)
}

func TestCollectorBasics(t *testing.T) {
	paths := []data.Path{
		data.MustParsePath("o.o_orderkey"),
		data.MustParsePath("o.o_custkey"),
	}
	c := NewCollector(paths, 1024)
	for i := int64(0); i < 1000; i++ {
		c.ObserveInputs(1)
		if i%2 == 0 { // 50% selectivity
			rec := orderRec(i)
			c.ObserveOutput(rec, rec.EncodedSize())
		}
	}
	p := c.Partial()
	if p.InRecords != 1000 || p.OutRecords != 500 {
		t.Fatalf("in=%d out=%d", p.InRecords, p.OutRecords)
	}
	if got := p.selectivity(); got != 0.5 {
		t.Errorf("Selectivity = %v", got)
	}
	if p.avgRecSize() <= 0 {
		t.Error("avgRecSize should be positive")
	}

	ts := p.Exact()
	if ts.Card != 500 {
		t.Errorf("Card = %v", ts.Card)
	}
	ck, ok := ts.Cols["o.o_orderkey"]
	if !ok {
		t.Fatal("missing o_orderkey stats")
	}
	if math.Abs(ck.NDV-500) > 25 {
		t.Errorf("orderkey NDV = %v, want ~500", ck.NDV)
	}
	cc, _ := ts.Cols["o.o_custkey"]
	if math.Abs(cc.NDV-50) > 5 {
		t.Errorf("custkey NDV = %v, want ~50 (even keys mod 100)", cc.NDV)
	}
}

func TestExtrapolateScalesCardAndNDV(t *testing.T) {
	paths := []data.Path{data.MustParsePath("o.o_orderkey")}
	c := NewCollector(paths, 1024)
	// Sample of 1000 inputs, 100 outputs (10% selectivity), keys unique.
	for i := int64(0); i < 1000; i++ {
		c.ObserveInputs(1)
		if i%10 == 0 {
			rec := orderRec(i)
			c.ObserveOutput(rec, rec.EncodedSize())
		}
	}
	// Full relation has 100_000 input records.
	ts := c.Partial().Extrapolate(100_000)
	if math.Abs(ts.Card-10_000) > 1 {
		t.Errorf("Card = %v, want 10000", ts.Card)
	}
	// NDV on the sample is ~100; linear extrapolation scales by
	// card/sampleOut = 100 → ~10_000, capped by card.
	ndv := ts.Cols["o.o_orderkey"].NDV
	if math.Abs(ndv-10_000) > 500 {
		t.Errorf("NDV = %v, want ~10000", ndv)
	}
	if ndv > ts.Card {
		t.Error("NDV must not exceed cardinality")
	}
}

func TestExtrapolateEmptyOutput(t *testing.T) {
	c := NewCollector(nil, 16)
	for i := 0; i < 50; i++ {
		c.ObserveInputs(1)
	}
	ts := c.Partial().Extrapolate(1000)
	if ts.Card != 0 {
		t.Errorf("Card = %v, want 0 for fully selective filter", ts.Card)
	}
}

func TestExtrapolateNeverBelowObserved(t *testing.T) {
	c := NewCollector(nil, 16)
	for i := int64(0); i < 10; i++ {
		c.ObserveInputs(1)
		rec := orderRec(i)
		c.ObserveOutput(rec, rec.EncodedSize())
	}
	// totalInput less than observed output (degenerate): card clamps to
	// observed.
	ts := c.Partial().Extrapolate(5)
	if ts.Card < 10 {
		t.Errorf("Card = %v, want >= observed 10", ts.Card)
	}
}

func TestMergePartials(t *testing.T) {
	paths := []data.Path{data.MustParsePath("o.o_orderkey")}
	var parts []*Partial
	for task := 0; task < 4; task++ {
		c := NewCollector(paths, 256)
		for i := int64(0); i < 250; i++ {
			c.ObserveInputs(1)
			rec := orderRec(int64(task)*250 + i)
			c.ObserveOutput(rec, rec.EncodedSize())
		}
		parts = append(parts, c.Partial())
	}
	merged := MergePartials(parts)
	if merged.InRecords != 1000 || merged.OutRecords != 1000 {
		t.Fatalf("merged in=%d out=%d", merged.InRecords, merged.OutRecords)
	}
	ts := merged.Exact()
	ck, _ := ts.Cols["o.o_orderkey"]
	if math.Abs(ck.NDV-1000) > 100 {
		t.Errorf("merged NDV = %v, want ~1000", ck.NDV)
	}
	// Merging nil partials is safe.
	if MergePartials([]*Partial{nil, parts[0]}).OutRecords != 250 {
		t.Error("nil partial should be skipped")
	}
}

func TestMergePartialsDisjointColumns(t *testing.T) {
	a := NewCollector([]data.Path{data.MustParsePath("o.x")}, 16)
	b := NewCollector([]data.Path{data.MustParsePath("o.y")}, 16)
	rec := data.Object(data.Field{Name: "o", Value: data.Object(
		data.Field{Name: "x", Value: data.Int(1)},
		data.Field{Name: "y", Value: data.Int(2)},
	)})
	a.ObserveOutput(rec, 10)
	b.ObserveOutput(rec, 10)
	m := MergePartials([]*Partial{a.Partial(), b.Partial()})
	ts := m.Exact()
	if _, ok := ts.Cols["o.x"]; !ok {
		t.Error("missing o.x")
	}
	if _, ok := ts.Cols["o.y"]; !ok {
		t.Error("missing o.y")
	}
}

func TestNullValuesSkippedInColStats(t *testing.T) {
	c := NewCollector([]data.Path{data.MustParsePath("o.maybe")}, 16)
	rec := data.Object(data.Field{Name: "o", Value: data.Object(
		data.Field{Name: "other", Value: data.Int(1)},
	)})
	c.ObserveOutput(rec, 5)
	ts := c.Partial().Exact()
	col, _ := ts.Cols["o.maybe"]
	if col.NDV != 0 {
		t.Errorf("null-only column stats = %+v", col)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore()
	sig := "scan(orders) AND o.o_totalprice > 100"
	if _, ok := s.Get(sig); ok {
		t.Error("fresh store should be empty")
	}
	ts := TableStats{Card: 42, AvgRecSize: 10}
	s.Put(sig, ts)
	got, ok := s.Get(sig)
	if !ok || got.Card != 42 {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	sigs := s.Signatures()
	if len(sigs) != 1 || sigs[0] != sig {
		t.Errorf("Signatures = %v", sigs)
	}
}

func TestTableStatsHelpers(t *testing.T) {
	ts := TableStats{
		Card:       100,
		AvgRecSize: 8,
		Cols:       map[string]ColStats{"a.x": {NDV: 10}},
	}
	if ts.SizeBytes() != 800 {
		t.Errorf("SizeBytes = %v", ts.SizeBytes())
	}
	str := ts.String()
	if !strings.Contains(str, "card=100") || !strings.Contains(str, "a.x{ndv=10}") {
		t.Errorf("String = %q", str)
	}
}

func TestSelectivityNoInput(t *testing.T) {
	p := &Partial{}
	if p.selectivity() != 1 {
		t.Error("no-input selectivity should be 1")
	}
	if p.avgRecSize() != 0 {
		t.Error("no-output avg size should be 0")
	}
}

func TestCollectorManyColumnsStress(t *testing.T) {
	var paths []data.Path
	for i := 0; i < 8; i++ {
		paths = append(paths, data.MustParsePath(fmt.Sprintf("t.c%d", i)))
	}
	c := NewCollector(paths, 64)
	for i := int64(0); i < 500; i++ {
		fields := make([]data.Field, 8)
		for j := 0; j < 8; j++ {
			fields[j] = data.Field{Name: fmt.Sprintf("c%d", j), Value: data.Int(i % int64(j+2))}
		}
		rec := data.Object(data.Field{Name: "t", Value: data.Object(fields...)})
		c.ObserveOutput(rec, rec.EncodedSize())
	}
	ts := c.Partial().Exact()
	for j := 0; j < 8; j++ {
		col, ok := ts.Cols[fmt.Sprintf("t.c%d", j)]
		if !ok {
			t.Fatalf("missing c%d", j)
		}
		want := float64(j + 2)
		if math.Abs(col.NDV-want) > 0.5 {
			t.Errorf("c%d NDV = %v, want %v", j, col.NDV, want)
		}
	}
}
