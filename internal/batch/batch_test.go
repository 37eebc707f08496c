package batch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
)

// randValue draws from the adversarial value domain of the shuffle
// differential suites: every kind class, 0x00-escaped strings, -0.0,
// NaN, integers beyond ±2^53 (normalized keys with a residual tail), and
// nulls.
func randValue(rng *rand.Rand) data.Value {
	switch rng.Intn(13) {
	case 12:
		return data.Double(math.NaN())
	case 0:
		return data.Null()
	case 1:
		return data.Bool(rng.Intn(2) == 0)
	case 2:
		return data.Int(int64(rng.Intn(7) - 3))
	case 3:
		return data.Int(int64(1)<<53 + int64(rng.Intn(3))) // beyond exact float range
	case 4:
		return data.Int(-(int64(1)<<53 + int64(rng.Intn(3))))
	case 5:
		return data.Double(float64(rng.Intn(7)-3) / 2)
	case 6:
		return data.Double(math.Copysign(0, -1)) // -0.0
	case 7:
		return data.String("")
	case 8:
		return data.String("a\x00b" + string(rune('a'+rng.Intn(3))))
	case 9:
		return data.String("key" + fmt.Sprint(rng.Intn(5)))
	case 10:
		return data.Array(data.Int(int64(rng.Intn(3))), data.String("x"))
	default:
		return data.Object(data.Field{Name: "n", Value: data.Int(int64(rng.Intn(3)))})
	}
}

// Typed columns holding the numbers the order is exact about: ints
// around ±2^53 and at the extremes, doubles with NaN (both signs), ±0,
// ±Inf and 2^53.
var (
	edgeInts    = []int64{0, 2, 1 << 53, 1<<53 + 1, -(1 << 53), -(1<<53 + 1), math.MaxInt64, math.MinInt64}
	edgeDoubles = []float64{0, math.Copysign(0, -1), 2, 1 << 53, -(1 << 53), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1)}
)

// randRecords builds records with columns of assorted purity: a is
// pure int, b pure double, c pure string, d mixed numeric (the
// float-image trap domain), e fully mixed with nulls, f pure int and g
// pure double over the edge numbers.
func randRecords(rng *rand.Rand, n int) []data.Value {
	recs := make([]data.Value, n)
	for i := range recs {
		d := data.Int(int64(1)<<53 + int64(rng.Intn(2)))
		if rng.Intn(2) == 0 {
			d = data.Double(float64(int64(1) << 53))
		}
		recs[i] = data.Object(
			data.Field{Name: "a", Value: data.Int(int64(rng.Intn(10) - 5))},
			data.Field{Name: "b", Value: data.Double(float64(rng.Intn(10)-5) / 2)},
			data.Field{Name: "c", Value: data.String([]string{"x", "y", "a\x00b", ""}[rng.Intn(4)])},
			data.Field{Name: "d", Value: d},
			data.Field{Name: "e", Value: randValue(rng)},
			data.Field{Name: "f", Value: data.Int(edgeInts[rng.Intn(len(edgeInts))])},
			data.Field{Name: "g", Value: data.Double(edgeDoubles[rng.Intn(len(edgeDoubles))])},
		)
	}
	return recs
}

func col(p string) *expr.Col     { return expr.NewCol(p) }
func lit(v data.Value) *expr.Lit { return expr.NewLit(v) }
func cmp(op expr.CmpOp, l, r expr.Expr) *expr.Cmp {
	return &expr.Cmp{Op: op, L: l, R: r}
}

// predicates covering every evaluator arm: typed column vs literal for
// each op, column vs column, class mismatches, mixed columns, boolean
// combinators, constant literals.
func testPredicates() []expr.Expr {
	ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	var preds []expr.Expr
	for _, op := range ops {
		preds = append(preds,
			cmp(op, col("a"), lit(data.Int(0))),
			cmp(op, col("a"), lit(data.Double(0.5))),
			cmp(op, col("b"), lit(data.Double(-1))),
			cmp(op, col("b"), lit(data.Int(1))),
			cmp(op, col("c"), lit(data.String("a\x00b"))),
			cmp(op, col("d"), lit(data.Int(int64(1)<<53+1))),
			cmp(op, col("e"), lit(data.String("x"))),
			cmp(op, lit(data.Int(2)), col("a")), // literal on the left
			cmp(op, col("a"), col("b")),
			cmp(op, col("a"), col("d")),
			cmp(op, col("c"), col("e")),
			cmp(op, col("a"), lit(data.String("s"))), // class mismatch
			cmp(op, col("c"), lit(data.Int(3))),      // class mismatch
			cmp(op, col("a"), lit(data.Null())),      // null literal
			// Exact number order: int vs double at 2^53, ±0, NaN.
			cmp(op, col("f"), lit(data.Double(1<<53))),
			cmp(op, col("f"), lit(data.Int(1<<53+1))),
			cmp(op, col("f"), lit(data.Double(math.NaN()))),
			cmp(op, col("g"), lit(data.Int(1<<53+1))),
			cmp(op, col("g"), lit(data.Int(0))),
			cmp(op, col("g"), lit(data.Double(math.Copysign(0, -1)))),
			cmp(op, col("g"), lit(data.Double(-math.NaN()))),
			cmp(op, col("g"), lit(data.Double(math.Inf(1)))),
			cmp(op, col("f"), col("g")),
			cmp(op, col("g"), col("f")),
			cmp(op, col("g"), col("b")),
			cmp(op, col("g"), col("g")),
			cmp(op, col("d"), col("g")),
			cmp(op, col("e"), lit(data.Double(math.NaN()))),
		)
	}
	preds = append(preds,
		lit(data.Bool(true)),
		lit(data.Bool(false)),
		lit(data.Int(1)), // non-bool literal: never truthy
		&expr.And{Terms: []expr.Expr{
			cmp(expr.GE, col("a"), lit(data.Int(-2))),
			cmp(expr.LT, col("b"), lit(data.Double(1))),
		}},
		&expr.Or{Terms: []expr.Expr{
			cmp(expr.EQ, col("c"), lit(data.String("x"))),
			cmp(expr.GT, col("a"), lit(data.Int(2))),
			cmp(expr.EQ, col("e"), lit(data.Bool(true))),
		}},
		&expr.Not{E: cmp(expr.LT, col("a"), lit(data.Int(0)))},
		&expr.Not{E: &expr.Or{Terms: []expr.Expr{
			cmp(expr.EQ, col("e"), lit(data.Int(1))),
			&expr.Not{E: cmp(expr.NE, col("d"), lit(data.Double(float64(int64(1)<<53))))},
		}}},
	)
	return preds
}

// TestSelectMatchesRowEval is the core batch/record differential: for
// every supported predicate shape, the selection vector must pick
// exactly the rows on which per-record Eval is truthy.
func TestSelectMatchesRowEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ectx := &expr.Ctx{}
	for trial := 0; trial < 20; trial++ {
		recs := randRecords(rng, 64+rng.Intn(100))
		d := For(nil, recs)
		for _, pred := range testPredicates() {
			if !Supported(pred) {
				t.Fatalf("predicate %s should be supported", pred)
			}
			sel := d.Select(pred, pred.String())
			var want []int32
			for i, rec := range recs {
				if pred.Eval(ectx, rec).Truthy() {
					want = append(want, int32(i))
				}
			}
			if !reflect.DeepEqual(sel, want) && (len(sel) != 0 || len(want) != 0) {
				t.Fatalf("trial %d pred %s: batch sel %v, row-eval %v", trial, pred, sel, want)
			}
		}
	}
}

func TestSupportedRefusals(t *testing.T) {
	unsupported := []expr.Expr{
		&expr.Call{Name: "f"},
		&expr.Arith{Op: expr.Add, L: col("a"), R: lit(data.Int(1))},
		col("a"), // bare column in boolean position
		cmp(expr.EQ, col("a"), &expr.Arith{Op: expr.Add, L: col("b"), R: lit(data.Int(1))}),
		&expr.And{Terms: []expr.Expr{lit(data.Bool(true)), &expr.Call{Name: "f"}}},
		&expr.Not{E: &expr.Call{Name: "f"}},
		expr.Compile(cmp(expr.EQ, col("a"), lit(data.Int(1))),
			data.Object(data.Field{Name: "a", Value: data.Int(1)})), // compiled nodes
	}
	for _, e := range unsupported {
		if Supported(e) {
			t.Errorf("Supported(%s) = true, want refusal", e)
		}
	}
}

// TestKeysMatchesCompositeKey checks the vectorized key columns against
// the per-record reference: CompositeKey values, normalized encodings
// (empty for unencodable keys), and Hash64.
func TestKeysMatchesCompositeKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, paths := range [][]data.Path{
		{data.MustParsePath("t.a")},
		{data.MustParsePath("t.e")},
		{data.MustParsePath("t.d"), data.MustParsePath("t.c")},
	} {
		recs := randRecords(rng, 128)
		d := For(nil, recs)
		kc := d.Keys(KeySig("t", paths), "t", paths)
		hs := d.Hashes(kc)
		rows := d.Wrapped("t")
		var nkBuf []byte
		for i, row := range rows {
			var want data.Value
			if len(paths) == 1 {
				want = paths[0].Eval(row)
			} else {
				vals := make([]data.Value, len(paths))
				for j, p := range paths {
					vals[j] = p.Eval(row)
				}
				want = data.Array(vals...)
			}
			if !data.Equal(kc.Vals[i], want) {
				t.Fatalf("row %d: key %v, want %v", i, kc.Vals[i], want)
			}
			wantNK := ""
			if b, ok := data.AppendNormKey(nkBuf[:0], want); ok {
				wantNK = string(b)
			}
			if kc.NK[i] != wantNK {
				t.Fatalf("row %d: nk %q, want %q", i, kc.NK[i], wantNK)
			}
			if hs[i] != data.Hash64(want) {
				t.Fatalf("row %d: hash mismatch", i)
			}
		}
	}
}

// TestWrappedMatchesPerRecordWrap checks the slab-backed wrap against
// the per-record construction, including encoded sizes (virtual-time
// accounting depends on them).
func TestWrappedMatchesPerRecordWrap(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(3)), 50)
	d := For(nil, recs)
	rows := d.Wrapped("x")
	for i, rec := range recs {
		want := data.ObjectFromSorted([]data.Field{{Name: "x", Value: rec}})
		if !data.Equal(rows[i], want) {
			t.Fatalf("row %d: wrapped %v, want %v", i, rows[i], want)
		}
		if rows[i].EncodedSize() != want.EncodedSize() {
			t.Fatalf("row %d: encoded size %d, want %d", i, rows[i].EncodedSize(), want.EncodedSize())
		}
	}
	if got := d.Wrapped(""); &got[0] != &recs[0] {
		t.Fatal("empty alias must return the raw record slice")
	}
}

// TestMixedNumericStaysExact pins the float-image trap: a column
// mixing int 2^53 and 2^53+1 with doubles must compare exactly, not
// through float64 (where both round to 2^53).
func TestMixedNumericStaysExact(t *testing.T) {
	k := int64(1) << 53
	recs := []data.Value{
		data.Object(data.Field{Name: "v", Value: data.Int(k + 1)}),
		data.Object(data.Field{Name: "v", Value: data.Double(float64(k))}),
		data.Object(data.Field{Name: "v", Value: data.Int(k)}),
	}
	d := For(nil, recs)
	pred := cmp(expr.GT, col("v"), lit(data.Int(k)))
	sel := d.Select(pred, pred.String())
	// Only row 0 is strictly greater: data.Compare(int 2^53+1, int 2^53)
	// compares exactly; the double 2^53 and int 2^53 are equal.
	if !reflect.DeepEqual(sel, []int32{0}) {
		t.Fatalf("sel = %v, want [0]", sel)
	}
}

func TestForCachesPerSlot(t *testing.T) {
	recs := randRecords(rand.New(rand.NewSource(5)), 10)
	var slot atomic.Value
	d1 := For(&slot, recs)
	d2 := For(&slot, recs)
	if d1 != d2 {
		t.Fatal("For must return the cached image for the same slot")
	}
	if For(nil, recs) == d1 {
		t.Fatal("nil slot must build a fresh image")
	}
}

// TestKindClassMatchesCompare pins kindClassOf to data.Compare's
// cross-class ordering.
func TestKindClassMatchesCompare(t *testing.T) {
	samples := []data.Value{
		data.Null(), data.Bool(true), data.Int(1), data.Double(1.5),
		data.String("s"), data.Array(data.Int(1)),
		data.Object(data.Field{Name: "a", Value: data.Int(1)}),
	}
	for _, a := range samples {
		for _, b := range samples {
			ca, cb := kindClassOf(a.Kind()), kindClassOf(b.Kind())
			if ca != cb {
				want := data.Compare(a, b)
				got := data.CompareInt(int64(ca), int64(cb))
				if got != want {
					t.Fatalf("class order (%v,%v): %d, Compare %d", a, b, got, want)
				}
			}
		}
	}
}

// TestSelectionSetAlgebra exercises the merge/diff helpers directly.
func TestSelectionSetAlgebra(t *testing.T) {
	a := []int32{0, 2, 4, 6}
	b := []int32{1, 3, 7}
	if got := mergeSel(a, b); !reflect.DeepEqual(got, []int32{0, 1, 2, 3, 4, 6, 7}) {
		t.Fatalf("mergeSel = %v", got)
	}
	if got := diffSel([]int32{0, 1, 2, 3}, []int32{1, 3}); !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Fatalf("diffSel = %v", got)
	}
	if got := diffSel(a, a); got != nil {
		t.Fatalf("diffSel(a,a) = %v", got)
	}
	if got := mergeSel(nil, b); !reflect.DeepEqual(got, b) {
		t.Fatalf("mergeSel(nil,b) = %v", got)
	}
}
