package procruntime

import (
	"path/filepath"
	"reflect"
	"testing"

	"dyno/internal/batch"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/physop"
	"dyno/internal/runtime/wire"
)

// TestWorkerRunsBothKernels: a worker runs the engine's own kernels. A
// scan whose predicate the batch layer can evaluate goes through the
// columnar kernel and leaves the split's columnar image on the cached
// block entry; the same selection phrased through a UDF call (which
// batch.Supported refuses) falls back to the per-record kernel over
// the same block — with identical rows, and the UDF's CPU charged once
// per record.
func TestWorkerRunsBothKernels(t *testing.T) {
	reg := expr.NewRegistry()
	reg.Register(expr.UDF{Name: "small", CPUCost: 0.25, Fn: func(args []data.Value) data.Value {
		return data.Bool(args[0].Int() < 40)
	}})
	w := NewWorker(reg)
	recs := make([]data.Value, 100)
	for i := range recs {
		recs[i] = data.Object(
			data.Field{Name: "pad", Value: data.String("x")},
			data.Field{Name: "v", Value: data.Int(int64(i))},
		)
	}
	block := filepath.Join(t.TempDir(), "b0.blk")
	if err := wire.WriteBlockFile(block, recs); err != nil {
		t.Fatal(err)
	}
	scan := func(filter expr.Expr) *wire.TaskResult {
		t.Helper()
		res := w.runTask(&wire.Task{Task: "t-m0", Kind: "map", Block: block,
			Op: &physop.OpSpec{Kind: physop.Scan, Source: &physop.Source{Wrap: "t", Filter: filter}}})
		if res.Err != "" {
			t.Fatal(res.Err)
		}
		return res
	}
	image := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		_, ok := w.blocks[block].aux.Load().(*batch.Data)
		return ok
	}

	viaCall := scan(&expr.Call{Name: "small", Args: []expr.Expr{expr.NewCol("t.v")}})
	if image() {
		t.Fatal("a Call predicate built a columnar image; it must run the per-record kernel")
	}
	if want := 0.25 * float64(len(recs)); viaCall.CPUMap != want || viaCall.CPUTotal != want {
		t.Errorf("per-record kernel charged CPUMap=%v CPUTotal=%v, want %v (one UDF call per record)", viaCall.CPUMap, viaCall.CPUTotal, want)
	}

	viaCmp := scan(&expr.Cmp{Op: expr.LT, L: expr.NewCol("t.v"), R: expr.NewLit(data.Int(40))})
	if !image() {
		t.Fatal("a batch-evaluable predicate left no columnar image on the cached block")
	}
	if viaCmp.CPUMap != 0 {
		t.Errorf("UDF-free scan charged CPUMap=%v", viaCmp.CPUMap)
	}
	if len(viaCmp.Rows) != 40 || !reflect.DeepEqual(rowStrings(viaCmp.Rows), rowStrings(viaCall.Rows)) {
		t.Errorf("columnar and per-record kernels disagree: %d vs %d rows", len(viaCmp.Rows), len(viaCall.Rows))
	}
}
