package procruntime_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/naive"
	"dyno/internal/optimizer"
	"dyno/internal/runtime"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/sqlparse"
)

// The end-to-end proof of the value order. DYNO re-plans a join between
// repartition and broadcast from one round to the next, so both must
// return the same rows for the same keys: the hash that places a key on
// a reducer, the sort that groups it there and the normalized key a
// broadcast table is probed by all have to agree with data.Compare. The
// key column holds the numbers where they once did not: 0 and -0.0, 2
// as int and double, 2^53 as int and double beside ±(2^53+1), +Inf, and
// NaN of both signs.

var orderKeys = []data.Value{
	data.Int(0), data.Double(math.Copysign(0, -1)), data.Int(2), data.Double(2),
	data.Double(1 << 53), data.Int(1 << 53), data.Int(1<<53 + 1), data.Int(-(1<<53 + 1)),
	data.Double(math.Inf(1)), data.Double(math.NaN()), data.Double(-math.NaN()),
}

// orderRows returns table l (every key twice) or r (every key once, in
// another order).
func orderRows(table string) []data.Value {
	n := len(orderKeys)
	rows, key := 2*n, func(i int) data.Value { return orderKeys[i%n] }
	if table == "r" {
		rows, key = n, func(i int) data.Value { return orderKeys[(5*i+3)%n] }
	}
	out := make([]data.Value, rows)
	for i := range out {
		out[i] = data.Object(data.Field{Name: "id", Value: data.Int(int64(i))}, data.Field{Name: "k", Value: key(i)})
	}
	return out
}

// runOrderQuery runs sql through DYNO on a fresh catalog in rt —
// repartition joins only, or broadcast allowed — and returns the result
// and the naive oracle's rows.
func runOrderQuery(t *testing.T, rt runtime.Runtime, sql string, repartition bool, bytesPerReducer int64) (*core.Result, []data.Value) {
	t.Helper()
	cat := jaql.NewCatalog()
	for _, name := range []string{"l", "r"} {
		w := rt.FS().Create("tables/" + name)
		w.AppendAll(orderRows(name))
		cat.Register(name, w.Close())
	}
	reg := expr.NewRegistry()
	env := rt.NewEnv(reg)
	env.BytesPerReducer = bytesPerReducer
	optCfg := optimizer.DefaultConfig(float64(env.ClusterConfig().SlotMemory))
	optCfg.DisableBroadcast = repartition
	opts := core.DefaultOptions()
	opts.K = 256
	eng, err := baselines.NewEngine(baselines.VariantDynOpt, env, cat, optCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := naive.Evaluate(sqlparse.MustParse(sql), cat, reg)
	if err != nil {
		t.Fatal(err)
	}
	return res, oracle
}

func renderRows(rows []data.Value) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestValueOrderEndToEnd joins l and r on k under repartition (on every
// reducer the cluster allows) and broadcast, on the simulator and on two
// proc workers: every arm returns the naive oracle's rows, byte for
// byte. Then a GROUP BY on the same column, through one reducer: its
// groups are data.Compare's equality classes, in data.Compare order.
func TestValueOrderEndToEnd(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.Workers = 2 // 24 reducers at most
	runtimes := map[string]func() runtime.Runtime{
		"sim":  func() runtime.Runtime { return simruntime.New(ccfg) },
		"proc": func() runtime.Runtime { return newProcRuntime(t, 2, ccfg, procruntime.Config{}, engineTweaks{}) },
	}
	// Pairs per class, l rows × r rows: {0, -0.0}, {2, 2.0}, {2^53, 2^53.0}
	// and {NaN, -NaN} 4 × 2 each; 2^53+1, -(2^53+1), +Inf 2 × 1 each.
	const wantPairs = 4*8 + 3*2
	var first string
	for _, name := range []string{"sim", "proc"} {
		for _, repartition := range []bool{true, false} {
			arm := fmt.Sprintf("%s/repartition=%v", name, repartition)
			res, oracle := runOrderQuery(t, runtimes[name](),
				"SELECT l.id AS lid, l.k AS lk, r.id AS rid, r.k AS rk FROM l, r WHERE l.k = r.k", repartition, 1)
			if (res.MapReduceJobs > 0) != repartition {
				t.Fatalf("%s: %d map-reduce join jobs, plan %s", arm, res.MapReduceJobs, res.FinalPlan)
			}
			got := renderRows(naive.SortForComparison(res.Rows))
			if want := renderRows(naive.SortForComparison(oracle)); got != want {
				t.Errorf("%s: rows differ from the oracle\ngot:\n%s\noracle:\n%s", arm, got, want)
			}
			if len(res.Rows) != wantPairs {
				t.Errorf("%s: %d rows, want %d", arm, len(res.Rows), wantPairs)
			}
			if first == "" {
				first = got
			} else if got != first {
				t.Errorf("%s: rows differ from sim/repartition=true\ngot:\n%s\nthen:\n%s", arm, got, first)
			}

			res, oracle = runOrderQuery(t, runtimes[name](),
				"SELECT l.k AS k, count(*) AS n FROM l, r WHERE l.k = r.k GROUP BY l.k", repartition, 0)
			// -(2^53+1), 0, 2, 2^53, 2^53+1, +Inf, NaN.
			wantN := []int64{2, 8, 8, 8, 2, 2, 8}
			if len(res.Rows) != len(wantN) || len(oracle) != len(wantN) {
				t.Fatalf("%s: %d groups, oracle %d, want %d:\n%s", arm, len(res.Rows), len(oracle), len(wantN), renderRows(res.Rows))
			}
			for i, row := range res.Rows {
				k := row.FieldOr("k")
				if i > 0 && data.Compare(res.Rows[i-1].FieldOr("k"), k) >= 0 {
					t.Errorf("%s: group %d (%v) does not follow group %d in Compare order", arm, i, k, i-1)
				}
				if n := row.FieldOr("n").Int(); n != wantN[i] || !data.Equal(k, oracle[i].FieldOr("k")) || n != oracle[i].FieldOr("n").Int() {
					t.Errorf("%s: group %d = %v, oracle %v, want count %d", arm, i, row, oracle[i], wantN[i])
				}
			}
		}
	}
}
