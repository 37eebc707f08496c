package experiments

import (
	"testing"

	"dyno/internal/baselines"
	"dyno/internal/naive"
	"dyno/internal/sqlparse"
	"dyno/internal/tpch"
)

// TestBatchDifferentialWorkload runs the full TPC-H query set through
// the DYNOPT engine and checks its rows against the naive
// relational-algebra oracle. Whether the map kernels match the
// record-at-a-time kernels they replaced is physop's differential
// (against the oracle kept in its tests); plans, job counts and virtual
// timelines are TestGolden's. CI runs this under -race, which also
// guards the batch layer's shared per-split caches and the shuffle's
// pooled buffers against cross-task sharing bugs.
func TestBatchDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential workload is slow")
	}
	for _, query := range tpch.QueryNames {
		t.Run(query, func(t *testing.T) {
			cfg := testConfig()
			got, env, err := run(baselines.VariantDynOpt, 100, cfg, query, nil)
			if err != nil {
				t.Fatal(err)
			}
			l, err := getLab(100, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Evaluate(sqlparse.MustParse(tpch.MustQuerySQL(query)), l.cat, env.Reg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s yields no rows at test scale; assertion vacuous", query)
			}
			if len(got.Rows) != len(want) {
				t.Fatalf("%d rows, oracle %d", len(got.Rows), len(want))
			}
			for i := range want {
				if !naive.ApproxEqual(got.Rows[i], want[i], 1e-9) {
					t.Fatalf("row %d:\n got %v\nwant %v", i, got.Rows[i], want[i])
				}
			}
		})
	}
}
