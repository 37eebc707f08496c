package jaql

import (
	"testing"

	"dyno/internal/data"
	"dyno/internal/mapreduce"
	"dyno/internal/plan"
	"dyno/internal/sqlparse"
	"dyno/internal/stats"
)

// finalRel materializes rows as a relation for FinishQuery tests.
func finalRel(env *mapreduce.Env, rows []data.Value) *plan.Rel {
	w := env.FS.Create("final-input")
	w.AppendAll(rows)
	f := w.Close()
	return &plan.Rel{
		Name:    "result",
		Aliases: []string{"a"},
		File:    f,
		Stats:   stats.TableStats{Card: float64(len(rows))},
	}
}

func joinedRows(n int) []data.Value {
	out := make([]data.Value, n)
	for i := range out {
		out[i] = data.Object(data.Field{Name: "a", Value: data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "g", Value: data.Int(int64(i % 3))},
		)})
	}
	return out
}

func TestFinishQueryLimitZero(t *testing.T) {
	env := testEnv()
	q := sqlparse.MustParse("SELECT a.id FROM t a LIMIT 0")
	rows, err := FinishQuery(env, q, finalRel(env, joinedRows(10)), "tmp/final")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d, want 0", len(rows))
	}
}

func TestFinishQueryAggregateOverEmpty(t *testing.T) {
	env := testEnv()
	q := sqlparse.MustParse("SELECT a.g, count(*) FROM t a GROUP BY a.g")
	rows, err := FinishQuery(env, q, finalRel(env, nil), "tmp/final")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("aggregate over empty = %v", rows)
	}
	if _, err := env.FS.Open("tmp/final"); err != nil {
		t.Errorf("no grouping job output: %v", err)
	}
}

func TestFinishQueryAggregateDefaultOutPath(t *testing.T) {
	env := testEnv()
	q := sqlparse.MustParse("SELECT a.g, count(*) AS n FROM t a GROUP BY a.g")
	rows, err := FinishQuery(env, q, finalRel(env, joinedRows(9)), "tmp/final")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r.FieldOr("n").Int() != 3 {
			t.Errorf("group size = %v", r.FieldOr("n"))
		}
	}
}

func TestUnitKindString(t *testing.T) {
	if unitScan.String() != "scan" || unitRepartition.String() != "repartition" ||
		unitBroadcastChain.String() != "broadcast-chain" {
		t.Error("unitKind strings broken")
	}
}
