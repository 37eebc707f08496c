package rowops

import (
	"testing"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/sqlparse"
)

func row(fields ...data.Field) data.Value { return data.Object(fields...) }

func mkRow(a, b int64) data.Value {
	return row(data.Field{Name: "t", Value: data.Object(
		data.Field{Name: "a", Value: data.Int(a)},
		data.Field{Name: "b", Value: data.Int(b)},
	)})
}

func TestProjectNamesAndStar(t *testing.T) {
	q := sqlparse.MustParse("SELECT t.a, t.b AS beta FROM t")
	ectx := &expr.Ctx{}
	out := Project(ectx, q.Select, mkRow(1, 2))
	if out.FieldOr("a").Int() != 1 || out.FieldOr("beta").Int() != 2 {
		t.Errorf("projected = %v", out)
	}
	star := sqlparse.MustParse("SELECT * FROM t")
	in := mkRow(1, 2)
	if !data.Equal(Project(ectx, star.Select, in), in) {
		t.Error("star should pass row through")
	}
}

func TestAggregateGroupAllFunctions(t *testing.T) {
	q := sqlparse.MustParse(`SELECT t.a, count(*), count(t.b) AS cb, sum(t.b) AS s,
		avg(t.b) AS av, min(t.b) AS mn, max(t.b) AS mx FROM t GROUP BY t.a`)
	group := []data.Value{mkRow(1, 10), mkRow(1, 20), mkRow(1, 30)}
	out := AggregateGroup(&expr.Ctx{}, q.Select, group)
	checks := map[string]data.Value{
		"a": data.Int(1), "count_star": data.Int(3), "cb": data.Int(3),
		"s": data.Double(60), "av": data.Double(20),
		"mn": data.Int(10), "mx": data.Int(30),
	}
	for name, want := range checks {
		if got := out.FieldOr(name); !data.Equal(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestAggregateNullHandling pins aggregates over a group with no
// non-null values: count 0, avg and min null, and sum 0.0 where SQL
// says NULL — a deviation DESIGN.md §6 "Known deviations" states.
func TestAggregateNullHandling(t *testing.T) {
	q := sqlparse.MustParse("SELECT count(t.m) AS c, sum(t.m) AS s, avg(t.m) AS a, min(t.m) AS mn FROM t GROUP BY t.a")
	// Rows lacking t.m entirely.
	group := []data.Value{mkRow(1, 1), mkRow(1, 2)}
	out := AggregateGroup(&expr.Ctx{}, q.Select, group)
	if out.FieldOr("c").Int() != 0 {
		t.Errorf("count of nulls = %v", out.FieldOr("c"))
	}
	if !out.FieldOr("a").IsNull() || !out.FieldOr("mn").IsNull() {
		t.Error("avg/min of empty should be null")
	}
	if out.FieldOr("s").Float() != 0 {
		t.Errorf("sum of nulls = %v", out.FieldOr("s"))
	}
}

func TestSortResolvesPathsAndAliases(t *testing.T) {
	q := sqlparse.MustParse("SELECT t.a, sum(t.b) AS total FROM t GROUP BY t.a ORDER BY total DESC, t.a")
	rows := []data.Value{
		row(data.Field{Name: "a", Value: data.Int(1)}, data.Field{Name: "total", Value: data.Double(5)}),
		row(data.Field{Name: "a", Value: data.Int(2)}, data.Field{Name: "total", Value: data.Double(9)}),
		row(data.Field{Name: "a", Value: data.Int(3)}, data.Field{Name: "total", Value: data.Double(9)}),
	}
	Sort(rows, q.OrderBy)
	if rows[0].FieldOr("a").Int() != 2 || rows[1].FieldOr("a").Int() != 3 || rows[2].FieldOr("a").Int() != 1 {
		t.Errorf("sorted order wrong: %v", rows)
	}
}

func TestSortStable(t *testing.T) {
	q := sqlparse.MustParse("SELECT t.a FROM t ORDER BY t.a")
	rows := []data.Value{
		row(data.Field{Name: "a", Value: data.Int(1)}, data.Field{Name: "tag", Value: data.String("x")}),
		row(data.Field{Name: "a", Value: data.Int(1)}, data.Field{Name: "tag", Value: data.String("y")}),
	}
	Sort(rows, q.OrderBy)
	if rows[0].FieldOr("tag").Str() != "x" {
		t.Error("equal keys should preserve input order")
	}
}

func TestGroupKey(t *testing.T) {
	q := sqlparse.MustParse("SELECT count(*) FROM t GROUP BY t.a, t.b")
	k1 := GroupKey(&expr.Ctx{}, q.GroupBy, mkRow(1, 2))
	k2 := GroupKey(&expr.Ctx{}, q.GroupBy, mkRow(1, 2))
	k3 := GroupKey(&expr.Ctx{}, q.GroupBy, mkRow(1, 3))
	if !data.Equal(k1, k2) || data.Equal(k1, k3) {
		t.Error("GroupKey equality broken")
	}
	if k1.Kind() != data.KindArray || k1.Len() != 2 {
		t.Errorf("key shape = %v", k1)
	}
}
