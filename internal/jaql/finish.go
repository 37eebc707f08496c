package jaql

import (
	"fmt"

	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/physop"
	"dyno/internal/plan"
	"dyno/internal/rowops"
	"dyno/internal/sqlparse"
)

// FinishQuery executes the operators the cost-based optimizer does not
// consider (§5.1 "Executing the whole query"): grouping/aggregation as
// a MapReduce job over the join result, then client-side ordering,
// limiting, and projection (Jaql evaluates non-parallelized parts on
// the client). It returns the query's result rows.
func FinishQuery(env *mapreduce.Env, q *sqlparse.Query, final *plan.Rel, outPath string) ([]data.Value, error) {
	rows := final.File.AllRecords()
	if q.HasAggregates() || len(q.GroupBy) > 0 {
		agg, err := runAggregateJob(env, q, final, outPath)
		if err != nil {
			return nil, err
		}
		rows = agg
	} else {
		sel := q.Select
		if len(rows) > 0 {
			sel = physop.CompileSelect(q.Select, rows[0])
		}
		projected := make([]data.Value, 0, len(rows))
		ectx := &expr.Ctx{Reg: env.Reg}
		for _, row := range rows {
			projected = append(projected, rowops.Project(ectx, sel, row))
		}
		if ectx.Err != nil {
			return nil, ectx.Err
		}
		rows = projected
	}
	if len(q.OrderBy) > 0 {
		rowops.Sort(rows, q.OrderBy)
	}
	if q.Limit >= 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return rows, nil
}

// runAggregateJob groups the join output and computes the aggregates
// in a MapReduce job.
func runAggregateJob(env *mapreduce.Env, q *sqlparse.Query, final *plan.Rel, outPath string) ([]data.Value, error) {
	op := &physop.OpSpec{Kind: physop.Aggregate, GroupBy: q.GroupBy, Select: q.Select}
	spec, err := op.Bind(mapreduce.Spec{Name: outPath, Output: outPath}, final.File)
	if err != nil {
		return nil, err
	}
	result, err := mapreduce.Run(env, spec)
	if err != nil {
		return nil, err
	}
	return result.Output.AllRecords(), nil
}

// FormatRows renders result rows for display.
func FormatRows(rows []data.Value, max int) string {
	out := ""
	for i, r := range rows {
		if max > 0 && i >= max {
			out += fmt.Sprintf("... (%d more rows)\n", len(rows)-max)
			break
		}
		out += r.String() + "\n"
	}
	return out
}
