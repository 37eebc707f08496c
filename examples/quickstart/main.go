// Quickstart: build a tiny dataset, run a join query through DYNO's
// full pipeline (pilot runs → cost-based optimization → dynamic
// MapReduce execution), and print the result with the virtual-time
// breakdown.
package main

import (
	"fmt"
	"log"

	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/optimizer"
	"dyno/internal/runtime/simruntime"
)

func main() {
	// 1. A simulated cluster (14 workers, 140 map / 84 reduce slots —
	// the paper's testbed) over an in-memory DFS.
	ccfg := cluster.DefaultConfig()
	rt := simruntime.New(ccfg)
	fs, env := rt.FS(), rt.NewEnv(expr.NewRegistry())

	// 2. Two base tables: users and their clicks.
	users := fs.Create("users")
	for i := 0; i < 1000; i++ {
		users.Append(data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "country", Value: data.String([]string{"US", "DE", "JP"}[i%3])},
		))
	}
	clicks := fs.Create("clicks")
	for i := 0; i < 20000; i++ {
		clicks.Append(data.Object(
			data.Field{Name: "uid", Value: data.Int(int64(i % 1000))},
			data.Field{Name: "ms", Value: data.Int(int64(i * 7 % 500))},
		))
	}
	fs.SetByteScale(4 << 10) // present the ~700 KB of rows as a ~3 GB dataset
	cat := jaql.NewCatalog()
	cat.Register("users", users.Close())
	cat.Register("clicks", clicks.Close())

	// 3. The engine: pilot runs + cost-based join optimization +
	// runtime re-optimization, as in the paper.
	eng := core.NewEngine(env, cat, optimizer.DefaultConfig(float64(ccfg.SlotMemory)), core.DefaultOptions())

	res, err := eng.ExecuteSQL(`
		SELECT u.country, count(*) AS clicks, avg(c.ms) AS avg_latency
		FROM users u, clicks c
		WHERE u.id = c.uid AND c.ms < 250
		GROUP BY u.country
		ORDER BY clicks DESC`)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("chosen plan:")
	fmt.Print(res.FinalPlan)
	fmt.Printf("\nexecuted in %.1f virtual seconds (pilot runs %.1fs, %d MapReduce jobs)\n\n",
		res.TotalSec, res.PilotSec, res.Jobs)
	fmt.Println(jaql.FormatRows(res.Rows, 10))
}
