// Restaurants reproduces the paper's §4.1 motivating query Q1: find
// California restaurants with zip code 94301 that have positive
// reviews, joining restaurants (with a *nested address array* and two
// *correlated* predicates), reviews (filtered by a sentiment-analysis
// UDF), and tweets (checked by an identity UDF over the join).
//
// The example prints what a static optimizer would estimate for the
// restaurant leaf under the independence assumption next to what the
// pilot run measures, then executes the query dynamically.
package main

import (
	"fmt"
	"log"

	"dyno/internal/baselines"
	"dyno/internal/cluster"
	"dyno/internal/core"
	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/expr"
	"dyno/internal/jaql"
	"dyno/internal/optimizer"
	"dyno/internal/rewrite"
	"dyno/internal/runtime/simruntime"
	"dyno/internal/sqlparse"
)

const q1 = `
	SELECT rs.name
	FROM restaurant rs, review rv, tweet t
	WHERE rs.id = rv.rsid AND rv.tid = t.id
	AND rs.addr[0].zip = 94301 AND rs.addr[0].state = 'CA'
	AND sentanalysis(rv) = 'positive' AND checkid(rv, t)`

func main() {
	ccfg := cluster.DefaultConfig()
	rt := simruntime.New(ccfg)
	fs, env := rt.FS(), rt.NewEnv(expr.NewRegistry())
	registerUDFs(env.Reg)
	cat := buildTables(fs)
	fs.SetByteScale(8 << 10)

	// What a static optimizer believes: zip (1/16 of zips here) and
	// state (1/2) multiply under independence, although zip=94301
	// implies state=CA — the paper's correlation trap.
	q := sqlparse.MustParse(q1)
	compiled, err := rewrite.Compile(q)
	if err != nil {
		log.Fatal(err)
	}
	if err := jaql.Bind(compiled.Block, cat); err != nil {
		log.Fatal(err)
	}
	sc := baselines.NewStatsCatalog(env, cat)
	static, err := sc.LeafStats(compiled.Block.RelFor("rs").Leaf)
	if err != nil {
		log.Fatal(err)
	}

	eng := core.NewEngine(env, cat, optimizer.DefaultConfig(float64(ccfg.SlotMemory)), core.DefaultOptions())
	res, err := eng.ExecuteSQL(q1)
	if err != nil {
		log.Fatal(err)
	}

	var pilot float64
	for _, sig := range eng.Store.Signatures() {
		ts, _ := eng.Store.Get(sig)
		if _, ok := ts.Cols["rs.id"]; ok {
			pilot = ts.Card
		}
	}
	restaurants, _ := cat.Lookup("restaurant")
	truth := 0
	for _, rec := range restaurants.AllRecords() {
		addr := rec.FieldOr("addr").Index(0)
		if addr.FieldOr("zip").Int() == 94301 && addr.FieldOr("state").Str() == "CA" {
			truth++
		}
	}

	fmt.Println("filtered-restaurant cardinality (correlated zip/state predicates on a nested array):")
	fmt.Printf("  true value:          %d\n", truth)
	fmt.Printf("  static estimate:     %.0f   (nested addr[0].* paths are opaque to the profile,\n", static.Card)
	fmt.Println("                             so default selectivities multiply under independence)")
	fmt.Printf("  pilot-run estimate:  %.0f\n\n", pilot)
	fmt.Printf("query executed in %.1f virtual seconds (%d jobs, pilot runs %.1fs)\n\n",
		res.TotalSec, res.Jobs, res.PilotSec)
	fmt.Printf("%d positive-review restaurants in 94301, first few:\n%s",
		len(res.Rows), jaql.FormatRows(res.Rows, 8))
}

// registerUDFs installs sentanalysis and checkid. Their selectivities
// (30% positive reviews, 50% verified identities) are never revealed to
// any optimizer — only pilot runs and runtime statistics observe them.
func registerUDFs(reg *expr.Registry) {
	reg.Register(expr.UDF{
		Name:    "sentanalysis",
		CPUCost: 0.002, // sentiment analysis is expensive per review
		Fn: func(args []data.Value) data.Value {
			if data.Hash64(args[0].FieldOr("text"))%10 < 3 {
				return data.String("positive")
			}
			return data.String("negative")
		},
	})
	reg.Register(expr.UDF{
		Name:    "checkid",
		CPUCost: 0.001,
		Fn: func(args []data.Value) data.Value {
			rv, tw := args[0], args[1]
			return data.Bool((data.Hash64(rv.FieldOr("uid"))^data.Hash64(tw.FieldOr("uid")))%2 == 0)
		},
	})
}

func buildTables(fs *dfs.FS) *jaql.Catalog {
	cat := jaql.NewCatalog()
	states := []string{"CA", "NY"}
	// Restaurants: zips 94301..94308 are all CA; 10xxx are NY — zip
	// determines state.
	rs := fs.Create("restaurant")
	for i := 0; i < 800; i++ {
		var zip int64
		state := states[i%2]
		if state == "CA" {
			zip = 94301 + int64(i%8)
		} else {
			zip = 10001 + int64(i%8)
		}
		rs.Append(data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "name", Value: data.String(fmt.Sprintf("restaurant-%d", i))},
			data.Field{Name: "addr", Value: data.Array(
				data.Object(
					data.Field{Name: "zip", Value: data.Int(zip)},
					data.Field{Name: "state", Value: data.String(state)},
				),
			)},
		))
	}
	cat.Register("restaurant", rs.Close())

	rv := fs.Create("review")
	for i := 0; i < 6000; i++ {
		rv.Append(data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "rsid", Value: data.Int(int64(i % 800))},
			data.Field{Name: "tid", Value: data.Int(int64(i % 3000))},
			data.Field{Name: "uid", Value: data.Int(int64(i % 900))},
			data.Field{Name: "text", Value: data.String(fmt.Sprintf("review text %d", i))},
		))
	}
	cat.Register("review", rv.Close())

	tw := fs.Create("tweet")
	for i := 0; i < 3000; i++ {
		tw.Append(data.Object(
			data.Field{Name: "id", Value: data.Int(int64(i))},
			data.Field{Name: "uid", Value: data.Int(int64(i % 900))},
		))
	}
	cat.Register("tweet", tw.Close())
	return cat
}
