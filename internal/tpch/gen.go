// Package tpch generates the TPC-H-shaped data and queries of the
// paper's evaluation (§6.1). The generator preserves what drives plan
// choice — the eight tables' foreign-key structure, relative sizes,
// value domains, and the modified queries' UDFs and correlated
// predicates — while the row counts are scaled down for a single
// machine; the DFS byte-scale presents the data at the paper's
// 1 GB-per-scale-factor volume so split counts, shuffle sizes, and
// broadcast memory checks operate at cluster scale.
package tpch

import (
	"fmt"
	"math/rand"

	"dyno/internal/data"
	"dyno/internal/dfs"
	"dyno/internal/jaql"
)

// RowsPerSF is the row count of each table per unit of scale factor.
// TPC-H proportions are preserved approximately (lineitem : orders :
// partsupp : part : customer : supplier = 600 : 150 : 40 : 20 : 15 : 2).
var RowsPerSF = map[string]float64{
	"lineitem": 600,
	"orders":   150,
	"partsupp": 40,
	"part":     20,
	"customer": 15,
	"supplier": 2,
}

// Fixed-size tables.
const (
	nations = 25
	regions = 5
)

// bytesPerSF is the virtual dataset volume per scale-factor unit
// (TPC-H SF is roughly 1 GB of raw data).
const bytesPerSF = 1 << 30

// Config parameterizes the generator.
type Config struct {
	// SF is the paper's scale factor (100, 300, 1000).
	SF float64
	// Scale multiplies all row counts (1.0 = the defaults above);
	// benchmarks use a smaller value to keep iterations fast — the
	// virtual byte volume stays at SF × 1 GB either way.
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// rows returns the generated row count for a table.
func (c Config) rows(table string) int {
	scale := c.Scale
	if scale <= 0 {
		scale = 1
	}
	switch table {
	case "nation":
		return nations
	case "region":
		return regions
	}
	return max(int(RowsPerSF[table]*c.SF*scale), 1)
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nationNames = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
	"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
	"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
	"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
	"UNITED STATES",
}

var partTypes = []string{
	"ECONOMY ANODIZED STEEL", "LARGE BRUSHED BRASS", "STANDARD POLISHED TIN",
	"SMALL PLATED COPPER", "MEDIUM BURNISHED NICKEL", "PROMO BURNISHED STEEL",
}

var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var returnFlags = []string{"R", "A", "N"}

// Generate writes the eight tables into the filesystem and registers
// them in a fresh catalog. It also sets the DFS byte scale so the
// dataset presents SF × 1 GB of virtual data.
func Generate(fs *dfs.FS, cfg Config) (*jaql.Catalog, error) {
	if cfg.SF <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	tables := map[string][]data.Value{
		"region":   genRegion(),
		"nation":   genNation(rng),
		"supplier": genSupplier(cfg, rng),
		"customer": genCustomer(cfg, rng),
		"part":     genPart(cfg, rng),
		"partsupp": genPartsupp(cfg, rng),
		"orders":   genOrders(cfg, rng),
		"lineitem": genLineitem(cfg, rng),
	}
	var rawBytes int64
	for _, recs := range tables {
		for _, r := range recs {
			rawBytes += r.EncodedSize() + 1
		}
	}
	// Present the paper's data volume: virtual = SF × 1 GB.
	fs.SetByteScale(cfg.SF * bytesPerSF / float64(rawBytes))
	cat := jaql.NewCatalog()
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		w := fs.Create("tpch/" + name)
		w.AppendAll(tables[name])
		cat.Register(name, w.Close())
	}
	return cat, nil
}

func genRegion() []data.Value {
	out := make([]data.Value, regions)
	for i := range out {
		out[i] = data.Object(
			data.Field{Name: "r_regionkey", Value: data.Int(int64(i))},
			data.Field{Name: "r_name", Value: data.String(regionNames[i])},
		)
	}
	return out
}

func genNation(rng *rand.Rand) []data.Value {
	out := make([]data.Value, nations)
	for i := range out {
		out[i] = data.Object(
			data.Field{Name: "n_nationkey", Value: data.Int(int64(i))},
			data.Field{Name: "n_name", Value: data.String(nationNames[i])},
			data.Field{Name: "n_regionkey", Value: data.Int(int64(i % regions))},
		)
	}
	return out
}

func genSupplier(cfg Config, rng *rand.Rand) []data.Value {
	n := cfg.rows("supplier")
	out := make([]data.Value, n)
	for i := range out {
		out[i] = data.Object(
			data.Field{Name: "s_suppkey", Value: data.Int(int64(i))},
			data.Field{Name: "s_name", Value: data.String(fmt.Sprintf("Supplier#%09d", i))},
			data.Field{Name: "s_nationkey", Value: data.Int(int64(rng.Intn(nations)))},
			data.Field{Name: "s_acctbal", Value: data.Double(float64(rng.Intn(1_100_000))/100 - 1000)},
			data.Field{Name: "s_comment", Value: data.String(comment(rng, 5))},
		)
	}
	return out
}

func genCustomer(cfg Config, rng *rand.Rand) []data.Value {
	n := cfg.rows("customer")
	out := make([]data.Value, n)
	for i := range out {
		out[i] = data.Object(
			data.Field{Name: "c_custkey", Value: data.Int(int64(i))},
			data.Field{Name: "c_name", Value: data.String(fmt.Sprintf("Customer#%09d", i))},
			data.Field{Name: "c_nationkey", Value: data.Int(int64(rng.Intn(nations)))},
			data.Field{Name: "c_acctbal", Value: data.Double(float64(rng.Intn(1_100_000))/100 - 1000)},
			data.Field{Name: "c_phone", Value: data.String(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+rng.Intn(25), rng.Intn(1000), rng.Intn(1000), rng.Intn(10000)))},
			data.Field{Name: "c_comment", Value: data.String(comment(rng, 6))},
		)
	}
	return out
}

func genPart(cfg Config, rng *rand.Rand) []data.Value {
	n := cfg.rows("part")
	out := make([]data.Value, n)
	for i := range out {
		out[i] = data.Object(
			data.Field{Name: "p_partkey", Value: data.Int(int64(i))},
			data.Field{Name: "p_name", Value: data.String(fmt.Sprintf("part %d %s", i, comment(rng, 2)))},
			data.Field{Name: "p_mfgr", Value: data.String(fmt.Sprintf("Manufacturer#%d", 1+rng.Intn(5)))},
			data.Field{Name: "p_type", Value: data.String(partTypes[rng.Intn(len(partTypes))])},
			data.Field{Name: "p_size", Value: data.Int(int64(1 + rng.Intn(50)))},
			data.Field{Name: "p_retailprice", Value: data.Double(900 + float64(i%200)/10)},
		)
	}
	return out
}

// psSupp deterministically maps a (part, slot) pair to its supplier,
// shared by the partsupp and lineitem generators so that every
// lineitem's (l_partkey, l_suppkey) pair exists in partsupp — the
// referential structure Q9's two-column join relies on.
func psSupp(pk, j, supps int) int { return (pk*31 + j*7303) % supps }

func genPartsupp(cfg Config, rng *rand.Rand) []data.Value {
	n := cfg.rows("partsupp")
	parts := cfg.rows("part")
	supps := cfg.rows("supplier")
	out := make([]data.Value, n)
	for i := range out {
		pk, j := i%parts, i/parts
		out[i] = data.Object(
			data.Field{Name: "ps_partkey", Value: data.Int(int64(pk))},
			data.Field{Name: "ps_suppkey", Value: data.Int(int64(psSupp(pk, j, supps)))},
			data.Field{Name: "ps_availqty", Value: data.Int(int64(1 + rng.Intn(9999)))},
			data.Field{Name: "ps_supplycost", Value: data.Double(1 + float64(rng.Intn(99900))/100)},
		)
	}
	return out
}

func genOrders(cfg Config, rng *rand.Rand) []data.Value {
	n := cfg.rows("orders")
	custs := cfg.rows("customer")
	out := make([]data.Value, n)
	for i := range out {
		prio := priorities[rng.Intn(len(priorities))]
		// The paper's correlated predicate pair (found via CORDS):
		// o_shippriority is 1 exactly for urgent/high priority orders,
		// so P(prio='1-URGENT' ∧ ship=1) = P(prio='1-URGENT'), while
		// independence estimates P(prio) × P(ship) — a 2.5x
		// underestimate.
		ship := int64(0)
		if prio == "1-URGENT" || prio == "2-HIGH" {
			ship = 1
		}
		out[i] = data.Object(
			data.Field{Name: "o_orderkey", Value: data.Int(int64(i))},
			data.Field{Name: "o_custkey", Value: data.Int(int64(rng.Intn(custs)))},
			data.Field{Name: "o_totalprice", Value: data.Double(1000 + float64(rng.Intn(45000000))/100)},
			data.Field{Name: "o_orderdate", Value: data.Int(date(rng))},
			data.Field{Name: "o_orderpriority", Value: data.String(prio)},
			data.Field{Name: "o_shippriority", Value: data.Int(ship)},
		)
	}
	return out
}

func genLineitem(cfg Config, rng *rand.Rand) []data.Value {
	n := cfg.rows("lineitem")
	orders := cfg.rows("orders")
	parts := cfg.rows("part")
	supps := cfg.rows("supplier")
	psPerPart := max(cfg.rows("partsupp")/parts, 1)
	out := make([]data.Value, n)
	for i := range out {
		pk := rng.Intn(parts)
		out[i] = data.Object(
			data.Field{Name: "l_orderkey", Value: data.Int(int64(i % orders))},
			data.Field{Name: "l_partkey", Value: data.Int(int64(pk))},
			data.Field{Name: "l_suppkey", Value: data.Int(int64(psSupp(pk, rng.Intn(psPerPart), supps)))},
			data.Field{Name: "l_linenumber", Value: data.Int(int64(i/orders + 1))},
			data.Field{Name: "l_quantity", Value: data.Int(int64(1 + rng.Intn(50)))},
			data.Field{Name: "l_extendedprice", Value: data.Double(1000 + float64(rng.Intn(9000000))/100)},
			data.Field{Name: "l_discount", Value: data.Double(float64(rng.Intn(11)) / 100)},
			data.Field{Name: "l_tax", Value: data.Double(float64(rng.Intn(9)) / 100)},
			data.Field{Name: "l_returnflag", Value: data.String(returnFlags[rng.Intn(3)])},
			data.Field{Name: "l_shipdate", Value: data.Int(date(rng))},
		)
	}
	return out
}

// date produces YYYYMMDD ints in 1992-1998, as TPC-H does.
func date(rng *rand.Rand) int64 {
	y := 1992 + rng.Intn(7)
	m := 1 + rng.Intn(12)
	d := 1 + rng.Intn(28)
	return int64(y*10000 + m*100 + d)
}

var words = []string{
	"furiously", "quick", "pending", "silent", "ironic", "express",
	"deposits", "accounts", "requests", "packages", "theodolites",
}

func comment(rng *rand.Rand, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += words[rng.Intn(len(words))]
	}
	return out
}
