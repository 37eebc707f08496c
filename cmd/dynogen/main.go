// Command dynogen generates the TPC-H-shaped dataset used by the
// evaluation and reports the resulting table inventory: row counts,
// virtual byte volumes, and split counts as the simulated cluster sees
// them.
package main

import (
	"flag"
	"fmt"
	"os"

	"dyno/internal/dfs"
	"dyno/internal/tpch"
)

func main() {
	var (
		sf    = flag.Float64("sf", 100, "scale factor (virtual volume = SF x 1 GB)")
		scale = flag.Float64("scale", 0.25, "row-count multiplier")
		seed  = flag.Int64("seed", 2014, "generation seed")
	)
	flag.Parse()

	fs := dfs.New()
	cat, err := tpch.Generate(fs, tpch.Config{SF: *sf, Scale: *scale, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynogen:", err)
		os.Exit(1)
	}
	fmt.Printf("TPC-H SF=%g (scale %g, seed %d): %.1f GB virtual, byte scale %.0fx\n\n",
		*sf, *scale, *seed, float64(fs.TotalSize())/(1<<30), fs.ByteScale())
	fmt.Printf("%-10s %12s %14s %8s\n", "table", "rows", "virtual bytes", "splits")
	for _, name := range cat.Tables() {
		f, _ := cat.Lookup(name)
		fmt.Printf("%-10s %12d %14d %8d\n", name, f.NumRecords(), f.Size(), f.NumBlocks())
	}
	fmt.Printf("\nqueries: %v\n", tpch.QueryNames)
}
