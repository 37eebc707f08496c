// Package jaql is the compiler glue between the parsed query, the
// cost-based optimizer, and the MapReduce engine — the role Jaql's
// compiler plays in the paper (§2, §3): it binds base tables, cuts a
// physical plan into MapReduce jobs (one job per repartition join, one
// map-only job per broadcast-join chain), builds the map/reduce
// functions for each job, and executes the post-join operators
// (grouping, ordering, projection) the optimizer does not consider.
package jaql

import (
	"fmt"
	"sort"

	"dyno/internal/dfs"
	"dyno/internal/plan"
)

// Catalog maps table names to their DFS files. Base tables store raw
// records; scans wrap them with the query alias.
type Catalog struct{ tables map[string]*dfs.File }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*dfs.File)} }

// Register adds or replaces a table.
func (c *Catalog) Register(name string, f *dfs.File) { c.tables[name] = f }

// Lookup finds a table by name.
func (c *Catalog) Lookup(name string) (*dfs.File, bool) {
	f, ok := c.tables[name]
	return f, ok
}

// Tables returns the sorted table names.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Bind attaches the catalog's files to the base relations of a join
// block.
func Bind(block *plan.JoinBlock, cat *Catalog) error {
	for _, r := range block.Rels {
		if !r.IsBase() || r.File != nil {
			continue
		}
		f, ok := cat.Lookup(r.Leaf.Table)
		if !ok {
			return fmt.Errorf("jaql: unknown table %q", r.Leaf.Table)
		}
		r.File = f
	}
	return nil
}
