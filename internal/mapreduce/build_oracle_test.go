package mapreduce

import (
	"dyno/internal/data"
	"dyno/internal/expr"
)

// OracleBuildHashTable is BuildHashTable as it was before a build became
// a one-partition shuffle through the operator's kernels, verbatim: a
// private filter → wrap → key → normalize loop over the blocks' records
// on one expression context. build_diff_test.go holds the kernel route
// to it.
func OracleBuildHashTable(reg *expr.Registry, b Broadcast, blocks [][]data.Value, vsize func(data.Value) int64) (*HashTable, error) {
	ht := &HashTable{keyPaths: b.KeyPaths, nkBuckets: make(map[string][]data.Value)}
	ectx := &expr.Ctx{Reg: reg}
	filter := b.Filter
	// When every filter column is rooted at the wrap alias, evaluate the
	// filter on the raw record before wrapping (identical semantics, see
	// expr.StripAlias) so dropped records never allocate the wrap object.
	var stripped expr.Expr
	if filter != nil && b.Wrap != "" {
		if s, ok := expr.StripAlias(filter, b.Wrap); ok {
			for _, recs := range blocks {
				if len(recs) > 0 {
					s = expr.Compile(s, recs[0])
					break
				}
			}
			stripped = s
			filter = nil
		}
	}
	var nkBuf []byte
	var keyAccs []*data.Accessor
	for _, recs := range blocks {
		for _, rec := range recs {
			if stripped != nil && !stripped.Eval(ectx, rec).Truthy() {
				continue
			}
			row := rec
			if b.Wrap != "" {
				row = data.ObjectFromSorted([]data.Field{{Name: b.Wrap, Value: rec}})
			}
			if keyAccs == nil {
				// Compile key paths (and the build filter) against the
				// first row; accessors verify positions per record, so
				// heterogeneous rows still resolve correctly.
				keyAccs = data.CompileAccessors(b.KeyPaths, row)
				if filter != nil {
					filter = expr.Compile(filter, row)
				}
			}
			if filter != nil && !filter.Eval(ectx, row).Truthy() {
				continue
			}
			ht.rows++
			if vsize != nil {
				ht.builtBytes += vsize(row)
			}
			k := CompositeKeyCompiled(row, keyAccs)
			if ht.nkBuckets != nil {
				nk, ok := data.AppendNormKey(nkBuf[:0], k)
				nkBuf = nk
				if ok {
					ht.nkBuckets[string(nk)] = append(ht.nkBuckets[string(nk)], row)
					ht.scanRows = append(ht.scanRows, row)
					continue
				}
				// Unencodable build key: demote the whole table to the
				// hash index so probe semantics stay uniform.
				ht.demote()
			}
			h := data.Hash64(k)
			ht.buckets[h] = append(ht.buckets[h], row)
		}
	}
	if ectx.Err != nil {
		return nil, ectx.Err
	}
	ht.prepCPU = ectx.CPUSeconds
	return ht, nil
}

// Charges returns what a job charges for the table: the virtual bytes
// of its retained rows and the one-time UDF cost of producing them.
func (h *HashTable) Charges() (builtBytes int64, prepCPU float64) { return h.builtBytes, h.prepCPU }
