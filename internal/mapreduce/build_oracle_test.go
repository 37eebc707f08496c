package mapreduce

import (
	"dyno/internal/data"
	"dyno/internal/expr"
)

// OracleTable is the broadcast hash table as it was before every value
// had a normalized key, verbatim: a normalized-key index that demotes
// to data.Hash64 buckets with per-candidate data.Equal re-checks when a
// key does not encode, and an exhaustive scan for a probe key that does
// not. build_diff_test.go holds HashTable to it.
type OracleTable struct {
	nkBuckets  map[string][]data.Value // normalized key -> rows (scan order)
	scanRows   []data.Value            // all rows in scan order, for unencodable probes
	buckets    map[uint64][]data.Value // demoted: key hash -> candidate rows
	keyPaths   []data.Path
	rows       int
	builtBytes int64
	prepCPU    float64
}

// OracleBuildHashTable is BuildHashTable as it was before a build became
// a one-partition shuffle through the operator's kernels, verbatim: a
// private filter → wrap → key → normalize loop over the blocks' records
// on one expression context.
func OracleBuildHashTable(reg *expr.Registry, b Broadcast, blocks [][]data.Value, vsize func(data.Value) int64) (*OracleTable, error) {
	ht := &OracleTable{keyPaths: b.KeyPaths, nkBuckets: make(map[string][]data.Value)}
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
			k := data.CompositeKey(row, keyAccs)
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

// demote converts a partially built normalized-key index into the hash
// index, preserving scan order within each hash bucket.
func (h *OracleTable) demote() {
	h.buckets = make(map[uint64][]data.Value)
	for _, row := range h.scanRows {
		hh := data.Hash64(CompositeKey(row, h.keyPaths))
		h.buckets[hh] = append(h.buckets[hh], row)
	}
	h.nkBuckets = nil
	h.scanRows = nil
}

// Probe returns the build rows whose key equals k, in build scan order.
func (h *OracleTable) Probe(k data.Value) []data.Value {
	if h.nkBuckets != nil {
		var arr [48]byte
		if nk, ok := data.AppendNormKey(arr[:0], k); ok {
			return h.nkBuckets[string(nk)]
		}
		// Unencodable probe key: exhaustive scan in build order, matching
		// the hash index's results exactly.
		return h.Scan(k)
	}
	cands := h.buckets[data.Hash64(k)]
	if len(cands) == 0 {
		return nil
	}
	for i, r := range cands {
		if !data.Equal(CompositeKey(r, h.keyPaths), k) {
			// Collision: fall back to copying the true matches.
			out := make([]data.Value, 0, len(cands)-1)
			out = append(out, cands[:i]...)
			for _, r2 := range cands[i+1:] {
				if data.Equal(CompositeKey(r2, h.keyPaths), k) {
					out = append(out, r2)
				}
			}
			return out
		}
	}
	return cands
}

// Scan is a probe by definition: the rows of a table that never demoted
// whose key data.Equal's k, by exhaustive scan in build order.
func (h *OracleTable) Scan(k data.Value) []data.Value {
	var out []data.Value
	for _, r := range h.scanRows {
		if data.Equal(CompositeKey(r, h.keyPaths), k) {
			out = append(out, r)
		}
	}
	return out
}

// Rows returns the build side's row count.
func (h *OracleTable) Rows() int { return h.rows }

// Charges returns what a job charges for the table: the virtual bytes
// of its retained rows and the one-time UDF cost of producing them.
func (h *OracleTable) Charges() (builtBytes int64, prepCPU float64) { return h.builtBytes, h.prepCPU }

// Charges is OracleTable.Charges for the table under test.
func (h *HashTable) Charges() (builtBytes int64, prepCPU float64) { return h.builtBytes, h.prepCPU }

// Rows is OracleTable.Rows for the table under test.
func (h *HashTable) Rows() int { return len(h.rows) }

// CompositeKey evaluates the key columns over a row, uncompiled: the
// reference data.CompositeKey is held to.
func CompositeKey(row data.Value, paths []data.Path) data.Value {
	if len(paths) == 1 {
		return paths[0].Eval(row)
	}
	vals := make([]data.Value, len(paths))
	for i, p := range paths {
		vals[i] = p.Eval(row)
	}
	return data.Array(vals...)
}
