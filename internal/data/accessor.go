package data

// Accessor is a Path compiled against a sample record into positional
// field hints. Jobs compile their paths once (per job, not per record)
// and evaluate them with a single string equality check per step — the
// hinted position is verified against the actual field name, so records
// that deviate from the sample layout (heterogeneous inputs, missing
// fields) transparently fall back to the ordinary name lookup and the
// result is always identical to Path.Eval.
//
// Accessors are immutable after CompileAccessor and safe for concurrent
// use by parallel tasks of the same job.
type Accessor struct{ steps []accStep }

type accStep struct {
	step Step
	hint int // field position observed in the sample; -1 if unknown
}

// CompileAccessor resolves p against a sample record, remembering the
// position of each field step. A null or mismatching sample simply
// yields no hints; evaluation still works via the fallback lookup.
func CompileAccessor(p Path, sample Value) *Accessor {
	a := &Accessor{steps: make([]accStep, len(p))}
	cur := sample
	valid := true
	for i, st := range p {
		a.steps[i] = accStep{step: st, hint: -1}
		if !valid {
			continue
		}
		if st.IsIndex {
			cur = cur.Index(st.Index)
		} else if j := fieldIndexIn(cur.Fields(), st.Name); j >= 0 {
			a.steps[i].hint = j
			cur = cur.Fields()[j].Value
		} else {
			valid = false
			continue
		}
		if cur.IsNull() {
			valid = false
		}
	}
	return a
}

// Eval resolves the compiled path against a value with the same
// missing-data semantics as Path.Eval: absent fields and out-of-range
// indexes yield null. A field step on a non-object sees no fields.
func (a *Accessor) Eval(v Value) Value {
	for i := range a.steps {
		st := &a.steps[i]
		if st.step.IsIndex {
			v = v.Index(st.step.Index)
		} else {
			fs := v.Fields()
			if h := st.hint; h >= 0 && h < len(fs) && fs[h].Name == st.step.Name {
				v = fs[h].Value
			} else if j := fieldIndexIn(fs, st.step.Name); j >= 0 {
				v = fs[j].Value
			} else {
				return Value{}
			}
		}
		if v.IsNull() {
			return Value{}
		}
	}
	return v
}

// CompileAccessors compiles a set of paths against one sample record.
func CompileAccessors(paths []Path, sample Value) []*Accessor {
	out := make([]*Accessor, len(paths))
	for i, p := range paths {
		out[i] = CompileAccessor(p, sample)
	}
	return out
}

// CompositeKey evaluates join or grouping key columns over a row. A
// single accessor yields the bare value; several yield an array, so
// single- and multi-column keys hash consistently on both sides.
func CompositeKey(row Value, accs []*Accessor) Value {
	if len(accs) == 1 {
		return accs[0].Eval(row)
	}
	vals := make([]Value, len(accs))
	for i, a := range accs {
		vals[i] = a.Eval(row)
	}
	return Array(vals...)
}
