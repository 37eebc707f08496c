package procruntime

// Fleet exposes a runtime's fleet to the external tests.
func (r *Runtime) Fleet() *Fleet { return r.fleet }

// Workers returns the number of live workers.
func (f *Fleet) Workers() int { return f.liveWorkers() }
