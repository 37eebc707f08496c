package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"dyno/internal/expr"
	"dyno/internal/mapreduce"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/wire"
	"dyno/internal/tpch"
)

// fleetWorkers is the proc workloads' fleet size: one worker per core
// of the 2-core reference machine.
const fleetWorkers = 2

// fleet is a procruntime controller plus in-process workers serving
// the real worker handler on loopback TCP — the arrangement ProcBench
// and the differential suite use, so every task crosses HTTP and the
// wire codec exactly as with cmd/dynoworker processes.
type fleet struct {
	ctl     *procruntime.Fleet
	servers []*http.Server
	urls    []string
	spill   string
}

// workerMeter is the worker-side view of the proc plane, taken by
// middleware around Worker.Handler(): handler busy time split by what
// the request carried, and a request count.
type workerMeter struct {
	taskBusyNs    atomic.Int64
	shuffleBusyNs atomic.Int64
	requests      atomic.Int64
}

func (m *workerMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(rw, r)
		d := int64(time.Since(start))
		m.requests.Add(1)
		switch {
		case strings.HasPrefix(r.URL.Path, "/task"):
			m.taskBusyNs.Add(d)
		case strings.HasPrefix(r.URL.Path, "/shuffle"):
			m.shuffleBusyNs.Add(d)
		}
	})
}

// startFleet brings up the controller and its workers. Block mirrors
// go under spillRoot so the benchmark writes only inside its
// checkout. meter, when non-nil, is installed around every worker's
// handler (traced runs only).
func startFleet(spillRoot string, meter *workerMeter) (*fleet, error) {
	if err := os.MkdirAll(spillRoot, 0o755); err != nil {
		return nil, err
	}
	spill, err := os.MkdirTemp(spillRoot, "spill-")
	if err != nil {
		return nil, err
	}
	// In-process workers do not heartbeat; an hour keeps them live for
	// any run the benchmark makes.
	ctl, err := procruntime.NewFleet(procruntime.Config{SpillDir: spill, StaleAfter: time.Hour})
	if err != nil {
		os.RemoveAll(spill)
		return nil, err
	}
	fl := &fleet{ctl: ctl, spill: spill}
	caps := wire.Caps{Codecs: []string{wire.CodecBinary, wire.CodecJSON}, Batch: true, PeerShuffle: true}
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.close()
			return nil, err
		}
		h := procruntime.NewWorker(newRegistry()).Handler()
		if meter != nil {
			h = meter.wrap(h)
		}
		srv := &http.Server{Handler: h}
		fl.servers = append(fl.servers, srv)
		go srv.Serve(ln)
		url := "http://" + ln.Addr().String()
		fl.urls = append(fl.urls, url)
		ctl.RegisterWorkerCaps(url, caps)
	}
	return fl, nil
}

func (fl *fleet) close() {
	fl.ctl.Close()
	for _, s := range fl.servers {
		s.Close()
	}
	os.RemoveAll(fl.spill)
}

// status sums the workers' GET /status counters.
func (fl *fleet) status() (procruntime.WorkerStatus, error) {
	var total procruntime.WorkerStatus
	for _, u := range fl.urls {
		resp, err := http.Get(u + "/status")
		if err != nil {
			return total, err
		}
		var st procruntime.WorkerStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return total, fmt.Errorf("worker status %s: %w", u, err)
		}
		total.BlockHits += st.BlockHits
		total.BlockMisses += st.BlockMisses
		total.TableHits += st.TableHits
		total.TableMisses += st.TableMisses
		total.ShuffleEvictions += st.ShuffleEvictions
	}
	return total, nil
}

// mirrorBytes is the size of the controller's block-mirror directory.
func (fl *fleet) mirrorBytes() int64 {
	var total int64
	filepath.WalkDir(fl.spill, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// newRegistry is the UDF registry every engine, worker and oracle
// evaluates with: the paper's default parameters.
func newRegistry() *expr.Registry {
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, tpch.DefaultUDFParams())
	return reg
}

// execMeter is the controller-side view of the proc plane: a
// decorator on mapreduce.Env.Exec that times every task from dispatch
// to decoded result.
type execMeter struct {
	inner mapreduce.TaskExecutor
	s     *stack // the tracer, and the operation the task belongs to
}

func (e *execMeter) ExecMap(m mapreduce.MapExec) (*mapreduce.MapExecOut, error) {
	id := e.s.tr.begin("procruntime.exec_map", e.s.curTop, e.s.curOp)
	out, err := e.inner.ExecMap(m)
	e.s.tr.end(id)
	return out, err
}

func (e *execMeter) ExecReduce(r mapreduce.ReduceExec) (*mapreduce.ReduceExecOut, error) {
	id := e.s.tr.begin("procruntime.exec_reduce", e.s.curTop, e.s.curOp)
	out, err := e.inner.ExecReduce(r)
	e.s.tr.end(id)
	return out, err
}

// RetireJob forwards job retirement so wrapping the executor does not
// switch off the fleet's shuffle GC.
func (e *execMeter) RetireJob(jobName string) {
	if r, ok := e.inner.(mapreduce.JobRetirer); ok {
		r.RetireJob(jobName)
	}
}
