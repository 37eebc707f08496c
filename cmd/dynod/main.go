// Command dynod runs the DYNO query service: a long-lived daemon
// answering many queries concurrently over HTTP/JSON. Queries route by
// normalized SQL onto independent shards (each owning its own
// simulated cluster, DFS, and TPC-H catalog); repeats are served from
// the result cache without executing, concurrent identical queries
// coalesce onto one in-flight execution, and everything else runs full
// DYNOPT, reusing the pilot-run statistics of earlier queries that
// share its leaf expressions.
//
// Usage:
//
//	dynod -addr :8642 -sf 10 -scale 0.05 -shards 4
//	curl -s localhost:8642/query -d '{"query":"Q8p","maxRows":3}'
//	curl -s localhost:8642/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dyno/internal/cluster"
	"dyno/internal/runtime"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8642", "listen address")
		sf          = flag.Float64("sf", 10, "TPC-H scale factor")
		scale       = flag.Float64("scale", 0.05, "row-count multiplier")
		seed        = flag.Int64("seed", 2014, "generation seed")
		maxInflight = flag.Int("max-inflight", 4, "queries executing concurrently")
		maxQueue    = flag.Int("max-queue", 16, "queries waiting for admission")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-query wall-clock budget (0 disables)")
		shards      = flag.Int("shards", 1, "independent shards queries are routed across by normalized SQL")
		resultSize  = flag.Int("result-cache-size", 0, "result cache entries per shard (0 = default)")
		workers     = flag.Int("workers", 0, "cluster workers (0 = paper default)")
		runtimeName = flag.String("runtime", "sim", "execution backend: sim (in-process simulator) | proc (dynoworker processes)")
		ctrlAddr    = flag.String("controller-addr", "127.0.0.1:0", "proc backend: controller listen address for worker registration")
		minWorkers  = flag.Int("min-workers", 1, "proc backend: workers to wait for before serving")
		workerWait  = flag.Duration("worker-wait", 60*time.Second, "proc backend: how long to wait for -min-workers")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	cfg := server.DefaultConfig()
	cfg.SF = *sf
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.MaxInFlight = *maxInflight
	cfg.MaxQueue = *maxQueue
	cfg.QueryTimeout = *timeout
	cfg.Shards = *shards
	cfg.ResultCacheSize = *resultSize
	cfg.Workers = *workers

	var fleet *procruntime.Fleet
	switch *runtimeName {
	case "sim":
	case "proc":
		var err error
		fleet, err = procruntime.NewFleet(procruntime.Config{
			Addr: *ctrlAddr,
			Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			fail(err)
		}
		defer fleet.Close()
		fmt.Printf("dynod: proc controller listening at %s (start workers with: dynoworker -controller %s)\n",
			fleet.URL(), fleet.URL())
		cfg.NewRuntime = func(ccfg cluster.Config) (runtime.Runtime, error) {
			return procruntime.New(fleet, ccfg), nil
		}
		if *minWorkers > 0 {
			fmt.Printf("dynod: waiting for %d worker(s)...\n", *minWorkers)
			if err := fleet.WaitForWorkers(*minWorkers, *workerWait); err != nil {
				fail(err)
			}
		}
	default:
		fail(fmt.Errorf("unknown -runtime %q (sim | proc)", *runtimeName))
	}

	fmt.Printf("dynod: generating TPC-H SF=%g scale=%g...\n", cfg.SF, cfg.Scale)
	srv, err := server.New(cfg)
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	fmt.Printf("dynod: listening on %s\n", ln.Addr())

	select {
	case <-ctx.Done():
		// Orderly teardown: stop accepting HTTP, cancel and drain
		// in-flight queries, then drain and deregister the worker
		// fleet (the deferred fleet.Close).
		fmt.Println("dynod: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fail(err)
		}
		if err := srv.Shutdown(shutCtx); err != nil {
			fail(err)
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}
}

// servePprof exposes the default mux's net/http/pprof handlers on a
// dedicated listener, kept off the query-serving port so profiling
// can never interfere with admission control.
func servePprof(addr string) {
	fmt.Printf("dynod: pprof on http://%s/debug/pprof/\n", addr)
	if err := http.ListenAndServe(addr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dynod: pprof:", err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dynod:", err)
	os.Exit(1)
}
