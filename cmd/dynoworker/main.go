// Command dynoworker is a DYNO execution worker: a standalone process
// that registers with a controller (dynoql -runtime proc or dynod
// -runtime proc), heartbeats, and executes dispatched map/reduce task
// bodies against the controller's mirror files on local disk (one file
// per DFS file; a task names a block by file, offset and length, and
// the worker reads it with one positioned read). It keeps its
// map output for the reduce tasks that need it: each asks it once, with
// one POST /shuffle naming every segment it holds for that task.
//
// Usage:
//
//	dynoworker -controller http://127.0.0.1:9400
//
// The worker exits cleanly when the controller drains it (POST /drain)
// or on SIGINT/SIGTERM.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dyno/internal/expr"
	"dyno/internal/runtime/procruntime"
	"dyno/internal/runtime/wire"
	"dyno/internal/tpch"
)

func main() {
	var (
		controller = flag.String("controller", "", "controller base URL (required)")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address")
		advertise  = flag.String("advertise", "", "URL the controller should dial back (default derived from the listen address)")
		regTimeout = flag.Duration("register-timeout", 30*time.Second, "how long to keep retrying registration")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	flag.Parse()
	if *controller == "" {
		fail(fmt.Errorf("-controller is required"))
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	selfURL := *advertise
	if selfURL == "" {
		selfURL = "http://" + ln.Addr().String()
	}

	// Register (with retry: the controller may still be coming up),
	// then build the expression registry from the controller's UDF
	// parameters so both sides evaluate identically.
	resp, err := register(*controller, selfURL, *regTimeout)
	if err != nil {
		fail(err)
	}
	udf := tpch.DefaultUDFParams()
	if len(resp.UDF) > 0 {
		if err := json.Unmarshal(resp.UDF, &udf); err != nil {
			fail(fmt.Errorf("bad UDF params from controller: %w", err))
		}
	}
	reg := expr.NewRegistry()
	tpch.RegisterUDFs(reg, udf)
	w := procruntime.NewWorker(reg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	w.OnDrain(func() {
		// Give the drain response time to flush before exiting.
		time.Sleep(100 * time.Millisecond)
		close(drained)
	})

	httpSrv := &http.Server{Handler: w.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	fmt.Printf("dynoworker: id=%d listening on %s (controller %s)\n", resp.ID, ln.Addr(), *controller)

	hb := time.Duration(resp.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	go heartbeat(ctx, *controller, selfURL, resp.ID, hb)

	select {
	case <-ctx.Done():
		fmt.Println("dynoworker: signal received, shutting down")
	case <-drained:
		fmt.Println("dynoworker: drained by controller, shutting down")
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
}

// ctlClient serves register and heartbeat calls: one shared keep-alive
// client whose timeout bounds every control-plane request, so a hung
// controller can never wedge the heartbeat loop the way a bare
// http.Post (no deadline at all) could.
var ctlClient = &http.Client{Timeout: 10 * time.Second}

// register announces the worker to the controller, retrying until the
// deadline (the controller may start after its workers). The worker
// announces the binary codec, batched dispatch and peer shuffle — the
// one data plane the controller accepts; a 4xx answer is a refusal and
// ends the retries.
func register(controller, selfURL string, timeout time.Duration) (*wire.RegisterResponse, error) {
	payload, err := json.Marshal(wire.RegisterRequest{
		URL:  selfURL,
		Caps: wire.Caps{Codecs: []string{wire.CodecBinary, wire.CodecJSON}, Batch: true, PeerShuffle: true},
	})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		resp, err := ctlClient.Post(controller+"/runtime/register", "application/json", bytes.NewReader(payload))
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				var rr wire.RegisterResponse
				err = json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if err != nil {
					return nil, fmt.Errorf("bad register response: %w", err)
				}
				return &rr, nil
			}
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort diagnostic
			resp.Body.Close()
			err = fmt.Errorf("register: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return nil, fmt.Errorf("registration refused by %s: %w", controller, err)
			}
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("registration with %s failed: %w", controller, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// heartbeat reports liveness until the context ends. A Gone response
// means the controller no longer knows us (restart); re-register.
func heartbeat(ctx context.Context, controller, selfURL string, id int, every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	payload, _ := json.Marshal(wire.HeartbeatRequest{ID: id})
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		resp, err := ctlClient.Post(controller+"/runtime/heartbeat", "application/json", bytes.NewReader(payload))
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			// Controller restarted: re-register under the same URL (it
			// re-keys workers by URL, so the id stays stable).
			register(controller, selfURL, 2*time.Second)
		}
	}
}

// servePprof exposes the default mux's net/http/pprof handlers on a
// dedicated listener, kept off the worker's task port so profiling
// can never interfere with dispatch.
func servePprof(addr string) {
	fmt.Printf("dynoworker: pprof on http://%s/debug/pprof/\n", addr)
	if err := http.ListenAndServe(addr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dynoworker: pprof:", err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dynoworker:", err)
	os.Exit(1)
}
