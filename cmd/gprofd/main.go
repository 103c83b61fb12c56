// Command gprofd is the fleet-scale continuous-profiling service: an
// HTTP server that accepts gmon.out profile-data uploads from many
// agents, streaming-merges them into time-windowed aggregates per
// executable fingerprint, and serves flat, call-graph, diff, model,
// and raw-profile queries over the merged data (internal/serve has the
// design; docs/FORMATS.md documents the gprofd.api.v1 surface).
//
// Usage:
//
//	gprofd [flags]
//
// A typical session:
//
//	gprofd -addr :7421 &
//	curl -s --data-binary @prog.img http://localhost:7421/v1/exe
//	curl -s -H 'X-Gprof-Fingerprint: <fp>' --data-binary @gmon.out \
//	    http://localhost:7421/v1/ingest
//	curl -s 'http://localhost:7421/v1/flat?fp=<fp>&sync=1'
//
// cmd/gprofload replays the built-in workload corpus against a running
// gprofd for load and correctness testing (`make gprofd-smoke`).
//
// -stats prints the request and fold span summary to stderr on a
// SIGINT shutdown; -tracefile and -runreport write the machine-readable
// forms. With any of the three set, the server's one span recorder
// keeps every span instead of the bounded ring /debug/flightrec dumps,
// so it grows with traffic — leave them off for long-running
// deployments and read /v1/stats and /metrics, which are always on and
// never grow.
//
// -pprof <addr> serves Go's net/http/pprof on a separate listener (the
// ingest surface never exposes it), for CPU/heap profiling of a live
// deployment.
//
// Production observability rides the main listener: GET /metrics is the
// Prometheus text exposition (gprofd.metrics.v1, validated by
// cmd/metricscheck), /healthz and /readyz are the liveness and
// readiness probes (readiness flips to 503 when SIGINT starts the
// drain, ahead of the connection drain), /debug/flightrec dumps the
// always-on span ring as Chrome trace JSON, and -selfprofile starts
// the dogfood loop serving gprofd's own CPU profile at /v1/self.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only via -pprof
	"os"
	"os/signal"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7421", "listen address")
		window  = flag.Duration("window", serve.DefaultWindow, "aggregation window width")
		retain  = flag.Int("retain", serve.DefaultRetain, "windows retained per fingerprint")
		queue   = flag.Int("queue", serve.DefaultQueueDepth, "per-fingerprint ingest queue depth")
		maxBody = flag.Int64("maxbody", serve.DefaultMaxBodyBytes, "upload body size cap in bytes")
		shards  = flag.Int("maxshards", serve.DefaultMaxShards, "maximum registered fingerprints")
		jobs    = flag.Int("jobs", 0, "render worker width for queries (0 = GOMAXPROCS)")
		qcache  = flag.Int("querycache", serve.DefaultQueryCache, "memoized-analysis LRU entries (finished core.Run results and rendered bodies)")
		pprofA  = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
		selfP   = flag.Duration("selfprofile", 0, "capture gprofd's own CPU profile this often and serve it at /v1/self (0 = on demand only)")
		selfC   = flag.Duration("selfcapture", 0, "duration of each self-profile capture window (0 = 1s, clamped to half the interval)")
	)
	var o obs.CLI
	o.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "gprofd: unexpected arguments (the server takes only flags)")
		os.Exit(2)
	}
	// The pprof endpoint rides the default mux on its own listener, so
	// the ingest surface never exposes profiling handlers.
	if *pprofA != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "gprofd: pprof on http://%s/debug/pprof/\n", *pprofA)
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintln(os.Stderr, "gprofd: pprof:", err)
			}
		}()
	}
	err := run(*addr, serve.Config{
		Window:       *window,
		Retain:       *retain,
		QueueDepth:   *queue,
		MaxBodyBytes: *maxBody,
		MaxShards:    *shards,
		Jobs:         *jobs,
		QueryCache:   *qcache,
		Trace:        o.Trace(),
		SelfProfile:  *selfP,
		SelfCapture:  *selfC,
	})
	if ferr := o.Finish(err); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gprofd:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config) error {
	srv := serve.New(cfg)
	defer srv.Close()
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		err := httpSrv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errc <- err
	}()
	fmt.Fprintf(os.Stderr, "gprofd: listening on %s (window %s, retain %d, queue %d)\n",
		addr, cfg.Window, cfg.Retain, cfg.QueueDepth)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling for a second interrupt
	// Flip /readyz to 503 before draining connections, so balancers
	// stop routing here while in-flight requests finish.
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return <-errc
}
