// Command cenju4-serve hosts the memoizing experiment service: an
// HTTP/JSON API that runs deterministic Cenju-4 simulations on demand
// and memoizes them by content digest (see internal/serve).
//
// Usage:
//
//	cenju4-serve [-addr :8944] [-workers n] [-queue n]
//	             [-cache-bytes n] [-max-nodes n] [-max-events n]
//	             [-job-timeout d]
//
// Endpoints:
//
//	POST /v1/jobs               submit a spec, wait for the payload
//	GET  /v1/jobs/{digest}       fetch a cached payload
//	GET  /v1/jobs/{digest}/trace fetch a run's Chrome-trace payload
//	GET  /v1/metrics             service + merged simulation metrics
//	GET  /healthz                liveness
//
// SIGINT/SIGTERM triggers a graceful drain: no new jobs are admitted,
// queued and running jobs finish (bounded by -drain-timeout), then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cenju4/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8944", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "simulation jobs that run at once")
	queue := flag.Int("queue", 256, "admission queue depth (beyond it, submissions get 429)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20, "result cache bound in bytes")
	maxNodes := flag.Int("max-nodes", 0, "per-job node ceiling (0 = topology max)")
	maxEvents := flag.Uint64("max-events", 500_000_000, "per-job simulation event budget (0 = unlimited)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job wall-clock budget (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	flag.Parse()

	s := serve.New(serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		CacheBytes: *cacheBytes,
		Limits:     serve.Limits{MaxNodes: *maxNodes, MaxEvents: *maxEvents},
	})
	hs := &http.Server{Addr: *addr, Handler: s.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cenju4-serve: listening on %s (workers=%d queue=%d cache=%dMiB)\n",
		*addr, *workers, *queue, *cacheBytes>>20)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "cenju4-serve: %v\n", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "cenju4-serve: %v, draining (bound %v)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections and let in-flight requests finish while
	// the pool drains its queue.
	shutdownErr := hs.Shutdown(ctx)
	closeErr := s.Close(ctx)
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "cenju4-serve: shutdown: %v\n", shutdownErr)
		os.Exit(1)
	}
	if closeErr != nil {
		fmt.Fprintf(os.Stderr, "cenju4-serve: drain incomplete: %v\n", closeErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "cenju4-serve: drained cleanly")
}
