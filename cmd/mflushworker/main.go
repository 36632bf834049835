// Command mflushworker is a fleet worker for mflushd's cluster mode: it
// registers with a coordinator daemon (mflushd -cluster), pulls leased
// simulation jobs over HTTP, runs them on a local goroutine pool, and
// posts the results back. Run any number of them, on any machines that
// can reach the daemon; the coordinator re-issues the leases of workers
// that die, so killing one mid-campaign costs nothing but time.
//
// Usage:
//
//	mflushworker [-coordinator http://127.0.0.1:8080] [-name HOST] \
//	             [-capacity N] [-lease-wait 2s] [-quiet] \
//	             [-metrics-addr HOST:PORT] [-debug-addr HOST:PORT]
//
// -metrics-addr serves the worker's own registry (jobs completed and
// failed, simulated cycles, in-flight jobs, lease backoff) at GET
// /metrics in Prometheus text format; -debug-addr serves net/http/pprof
// and expvar on a separate, typically loopback, listener. Both are
// empty (disabled) by default — a worker needs neither to do its job.
//
// SIGTERM (or SIGINT) drains gracefully: no new leases, in-flight
// simulations finish and post, then the worker deregisters and exits.
// API.md documents the /v1/workers protocol.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mflushworker: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	coordinator := flag.String("coordinator", "http://127.0.0.1:8080", "mflushd base URL (must run with -cluster)")
	name := flag.String("name", defaultName(), "worker label in fleet listings")
	capacity := flag.Int("capacity", runtime.GOMAXPROCS(0), "parallel simulations (and lease batch size)")
	leaseWait := flag.Duration("lease-wait", 2*time.Second, "long-poll duration when the job queue is empty")
	quiet := flag.Bool("quiet", false, "suppress per-job logging")
	metricsAddr := flag.String("metrics-addr", "",
		"serve this worker's /metrics (Prometheus text format) on this address (empty: disabled)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof and expvar on this private address (empty: disabled)")
	flag.Parse()

	w := &cluster.Worker{
		Base:      *coordinator,
		Name:      *name,
		Capacity:  *capacity,
		LeaseWait: *leaseWait,
	}
	if !*quiet {
		w.Logf = log.Printf
	}

	// Observability side-cars: each binds its own listener before the
	// pull loop starts so a scrape or profile works from the first job.
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		w.RegisterMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		if err := serveAux(*metricsAddr, "metrics", mux); err != nil {
			return err
		}
	}
	if *debugAddr != "" {
		if err := serveAux(*debugAddr, "debug (pprof, expvar)", metrics.DebugHandler()); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	log.Printf("mflushworker: pulling from %s as %q (capacity %d)", *coordinator, *name, *capacity)
	return w.Run(ctx)
}

// serveAux starts an auxiliary HTTP listener (metrics or debug) in the
// background; it lives for the process, nothing on it needs draining.
func serveAux(addr, what string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s listener: %w", what, err)
	}
	log.Printf("mflushworker: %s on %s", what, ln.Addr())
	go func() {
		if err := http.Serve(ln, h); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("mflushworker: %s server: %v", what, err)
		}
	}()
	return nil
}

// defaultName labels the worker with its hostname when available.
func defaultName() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "worker"
}
