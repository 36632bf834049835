// Command mflushd is the simulation-as-a-service daemon: it accepts
// campaign specs over HTTP, executes them on a shared bounded scheduler,
// and serves every result from a content-addressed cache persisted in a
// campaign store — identical jobs are simulated once, ever, across all
// clients and restarts.
//
// Usage:
//
//	mflushd [-addr :8080] [-store mflushd/results.jsonl] \
//	        [-workers N] [-max-queue N] [-max-campaigns N] [-drain-timeout 60s] \
//	        [-cluster] [-lease-ttl 15s] [-state-dir DIR] [-wal-compact N] \
//	        [-debug-addr 127.0.0.1:6060]
//
// The daemon is observable out of the box: GET /metrics serves the
// full registry (admission, campaigns, cache, SSE, fleet, WAL) in
// Prometheus text format and GET /dashboard serves an embedded live
// ops page — stat tiles, per-campaign interval-IPC sparklines fed by
// the SSE sample stream, the worker-fleet table and a campaign
// browser. -debug-addr additionally exposes net/http/pprof and expvar
// on a separate (typically loopback) listener.
//
// With -cluster the daemon also coordinates a worker fleet: mflushworker
// processes register over /v1/workers, lease jobs, and post results;
// uncached jobs route to the fleet whenever live workers exist and run
// locally otherwise. Leases of dead workers are re-issued after
// -lease-ttl, so a killed worker never loses work.
//
// The coordinator queue itself is durable: every enqueue and
// acknowledgement is write-ahead-logged (fsynced) under -state-dir
// (default: state/ beside -store) before it takes effect, and a
// restarted daemon replays the log — resuming the interrupted campaign
// where it stopped, with no job lost or double-counted. -wal-compact
// bounds the log's tail between snapshot compactions.
//
// SIGTERM (or SIGINT) drains gracefully: new submissions get 503,
// in-flight simulations finish and persist, then the daemon exits.
// API.md documents the endpoints; examples/client drives them.
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
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "mflushd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	storePath := flag.String("store", "mflushd/results.jsonl",
		"content-addressed result store (JSONL; parent directory is created)")
	workers := flag.Int("workers", 0, "simulation parallelism across all campaigns (0: GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 1024, "max jobs admitted but unfinished before submissions get 429")
	maxCampaigns := flag.Int("max-campaigns", 1000, "settled campaigns retained for status/result queries")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second,
		"how long to wait for in-flight simulations on shutdown")
	clusterMode := flag.Bool("cluster", false,
		"coordinate an mflushworker fleet: serve /v1/workers and route jobs to live workers")
	leaseTTL := flag.Duration("lease-ttl", cluster.DefaultLeaseTTL,
		"drop fleet workers silent for this long and re-issue their leased jobs")
	stateDir := flag.String("state-dir", "",
		"directory for the durable coordinator queue (WAL + snapshot); requires -cluster; empty: state/ beside -store")
	walCompact := flag.Int("wal-compact", cluster.DefaultCompactEvery,
		"WAL tail records between snapshot compactions (with -cluster)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof and expvar on this private address (empty: disabled)")
	flag.Parse()

	if *stateDir != "" && !*clusterMode {
		return errors.New("-state-dir requires -cluster (only the coordinator queue has durable state)")
	}
	if *stateDir == "" {
		*stateDir = filepath.Join(filepath.Dir(*storePath), "state")
	}

	if dir := filepath.Dir(*storePath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	store, err := campaign.OpenStore(*storePath)
	if err != nil {
		return err
	}
	defer store.Close()

	cfg := server.Config{
		Store:         store,
		Workers:       *workers,
		MaxQueuedJobs: *maxQueue,
		MaxCampaigns:  *maxCampaigns,
	}
	if *clusterMode {
		coord, err := cluster.OpenCoordinator(cluster.Config{
			LeaseTTL:     *leaseTTL,
			StateDir:     *stateDir,
			CompactEvery: *walCompact,
			// The store vouches for results it has fsynced, letting WAL
			// compaction drop acknowledgements a power loss cannot take.
			Persisted: store.Synced,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		cfg.Cluster = coord
		if rec := coord.Recovered(); len(rec.Jobs) > 0 || len(rec.Orphans) > 0 {
			log.Printf("mflushd: recovered queue from %s: %d jobs to resume, %d acknowledged results to confirm",
				*stateDir, len(rec.Jobs), len(rec.Orphans))
		}
	}
	srv := server.New(cfg)

	// An explicit listener (rather than ListenAndServe) pins down the
	// real address before the serving log line, so ":0" harnesses — the
	// crash matrix — can parse where the daemon actually landed.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}

	// The debug surface (pprof profiles, expvar) binds its own listener
	// so it can stay on localhost while /metrics and the API face the
	// fleet. It serves until the process exits; nothing on it holds
	// state that needs draining.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Printf("mflushd: debug (pprof, expvar) on %s", dln.Addr())
		go func() {
			if err := http.Serve(dln, metrics.DebugHandler()); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("mflushd: debug server: %v", err)
			}
		}()
	}

	mode := "single-process"
	if *clusterMode {
		mode = fmt.Sprintf("cluster coordinator, lease TTL %s, durable queue in %s", *leaseTTL, *stateDir)
	}
	log.Printf("mflushd: serving on %s (store %s, %d cached results, %s)",
		ln.Addr(), *storePath, store.Len(), mode)

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: reject new campaigns, let in-flight simulations
	// finish and persist, then close the listener and the store.
	log.Printf("mflushd: draining (up to %s) ...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		// SSE streams and pollers may still be attached; closing them
		// forcibly after the drain is safe — all results are on disk.
		httpSrv.Close()
	}
	if drainErr != nil {
		log.Printf("mflushd: %v; exiting with jobs still in flight (%d results in store)",
			drainErr, store.Len())
		return nil
	}
	log.Printf("mflushd: drained; %d results in store", store.Len())
	return nil
}
