// Command ecrouter is the stateless front door for an ecserve cluster:
// it consistent-hashes session ids onto the live, ready nodes found in
// the shared store's membership records and reverse-proxies the HTTP/JSON
// API unchanged (see internal/router for the routing rules).
//
// Usage:
//
//	ecrouter -addr :8090 -data-dir /var/lib/ecfleet
//	ecrouter -addr :8090 -data-dir /var/lib/ecfleet -refresh 500ms -retries 2
//
// -data-dir must be the same shared directory every ecserve node was
// started with (-cluster -data-dir ...). The router keeps no session
// state: kill it, run several for HA — placements agree because every
// router hashes onto the same ring. Correctness under a stale ring is
// the servers' job (lease fencing answers 503 "not_owner" + Retry-After
// and clients simply retry), so a router can never cause a double
// commit; see the README "Clustering" section.
//
// Router-specific endpoints on top of the proxied API:
//
//	GET /v1/cluster        membership + ring view (per-node ready bit)
//	GET /v1/metrics        router counters plus every node's metrics
//	GET /metrics           Prometheus text exposition (?format=json)
//	GET /v1/debug/traces   recent slow-request span trees
//	GET /healthz           router liveness
//	GET /readyz            503 until at least one ready node is routable
//
// -debug-addr serves net/http/pprof profiling on a separate (private)
// listener; ?trace=1 on any proxied request returns the combined
// router + node span tree.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ilpec/internal/obs/pprofsrv"
	"ilpec/internal/router"
	"ilpec/internal/store"
)

type config struct {
	addr         string
	dataDir      string
	vnodes       int
	refresh      time.Duration
	probeTimeout time.Duration
	retries      int
	drain        time.Duration
	debugAddr    string
	slowTrace    time.Duration
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "ecrouter:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, log.New(os.Stderr, "ecrouter: ", log.LstdFlags), nil); err != nil {
		fmt.Fprintln(os.Stderr, "ecrouter:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("ecrouter", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", ":8090", "listen address")
	dataDir := fs.String("data-dir", "", "shared cluster store directory (same as every node's -data-dir; required)")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per server on the hash ring (0 = default 160; must match fleet-wide)")
	refresh := fs.Duration("refresh", time.Second, "membership poll + readiness probe cadence")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "per-node /readyz probe timeout")
	retries := fs.Int("retries", 2, "ring successors tried after the owner for idempotent requests (negative = none)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain budget")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof profiling on this address (empty = off; keep it private)")
	slowTrace := fs.Duration("slow-trace", 0, "requests at least this slow are retained at /v1/debug/traces (0 = default 250ms)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *dataDir == "" {
		return config{}, fmt.Errorf("-data-dir is required (the cluster's shared store holds the membership records)")
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return config{
		addr:         *addr,
		dataDir:      *dataDir,
		vnodes:       *vnodes,
		refresh:      *refresh,
		probeTimeout: *probeTimeout,
		retries:      *retries,
		drain:        *drain,
		debugAddr:    *debugAddr,
		slowTrace:    *slowTrace,
	}, nil
}

// serve runs the router until ctx is cancelled. ready, when non-nil,
// receives the bound address once the listener is up.
func serve(ctx context.Context, cfg config, logger *log.Logger, ready func(addr string)) error {
	st, err := store.NewSharedFile(cfg.dataDir)
	if err != nil {
		return err
	}
	defer st.Close()
	rt, err := router.New(router.Options{
		Store:              st,
		VirtualNodes:       cfg.vnodes,
		Refresh:            cfg.refresh,
		ProbeTimeout:       cfg.probeTimeout,
		Retries:            cfg.retries,
		Logger:             logger,
		SlowTraceThreshold: cfg.slowTrace,
	})
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	defer rt.Stop()
	if cfg.debugAddr != "" {
		stopDebug, err := pprofsrv.Serve(cfg.debugAddr, logger)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer stopDebug()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Printf("routing on %s over %s (refresh=%v retries=%d)",
		ln.Addr(), cfg.dataDir, cfg.refresh, cfg.retries)
	if ready != nil {
		ready(ln.Addr().String())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down (drain %v)", cfg.drain)
	//ecvet:ignore ctxflow ctx is already cancelled here; the drain needs a fresh deadline
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	m := rt.Metrics()
	logger.Printf("proxied %d requests (%d failovers, %d minted ids)", m.Proxied, m.Failovers, m.MintedIDs)
	return nil
}
