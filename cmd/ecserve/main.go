// Command ecserve is the EC session server: it exposes the long-lived
// engineering-change sessions of internal/service over HTTP/JSON, for
// every registered problem domain (CNF/set-cover, graph coloring,
// scheduling, min-cut partitioning, and custom adapters).
//
// Usage:
//
//	ecserve -addr :8080
//	ecserve -addr :8080 -strategy preserving -workers 8 -cache 512 -timeout 30s
//	ecserve -addr :8080 -data-dir /var/lib/ecserve -snapshot-every 64 \
//	        -max-live-sessions 1024 -session-ttl 1h
//	ecserve -addr :8080 -max-pending 1024 -max-backlog 32 -request-timeout 5s
//
// With -data-dir, sessions are durable: every queued change batch is
// journaled (fsync'd, CRC-framed) and snapshots are cut periodically, so
// a restart or crash recovers every session — see the README
// "Persistence" section. -max-live-sessions bounds memory (LRU sessions
// are evicted to disk and rehydrated on touch) and -session-ttl
// snapshots-and-closes idle sessions.
//
// The server is failure-hardened (see the README "Resilience" section):
// transient store faults are retried with capped jittered backoff
// (-store-retries), sessions whose persistence keeps failing are
// quarantined to memory-only service and periodically healed
// (-quarantine-after, -reprobe-interval), and overload is shed at
// admission (-max-pending → 429, -max-backlog → 503, -request-timeout).
// -fault-plan arms deterministic store fault injection for resilience
// testing.
//
// Endpoints (see internal/service.NewHandler and the README walkthrough):
//
//	POST   /v1/sessions              create a session ("domain" + "problem";
//	                                 optional "id" for idempotent creates)
//	GET    /v1/sessions              list session ids (?limit= and ?after=
//	                                 page; "next" is the cursor)
//	GET    /v1/sessions/{id}         session info (rehydrates if evicted)
//	DELETE /v1/sessions/{id}         close a session (memory and store)
//	POST   /v1/sessions/{id}/changes queue a change batch (domain wire form)
//	POST   /v1/sessions/{id}/solve   drain the batch in one EC pass
//	GET    /v1/sessions/{id}/flex    flexibility report
//	GET    /v1/domains               registered domain names
//	GET    /v1/metrics               service counters
//	GET    /metrics                  Prometheus text exposition (?format=json)
//	GET    /v1/debug/traces          recent slow-request span trees
//	GET    /healthz                  liveness probe (process is up)
//	GET    /readyz                   readiness probe (503 while draining,
//	                                 store-quarantined, or heartbeat lost)
//
// Observability (see the README "Observability" section): ?trace=1 on
// any request returns its span tree, -slow-trace tunes the
// /v1/debug/traces ring, -request-log emits a structured line per
// request, and -debug-addr serves net/http/pprof on a separate
// (private) listener.
//
// Clustering (see the README "Clustering" section): -cluster -node-id n1
// joins a fleet sharing one -data-dir store. Sessions are owned via
// store-fenced leases, auto ids are node-salted, proven solves are
// published to a fleet-wide cache, and cmd/ecrouter consistent-hashes
// clients onto the fleet. On SIGTERM the node flips /readyz to 503
// (draining), finishes in-flight work, releases its leases, and
// deregisters — a peer rehydrates its sessions from the shared store.
//
// Client errors return HTTP 400 with a structured body
// {"error": {"code": "...", "message": "..."}} — e.g. code
// "unknown_domain" or "unknown_strategy".
//
// The server drains in-flight requests on SIGINT/SIGTERM before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/core"
	"ilpec/internal/fault"
	"ilpec/internal/ilp"
	"ilpec/internal/obs"
	"ilpec/internal/obs/pprofsrv"
	"ilpec/internal/service"
	"ilpec/internal/store"
)

// config carries the parsed command line.
type config struct {
	addr        string
	strategy    core.Strategy
	workers     int
	solverWork  int
	cacheSize   int
	maxSessions int
	timeLimit   time.Duration
	drain       time.Duration
	presolve    bool
	cuts        bool
	instance    bool
	// Persistence (empty dataDir = memory-only, nothing survives exit).
	dataDir       string
	snapshotEvery int
	maxLive       int
	sessionTTL    time.Duration
	// Resilience (see the README "Resilience" section).
	storeRetries    int
	quarantineAfter int
	reprobeInterval time.Duration
	maxPending      int
	maxBacklog      int
	requestTimeout  time.Duration
	// Fault injection (testing only; needs -data-dir).
	faultPlan *fault.Plan
	// Clustering (needs -data-dir; see the README "Clustering" section).
	clusterMode bool
	nodeID      string
	advertise   string
	heartbeat   time.Duration
	leaseTTL    time.Duration
	// Observability (see the README "Observability" section).
	debugAddr  string
	slowTrace  time.Duration
	requestLog bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "ecserve:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, log.New(os.Stderr, "ecserve: ", log.LstdFlags), nil); err != nil {
		fmt.Fprintln(os.Stderr, "ecserve:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, errOut io.Writer) (config, error) {
	fs := flag.NewFlagSet("ecserve", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", ":8080", "listen address")
	strategy := fs.String("strategy", "fast", "default re-solve strategy: fast, preserving, or replan")
	workers := fs.Int("workers", 0, "executor pool size (0 = GOMAXPROCS)")
	solverWorkers := fs.Int("solver-workers", 1, "parallel root searchers inside each solve")
	cache := fs.Int("cache", 256, "solve-cache entries")
	maxSessions := fs.Int("max-sessions", 4096, "live session limit")
	timeout := fs.Duration("timeout", 30*time.Second, "per-solve time limit (0 = none)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain budget")
	presolve := fs.Bool("presolve", true, "run the solver's presolve pass on initial, fast-EC and preserving solves (never on replan batch re-solves, which run on the session's retained kernel)")
	cuts := fs.Bool("cuts", true, "separate cover/clique cuts, retained per session, on initial, fast-EC and preserving solves (never on replan batch re-solves)")
	instance := fs.Bool("instance", true, "serve sessions through persistent kernel instances (incremental delta re-solves); false = scratch re-encode per solve")
	dataDir := fs.String("data-dir", "", "durable session store directory (empty = in-memory only)")
	snapshotEvery := fs.Int("snapshot-every", 64, "journal records per session between compaction snapshots")
	maxLive := fs.Int("max-live-sessions", 0, "in-memory session bound; beyond it LRU sessions are evicted to the store (0 = no eviction; needs -data-dir)")
	sessionTTL := fs.Duration("session-ttl", 0, "idle sessions are snapshotted-and-closed after this (0 = never)")
	storeRetries := fs.Int("store-retries", 0, "attempts per transient store operation before quarantine bookkeeping (0 = default 4, 1 = no retries)")
	quarantineAfter := fs.Int("quarantine-after", 0, "exhausted-retry store failures before a session degrades to memory-only service (0 = default 3)")
	reprobeInterval := fs.Duration("reprobe-interval", 0, "cadence for re-probing the store to heal quarantined sessions (0 = default 5s, negative = never)")
	maxPending := fs.Int("max-pending", 0, "per-session queued-change bound; beyond it POST changes returns 429 (0 = default 4096, negative = unbounded)")
	maxBacklog := fs.Int("max-backlog", 0, "solve jobs waiting beyond the worker pool; beyond it POST solve returns 503 (0 = default 8x workers, negative = unbounded)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request solve deadline, propagated into the solver (0 = none)")
	faultPlan := fs.String("fault-plan", "", "inject deterministic store faults, e.g. \"append:error:p=0.1;snapshot:enospc:nth=2\" (testing only; needs -data-dir)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for probabilistic -fault-plan triggers")
	clusterMode := fs.Bool("cluster", false, "join the fleet sharing -data-dir: heartbeat membership, lease-owned sessions, fleet solve cache (needs -node-id)")
	nodeID := fs.String("node-id", "", "stable unique cluster node id, e.g. n1 (required with -cluster)")
	advertise := fs.String("advertise", "", "base URL peers and routers reach this node at (default http://<bound addr>)")
	heartbeat := fs.Duration("heartbeat-interval", 0, "cluster heartbeat cadence (0 = default 1s; TTL is 3x)")
	leaseTTL := fs.Duration("lease-ttl", 0, "session ownership lease lifetime; a dead node's sessions move after this (0 = default 5s)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof profiling on this address (empty = off; keep it private)")
	slowTrace := fs.Duration("slow-trace", 0, "requests at least this slow are retained at /v1/debug/traces (0 = default 250ms)")
	requestLog := fs.Bool("request-log", false, "log one structured line per HTTP request (request id, route, status, duration)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *maxLive > 0 && *dataDir == "" {
		return config{}, fmt.Errorf("-max-live-sessions needs -data-dir (evicted sessions must have a store to land in)")
	}
	if *faultPlan != "" && *dataDir == "" {
		return config{}, fmt.Errorf("-fault-plan needs -data-dir (faults are injected into the durable store)")
	}
	if *clusterMode {
		if *dataDir == "" {
			return config{}, fmt.Errorf("-cluster needs -data-dir (the fleet coordinates through the shared store)")
		}
		if *nodeID == "" {
			return config{}, fmt.Errorf("-cluster needs -node-id (a stable unique name for this node)")
		}
	} else if *nodeID != "" {
		return config{}, fmt.Errorf("-node-id needs -cluster")
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg := config{
		addr:            *addr,
		workers:         *workers,
		solverWork:      *solverWorkers,
		cacheSize:       *cache,
		maxSessions:     *maxSessions,
		timeLimit:       *timeout,
		drain:           *drain,
		presolve:        *presolve,
		cuts:            *cuts,
		instance:        *instance,
		dataDir:         *dataDir,
		snapshotEvery:   *snapshotEvery,
		maxLive:         *maxLive,
		sessionTTL:      *sessionTTL,
		storeRetries:    *storeRetries,
		quarantineAfter: *quarantineAfter,
		reprobeInterval: *reprobeInterval,
		maxPending:      *maxPending,
		maxBacklog:      *maxBacklog,
		requestTimeout:  *requestTimeout,
		clusterMode:     *clusterMode,
		nodeID:          *nodeID,
		advertise:       *advertise,
		heartbeat:       *heartbeat,
		leaseTTL:        *leaseTTL,
		debugAddr:       *debugAddr,
		slowTrace:       *slowTrace,
		requestLog:      *requestLog,
	}
	strat, err := service.ParseStrategy(*strategy)
	if err != nil {
		return config{}, fmt.Errorf("-strategy: %w", err)
	}
	cfg.strategy = strat
	if *faultPlan != "" {
		plan, err := fault.ParsePlan(*faultSeed, *faultPlan)
		if err != nil {
			return config{}, fmt.Errorf("-fault-plan: %w", err)
		}
		cfg.faultPlan = plan
	}
	return cfg, nil
}

// advertiseURL resolves the membership address peers dial: the -advertise
// override verbatim, else the bound address with unspecified hosts
// (":8080", "[::]:8080") rewritten to loopback — good for single-host
// fleets; multi-host deployments must set -advertise.
func advertiseURL(override, bound string) string {
	if override != "" {
		return override
	}
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return "http://" + bound
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// serve runs the server until ctx is cancelled, then drains. ready, when
// non-nil, receives the bound address once the listener is up (used by
// tests and useful with -addr :0).
func serve(ctx context.Context, cfg config, logger *log.Logger, ready func(addr string)) error {
	var st store.Store
	if cfg.dataDir != "" {
		var fileStore *store.File
		var err error
		if cfg.clusterMode {
			// Shared mode: peers read and CAS-append concurrently, so the
			// store re-reads durable state instead of trusting caches.
			fileStore, err = store.NewSharedFile(cfg.dataDir)
		} else {
			fileStore, err = store.NewFile(cfg.dataDir)
		}
		if err != nil {
			return err
		}
		st = fileStore
		logger.Printf("durable sessions in %s (snapshot-every=%d max-live=%d ttl=%v)",
			cfg.dataDir, cfg.snapshotEvery, cfg.maxLive, cfg.sessionTTL)
		if cfg.faultPlan != nil {
			st = store.NewFaulty(st, cfg.faultPlan)
			logger.Printf("WARNING: fault injection armed — store faults will be injected deterministically")
		}
	}

	// The listener comes up before the cluster node so the advertised URL
	// can default to the actual bound address (-addr :0 included).
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// One registry for the whole process: the cluster node's lease and
	// heartbeat instruments land next to the service's request and solve
	// instruments, all served by GET /metrics.
	reg := obs.NewRegistry()
	var node *cluster.Node
	if cfg.clusterMode {
		node, err = cluster.NewNode(cluster.Config{
			ID:                cfg.nodeID,
			Addr:              advertiseURL(cfg.advertise, ln.Addr().String()),
			Store:             st,
			HeartbeatInterval: cfg.heartbeat,
			LeaseTTL:          cfg.leaseTTL,
			Obs:               reg,
		})
		if err != nil {
			ln.Close()
			return err
		}
	}
	var reqLog *slog.Logger
	if cfg.requestLog {
		reqLog = slog.New(slog.NewTextHandler(logger.Writer(), nil))
	}
	svc := service.New(service.Options{
		Solve: ilp.Options{
			TimeLimit: cfg.timeLimit,
			Workers:   cfg.solverWork,
			Presolve:  cfg.presolve,
			Cuts:      cfg.cuts,
		},
		Strategy:    cfg.strategy,
		CacheSize:   cfg.cacheSize,
		Workers:     cfg.workers,
		MaxSessions: cfg.maxSessions,
		// The service owns the store: Close flushes final snapshots and
		// closes it, which is what makes the drain below durable.
		Store:              st,
		SnapshotEvery:      cfg.snapshotEvery,
		MaxLiveSessions:    cfg.maxLive,
		SessionTTL:         cfg.sessionTTL,
		StoreRetry:         service.RetryPolicy{Attempts: cfg.storeRetries},
		QuarantineAfter:    cfg.quarantineAfter,
		ReprobeInterval:    cfg.reprobeInterval,
		MaxPending:         cfg.maxPending,
		MaxBacklog:         cfg.maxBacklog,
		RequestTimeout:     cfg.requestTimeout,
		DisableInstance:    !cfg.instance,
		Cluster:            node,
		Obs:                reg,
		RequestLog:         reqLog,
		SlowTraceThreshold: cfg.slowTrace,
	})
	defer svc.Close()
	if cfg.debugAddr != "" {
		stopDebug, err := pprofsrv.Serve(cfg.debugAddr, logger)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		defer stopDebug()
	}
	if st != nil {
		if m := svc.Metrics(); m.Recoveries > 0 {
			logger.Printf("recovered %d persisted sessions", m.Recoveries)
		}
	}
	if node != nil {
		// Synchronous first heartbeat: the node is in the membership (and
		// on every router's ring) before the first request is served.
		if err := node.Start(); err != nil {
			ln.Close()
			return fmt.Errorf("cluster join: %w", err)
		}
		// LIFO with defer svc.Close(): the heartbeat deregisters first
		// (routers stop placing here), then Close releases the leases.
		defer node.Stop()
		logger.Printf("cluster node %s advertising %s (lease-ttl=%v)",
			node.ID(), node.Addr(), node.LeaseTTL())
	}

	srv := &http.Server{
		Handler:           service.NewHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}
	logger.Printf("listening on %s (strategy=%s workers=%d cache=%d)",
		ln.Addr(), cfg.strategy, cfg.workers, cfg.cacheSize)
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
	// Flip /readyz to 503 first: routers stop placing new work here while
	// the in-flight requests below drain.
	svc.StartDraining()
	//ecvet:ignore ctxflow ctx is already cancelled here; the drain needs a fresh deadline
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// The HTTP drain is done; flush the session store before reporting.
	// Every journal append was already fsync'd at accept time — this cuts
	// the final compaction snapshots and closes the store, so a restart
	// recovers every session without journal replay. (The deferred Close
	// is then a no-op.)
	svc.Close()
	m := svc.Metrics()
	logger.Printf("served %d sessions, %d solves (%d cache hits)",
		m.SessionsCreated, m.Solves, m.CacheHits)
	if cfg.dataDir != "" {
		logger.Printf("persisted state flushed (%d journal appends, %d snapshots)",
			m.JournalAppends, m.SnapshotsWritten)
		if m.Quarantines > 0 {
			logger.Printf("store trouble seen: %d quarantines (%d healed), %d retries, %d snapshot failures",
				m.Quarantines, m.QuarantineHeals, m.JournalRetries, m.SnapshotFailures)
		}
	}
	return nil
}
