// Package service turns the one-shot EC library calls into a long-lived
// serving layer: a Service manages concurrent EC sessions, each holding a
// live problem from ANY registered domain (CNF/set-cover, graph coloring,
// scheduling, netlist partitioning, or a custom adapter), the current
// solution, and the warm-start state the EC re-solves exploit. The whole
// session lifecycle — batching, caching, fast/preserving/replan passes —
// runs through the generic domain.Domain interface; adding a domain adds
// zero code here.
//
// Three mechanisms amortize work across the change stream, in the spirit
// of the paper's Figure-1 flow:
//
//   - batched change application: changes posted to a session queue up and
//     are coalesced into ONE fast-EC / preserving-EC pass per Solve call,
//     instead of one re-solve per change;
//   - an LRU solve cache keyed by a canonical hash of the subproblem
//     (task kind + domain + problem + previous solution + solver options),
//     with in-flight deduplication, so identical subproblems across
//     sessions are answered without touching the solver;
//   - a worker-pool executor that multiplexes all sessions' solves over a
//     bounded set of goroutines (each of which may itself run an
//     Options.Workers-parallel root search), plus a shared incumbent store
//     that warm-starts a solve of a problem another session has already
//     solved under different options.
//
// The package is exposed over HTTP/JSON by NewHandler (see cmd/ecserve)
// and re-exported from the root ilpec package.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/ilp"
	"ilpec/internal/obs"
	"ilpec/internal/store"

	// The built-in domains register themselves on import so every service
	// (and cmd/ecserve) can serve them by name.
	_ "ilpec/internal/coloring"
	_ "ilpec/internal/partition"
	_ "ilpec/internal/sched"
)

const (
	defaultCacheSize       = 256
	defaultMaxSessions     = 4096
	defaultSnapshotEvery   = 64
	defaultQuarantineAfter = 3
	defaultReprobeInterval = 5 * time.Second
	defaultMaxPending      = 4096
	defaultBacklogFactor   = 8
)

// Options configures a Service. The zero value is usable: fast-EC
// strategy, exact solver defaults, GOMAXPROCS executor workers, and a
// 256-entry solve cache.
type Options struct {
	// Solve is the default exact-solver configuration for every session
	// (sessions may override it at creation).
	Solve ilp.Options
	// Fast configures fast-EC re-solves. Solve inside it is ignored; the
	// session's solver options are used. Minimal applies to CNF sessions.
	Fast core.FastOptions
	// Preserve configures preserving-EC re-solves on CNF sessions
	// (Mode/Weight/Protected); the session's solver options are used.
	// Non-CNF domains always maximize agreement.
	Preserve core.PreserveOptions
	// Strategy is the default re-solve strategy for change batches
	// (sessions may override it at creation). Default: fast EC.
	Strategy domain.Strategy
	// CacheSize bounds the LRU solve cache (entries; default 256).
	CacheSize int
	// Workers sizes the executor pool (default GOMAXPROCS). This bounds
	// concurrent branch-and-bound searches; Solve.Workers additionally
	// parallelizes within one search.
	Workers int
	// MaxSessions bounds live sessions (default 4096).
	MaxSessions int
	// Domains overrides the domain registry (default: the process-wide
	// registry with the built-in adapters).
	Domains *domain.Registry
	// Store persists sessions durably: a write-ahead journal of applied
	// changes plus periodic snapshots per session (see internal/store).
	// The service takes ownership (Close closes it), recovers every
	// persisted session at startup, and transparently rehydrates evicted
	// sessions on their next touch. nil disables persistence.
	Store store.Store
	// SnapshotEvery cuts a compaction snapshot after this many journal
	// records per session (default 64; needs Store).
	SnapshotEvery int
	// MaxLiveSessions bounds the sessions held in memory when a Store is
	// configured: beyond it the least-recently-used session is
	// snapshotted and evicted, to be rehydrated on next touch. 0 disables
	// eviction (MaxSessions still bounds the total).
	MaxLiveSessions int
	// SessionTTL snapshots-and-closes sessions idle longer than this:
	// with a Store they leave memory but stay durable and rehydratable;
	// without one they are closed outright. 0 disables the sweep.
	SessionTTL time.Duration
	// StoreRetry shapes the capped exponential backoff applied to
	// transient store faults on journal appends and snapshots (zero
	// fields take the defaults: 4 attempts, 5ms base, 250ms cap).
	StoreRetry RetryPolicy
	// QuarantineAfter degrades a session to memory-only service after
	// this many exhausted-retries store failures (default 3): requests
	// keep succeeding, the session reports Degraded, and the periodic
	// re-probe heals it back to durable when the store recovers.
	QuarantineAfter int
	// ReprobeInterval is the cadence at which quarantined sessions
	// re-probe the store (default 5s; < 0 disables the probe loop).
	ReprobeInterval time.Duration
	// MaxPending bounds each session's queued-but-unsolved changes
	// (default 4096; < 0 unbounded). Beyond it QueueChanges fails with
	// ErrQueueFull — HTTP 429 — until a solve drains the queue.
	MaxPending int
	// MaxBacklog bounds solve jobs waiting for an executor slot beyond
	// the Workers already running (default 8×Workers; < 0 unbounded).
	// Beyond it solves fail fast with ErrOverloaded — HTTP 503 +
	// Retry-After — instead of queueing unboundedly.
	MaxBacklog int
	// RequestTimeout bounds each HTTP solve request (0 = none): the
	// deadline propagates through the executor queue into the kernel's
	// abort check, and an expired request returns 503 + Retry-After.
	RequestTimeout time.Duration
	// DisableInstance turns off the persistent-instance solve path: every
	// session then encodes and solves from scratch on each pass, as
	// before the incremental delta API existed. Answers are identical
	// either way (the differential tests pin this); the switch exists for
	// A/B comparison and as an escape hatch.
	DisableInstance bool
	// Cluster, when set, runs this service as one node of a multi-node
	// fleet sharing Store: session lookups and journal appends are guarded
	// by per-session leases (see cluster.Leases and this package's
	// cluster.go), auto-generated session ids are salted with the node id,
	// and solve-cache misses peek the fleet-wide cache before running the
	// solver. Requires Store — and for a multi-PROCESS fleet the store
	// must be cross-process safe (store.NewSharedFile). The service does
	// not start or stop the node; cmd/ecserve owns its lifecycle.
	Cluster *cluster.Node
	// Obs is the registry that holds every service instrument: the
	// counters and gauges behind /v1/metrics (ec_service_*), per-route
	// request latency, per-phase solve timings, and durable-store
	// operation latencies (see the README's Observability section). nil
	// gets a private registry, so /metrics always serves. Counters are
	// keyed by name, so a registry serves one Service: two Services on
	// one registry would sum their counts. Sharing it with
	// cluster.Config.Obs exposes both on one endpoint.
	Obs *obs.Registry
	// RequestLog, when set, receives one structured line per HTTP request
	// (request id, route, status, duration). nil logs nothing.
	RequestLog *slog.Logger
	// SlowTraceThreshold is the minimum request duration retained in the
	// /v1/debug/traces ring (default 250ms).
	SlowTraceThreshold time.Duration
}

// SessionConfig carries per-session overrides at creation time.
type SessionConfig struct {
	// Strategy overrides the service default when non-nil.
	Strategy *domain.Strategy
	// Solve overrides the service solver options when non-nil.
	Solve *ilp.Options
}

// Metrics are the service-wide counters. Each lives on the service's
// obs registry as ec_service_<json tag of its MetricsSnapshot field>;
// newMetrics registers them and its help strings say what each counts.
type Metrics struct {
	SessionsCreated, SessionsClosed                       *obs.Counter
	ChangesQueued, Batches, DuplicateBatches              *obs.Counter
	Solves, SolverRuns, CacheHits, CacheMisses            *obs.Counter
	RelaxFastPaths, IncumbentHits, TruncatedSolves        *obs.Counter
	PresolveFixed, PresolveRows                           *obs.Counter
	CutsAdded, CutsReused, CutTightenings                 *obs.Counter
	InstanceReuses, InstanceRebuilds                      *obs.Counter
	InstanceRowsDelta, ReseparatedRows                    *obs.Counter
	JournalAppends, SnapshotsWritten, Recoveries          *obs.Counter
	Rehydrations, Evictions, TTLExpirations               *obs.Counter
	JournalRetries, SnapshotFailures                      *obs.Counter
	Quarantines, QuarantineProbes, QuarantineHeals        *obs.Counter
	QueueRejections, BacklogRejections                    *obs.Counter
	ClusterLeaseAcquired, ClusterLeaseRenewals            *obs.Counter
	ClusterNotOwner, ClusterFenced                        *obs.Counter
	ClusterPeekHits, ClusterPeekMisses, ClusterPeekStores *obs.Counter
}

// newMetrics registers every service counter on r. Counters are keyed by
// name, so each registry serves one Service.
func newMetrics(r *obs.Registry) Metrics {
	c := func(tag, help string) *obs.Counter { return r.Counter("ec_service_"+tag, help) }
	return Metrics{
		SessionsCreated:  c("sessions_created", "Sessions created."),
		SessionsClosed:   c("sessions_closed", "Sessions closed (deleted, TTL-expired, or dropped at shutdown)."),
		ChangesQueued:    c("changes_queued", "Individual changes posted to sessions."),
		Batches:          c("batches", "Change batches resolved; each coalesces one or more changes into a single pass."),
		DuplicateBatches: c("duplicate_batches", "Change batches acknowledged without being applied: their idempotency key matched an accepted batch."),
		Solves:           c("solves", "Session solves that produced a solution (initial, batch re-solve, relax fast path)."),
		SolverRuns:       c("solver_runs", "Branch-and-bound executions (solve-cache misses computed locally)."),
		CacheHits:        c("cache_hits", "Solve-cache hits, including joins of an identical in-flight solve."),
		CacheMisses:      c("cache_misses", "Solve-cache misses."),
		RelaxFastPaths:   c("relax_fast_paths", "Batches absorbed without solver work (relaxing-only change sets)."),
		IncumbentHits:    c("incumbent_hits", "Solves warm-started from the shared incumbent store."),
		TruncatedSolves:  c("truncated_solves", "Solver runs stopped by a node/time limit or a cancelled request (never cached)."),
		PresolveFixed:    c("presolve_fixed", "Variables fixed by the kernel's presolve, over all solver runs."),
		PresolveRows:     c("presolve_rows", "Rows dropped by the kernel's presolve, over all solver runs."),
		CutsAdded:        c("cuts_added", "Cut rows added to solves (separated fresh plus served from the pool)."),
		CutsReused:       c("cuts_reused", "Cut rows served from a retained cut pool without re-separation."),
		CutTightenings:   c("cut_tightenings", "Variable fixings forced by cut rows during propagation."),

		InstanceReuses:    c("instance_reuses", "Solves served from a session's live instance, the batch synced on as row deltas."),
		InstanceRebuilds:  c("instance_rebuilds", "Persistent instances built from scratch (first solves and batches no delta could express)."),
		InstanceRowsDelta: c("instance_rows_delta", "Row edits (adds, removes, RHS and pin changes) synced onto persistent instances."),
		ReseparatedRows:   c("reseparated_rows", "Source rows that paid full cut separation because the pool had no entry for them."),

		JournalAppends:   c("journal_appends", "Durable-store journal appends."),
		SnapshotsWritten: c("snapshots_written", "Durable-store snapshots written."),
		Recoveries:       c("recoveries", "Sessions found in the store at startup."),
		Rehydrations:     c("rehydrations", "Evicted or recovered sessions rebuilt from the store on touch."),
		Evictions:        c("evictions", "Sessions evicted from memory under MaxLiveSessions."),
		TTLExpirations:   c("ttl_expirations", "Idle sessions the TTL sweep snapshotted and closed."),

		JournalRetries:    c("journal_retries", "Backed-off re-attempts of transient store faults."),
		SnapshotFailures:  c("snapshot_failures", "Snapshot or compaction writes that failed after retries."),
		Quarantines:       c("quarantines", "Sessions degraded to memory-only service after store failures."),
		QuarantineProbes:  c("quarantine_probes", "Store re-probes of quarantined sessions."),
		QuarantineHeals:   c("quarantine_heals", "Quarantined sessions returned to durable service."),
		QueueRejections:   c("queue_rejections", "Change batches refused at MaxPending (429)."),
		BacklogRejections: c("backlog_rejections", "Solves shed at MaxBacklog (503)."),

		ClusterLeaseAcquired: c("cluster_lease_acquired", "Session-ownership leases acquired."),
		ClusterLeaseRenewals: c("cluster_lease_renewals", "Session-ownership leases renewed."),
		ClusterNotOwner:      c("cluster_not_owner", "Session lookups refused because another node holds the lease."),
		ClusterFenced:        c("cluster_fenced", "Sessions fenced after a definitive ownership loss."),
		ClusterPeekHits:      c("cluster_peek_hits", "Local solve-cache misses answered from the fleet cache."),
		ClusterPeekMisses:    c("cluster_peek_misses", "Fleet-cache lookups that found nothing."),
		ClusterPeekStores:    c("cluster_peek_stores", "Proven results published to the fleet cache."),
	}
}

// MetricsSnapshot is a plain-value copy of Metrics plus the four
// point-in-time gauges, in /v1/metrics order. newMetrics documents each
// counter.
type MetricsSnapshot struct {
	SessionsLive     int   `json:"sessions_live"`
	SessionsCreated  int64 `json:"sessions_created"`
	SessionsClosed   int64 `json:"sessions_closed"`
	ChangesQueued    int64 `json:"changes_queued"`
	Batches          int64 `json:"batches"`
	DuplicateBatches int64 `json:"duplicate_batches"`
	Solves           int64 `json:"solves"`
	SolverRuns       int64 `json:"solver_runs"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	CacheEntries     int   `json:"cache_entries"`
	RelaxFastPaths   int64 `json:"relax_fast_paths"`
	IncumbentHits    int64 `json:"incumbent_hits"`
	TruncatedSolves  int64 `json:"truncated_solves"`
	PresolveFixed    int64 `json:"presolve_fixed"`
	PresolveRows     int64 `json:"presolve_rows"`
	CutsAdded        int64 `json:"cuts_added"`
	CutsReused       int64 `json:"cuts_reused"`
	CutTightenings   int64 `json:"cut_tightenings"`
	// InstanceReuses / InstanceRebuilds / InstanceRowsDelta /
	// ReseparatedRows report the persistent-instance path.
	InstanceReuses    int64 `json:"instance_reuses"`
	InstanceRebuilds  int64 `json:"instance_rebuilds"`
	InstanceRowsDelta int64 `json:"instance_rows_delta"`
	ReseparatedRows   int64 `json:"reseparated_rows"`
	// SessionsPersisted counts sessions that live only in the store
	// (evicted, expired, or not yet rehydrated after recovery).
	SessionsPersisted int   `json:"sessions_persisted"`
	JournalAppends    int64 `json:"journal_appends"`
	SnapshotsWritten  int64 `json:"snapshots_written"`
	Recoveries        int64 `json:"recoveries"`
	Rehydrations      int64 `json:"rehydrations"`
	Evictions         int64 `json:"evictions"`
	TTLExpirations    int64 `json:"ttl_expirations"`
	// SessionsDegraded is the live sessions currently quarantined
	// (memory-only); the cumulative counters below track the resilience
	// machinery.
	SessionsDegraded  int   `json:"sessions_degraded"`
	JournalRetries    int64 `json:"journal_retries"`
	SnapshotFailures  int64 `json:"snapshot_failures"`
	Quarantines       int64 `json:"quarantines"`
	QuarantineProbes  int64 `json:"quarantine_probes"`
	QuarantineHeals   int64 `json:"quarantine_heals"`
	QueueRejections   int64 `json:"queue_rejections"`
	BacklogRejections int64 `json:"backlog_rejections"`
	// Cluster-mode counters (all zero when Options.Cluster is unset).
	ClusterLeaseAcquired int64 `json:"cluster_lease_acquired"`
	ClusterLeaseRenewals int64 `json:"cluster_lease_renewals"`
	ClusterNotOwner      int64 `json:"cluster_not_owner"`
	ClusterFenced        int64 `json:"cluster_fenced"`
	ClusterPeekHits      int64 `json:"cluster_peek_hits"`
	ClusterPeekMisses    int64 `json:"cluster_peek_misses"`
	ClusterPeekStores    int64 `json:"cluster_peek_stores"`
}

// Service manages long-lived EC sessions sharing a solve cache, an
// incumbent store, and a worker-pool executor.
type Service struct {
	opts  Options
	cache *solveCache
	exec  *pool
	// cnf is the CNF adapter configured with the service's EC policies;
	// it shadows the registry entry of the same name so Options.Fast and
	// Options.Preserve keep their meaning.
	cnf domain.Domain

	mu       sync.Mutex
	closed   bool                // guarded by mu
	sessions map[string]*Session // guarded by mu
	// persisted holds the ids that live only in the store (recovered at
	// startup, evicted, or TTL-expired); a touch rehydrates them back
	// into sessions. The two maps are disjoint. Guarded by mu.
	persisted map[string]bool
	// evicting holds ids mid-detachment: removed from sessions but whose
	// final snapshot is still being cut. Lookups wait on the channel, so
	// a rehydration can never race a detaching instance's last journal
	// appends (which would fork the session). Guarded by mu.
	evicting map[string]chan struct{}
	// creating reserves explicit ids between the duplicate check and the
	// session's registration, so two concurrent creates of one id cannot
	// both succeed. Guarded by mu, as is nextID.
	creating map[string]bool
	nextID   int64 // guarded by mu

	// sweepStop/sweepDone bracket the TTL sweeper goroutine;
	// probeStop/probeDone bracket the quarantine re-probe loop.
	sweepStop chan struct{}
	sweepDone chan struct{}
	probeStop chan struct{}
	probeDone chan struct{}

	imu        sync.Mutex
	incumbents map[string]incumbent // guarded by imu

	// draining flips /readyz to 503 ahead of graceful shutdown (see
	// StartDraining in cluster.go).
	draining atomic.Bool

	// metrics are the service counters and sobs the other instruments
	// (solve phases, store latency, the HTTP seam), all on opts.Obs.
	// sobs is never nil after New.
	metrics Metrics
	sobs    *serviceObs
}

// incumbent pairs a stored solution with the domain that can clone it.
type incumbent struct {
	d   domain.Domain
	sol any
}

// New creates a Service. Close it when done to stop the executor workers
// (and, when a Store is configured, to flush final snapshots and close
// the store). With a Store, every session persisted by a previous run is
// recovered: immediately listed, and rehydrated on first touch.
func New(opts Options) *Service {
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = defaultCacheSize
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = defaultMaxSessions
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	opts.StoreRetry = opts.StoreRetry.withDefaults()
	if opts.QuarantineAfter <= 0 {
		opts.QuarantineAfter = defaultQuarantineAfter
	}
	if opts.ReprobeInterval == 0 {
		opts.ReprobeInterval = defaultReprobeInterval
	}
	if opts.MaxPending == 0 {
		opts.MaxPending = defaultMaxPending
	}
	if opts.MaxBacklog == 0 {
		opts.MaxBacklog = defaultBacklogFactor * opts.Workers
	}
	if opts.Obs == nil {
		// A private registry rather than a nil sink: /metrics then serves
		// real data on every node even when the operator wired nothing up.
		opts.Obs = obs.NewRegistry()
	}
	sobs := newServiceObs(opts)
	if opts.Store != nil {
		opts.Store = store.NewInstrumented(opts.Store, sobs.storeRecorder(store.BackendName(opts.Store)))
	}
	s := &Service{
		opts:    opts,
		metrics: newMetrics(opts.Obs),
		sobs:    sobs,
		cache:   newSolveCache(opts.CacheSize),
		exec:    newPool(opts.Workers, opts.MaxBacklog),
		cnf: core.CNFWith(core.CNFOptions{
			Fast:     core.FastOptions{Minimal: opts.Fast.Minimal},
			Preserve: opts.Preserve,
		}),
		sessions:   make(map[string]*Session),
		persisted:  make(map[string]bool),
		evicting:   make(map[string]chan struct{}),
		creating:   make(map[string]bool),
		incumbents: make(map[string]incumbent),
	}
	opts.Obs.GaugeFunc("ec_service_sessions_live", "Sessions held in memory.",
		func() int64 { live, _ := s.sessionCounts(); return int64(live) })
	opts.Obs.GaugeFunc("ec_service_cache_entries", "Entries in the solve cache.",
		func() int64 { return int64(s.cache.len()) })
	opts.Obs.GaugeFunc("ec_service_sessions_persisted", "Sessions that live only in the store (evicted, expired, or not yet rehydrated).",
		func() int64 { _, stored := s.sessionCounts(); return int64(stored) })
	opts.Obs.GaugeFunc("ec_service_sessions_degraded", "Live sessions quarantined to memory-only service.",
		func() int64 { return int64(len(s.DegradedSessions())) })
	if s.hasStore() {
		s.recoverSessions()
		if opts.ReprobeInterval > 0 {
			s.probeStop = make(chan struct{})
			s.probeDone = make(chan struct{})
			go s.probeLoop()
		}
	}
	if opts.SessionTTL > 0 {
		s.sweepStop = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweepLoop()
	}
	return s
}

// Domains lists the domain names this service can serve, sorted.
func (s *Service) Domains() []string {
	if s.opts.Domains != nil {
		return s.opts.Domains.Names()
	}
	return domain.Names()
}

// DomainByName resolves a domain adapter for this service. The CNF
// adapter carries the service's configured EC policies.
func (s *Service) DomainByName(name string) (domain.Domain, bool) {
	if name == s.cnf.Name() {
		return s.cnf, true
	}
	if s.opts.Domains != nil {
		return s.opts.Domains.Get(name)
	}
	return domain.Get(name)
}

// CreateSession registers a new CNF session for formula f (deep-copied;
// the caller keeps ownership of f). cfg carries optional per-session
// overrides. It is shorthand for CreateDomainSession("cnf", f, cfg).
func (s *Service) CreateSession(f *cnf.Formula, cfg SessionConfig) (*Session, error) {
	if f == nil {
		return nil, fmt.Errorf("service: nil formula")
	}
	return s.CreateDomainSession("cnf", f, cfg)
}

// CreateDomainSession registers a new session for a problem of the named
// domain (deep-copied; the caller keeps ownership). cfg carries optional
// per-session overrides.
func (s *Service) CreateDomainSession(domainName string, problem any, cfg SessionConfig) (*Session, error) {
	return s.createSession("", domainName, problem, cfg)
}

// CreateDomainSessionWithID is CreateDomainSession with a caller-chosen
// session id — cmd/ecrouter mints ids up front so a create can be
// consistent-hashed onto its ring owner before the session exists. The
// id must satisfy store.ValidateID, must not use the reserved _cluster_
// prefix, and must be free (ErrSessionExists otherwise; in cluster mode
// the check runs under the freshly acquired session lease, so racing
// creates of one id across nodes serialize through the store's CAS).
func (s *Service) CreateDomainSessionWithID(id, domainName string, problem any, cfg SessionConfig) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("service: empty session id")
	}
	if err := store.ValidateID(id); err != nil {
		return nil, fmt.Errorf("service: session id: %w", err)
	}
	if cluster.IsMetaID(id) {
		return nil, fmt.Errorf("service: session id %q uses a reserved prefix", id)
	}
	return s.createSession(id, domainName, problem, cfg)
}

func (s *Service) createSession(id, domainName string, problem any, cfg SessionConfig) (*Session, error) {
	d, ok := s.DomainByName(domainName)
	if !ok {
		return nil, fmt.Errorf("service: unknown domain %q (have %v)", domainName, s.Domains())
	}
	if problem == nil {
		return nil, fmt.Errorf("service: nil problem")
	}
	if err := d.Validate(problem); err != nil {
		return nil, fmt.Errorf("service: invalid problem: %w", err)
	}
	strategy := s.opts.Strategy
	if cfg.Strategy != nil {
		strategy = *cfg.Strategy
	}
	solve := s.opts.Solve
	if cfg.Solve != nil {
		solve = *cfg.Solve
	}
	explicit := id != ""
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: closed")
	}
	if len(s.sessions)+len(s.persisted)+len(s.evicting) >= s.opts.MaxSessions {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: session limit (%d) reached", s.opts.MaxSessions)
	}
	if explicit {
		_, live := s.sessions[id]
		_, ev := s.evicting[id]
		if live || ev || s.persisted[id] || s.creating[id] {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
		}
		s.creating[id] = true
		defer func() {
			s.mu.Lock()
			delete(s.creating, id)
			s.mu.Unlock()
		}()
	} else {
		s.nextID++
		if s.clustered() {
			// Node-salted auto ids: every node starts counting at 1, so bare
			// "s<n>" ids would collide in the shared store.
			id = fmt.Sprintf("%s-s%d", s.opts.Cluster.ID(), s.nextID)
		} else {
			id = fmt.Sprintf("s%d", s.nextID)
		}
	}
	s.mu.Unlock()

	var lease cluster.Lease
	if s.clustered() {
		node := s.opts.Cluster
		// AcquireForCreate, not Acquire: a create deliberately reuses an id,
		// so a deletion tombstone on it is reclaimed rather than refused.
		ls, reclaimed, err := node.Leases().AcquireForCreate(id, node.ID(), node.LeaseTTL(), node.Now())
		switch {
		case err == nil:
			lease = ls
			s.metrics.ClusterLeaseAcquired.Add(1)
			if reclaimed && s.hasStore() {
				// The id carried a tombstone: scrub any orphaned session data
				// a failed delete left behind, under the fresh lease so no
				// other node can race the cleanup, and before the existence
				// check below so the orphan cannot masquerade as a live
				// duplicate.
				if derr := s.opts.Store.Delete(id); derr != nil && !errors.Is(derr, store.ErrNotFound) {
					node.Leases().Release(lease) //nolint:errcheck // best effort
					return nil, derr
				}
			}
		case errors.Is(err, cluster.ErrLeaseHeld):
			s.metrics.ClusterNotOwner.Add(1)
			return nil, notOwnerErr(id, leaseHolderOf(err))
		case store.IsTransient(err):
			// Store outage: proceed lease-less — the session is born
			// quarantined below and the first healthy touch acquires the
			// lease (nobody else can acquire it during the outage either).
		default:
			return nil, err
		}
		if explicit && lease.Holder != "" {
			// Under our lease, check for a session a peer already created.
			if _, _, err := s.opts.Store.Load(id); err == nil {
				node.Leases().Release(lease) //nolint:errcheck // best effort
				return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
			} else if !errors.Is(err, store.ErrNotFound) && !store.IsTransient(err) {
				node.Leases().Release(lease) //nolint:errcheck // best effort
				return nil, err
			}
		}
	} else if explicit && s.hasStore() {
		if _, _, err := s.opts.Store.Load(id); err == nil {
			return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
		}
	}

	sess := &Session{
		id:       id,
		svc:      s,
		dom:      d,
		problem:  d.CloneProblem(problem),
		strategy: strategy,
		solve:    solve,
		// The session's cut pool lives alongside its incumbent solution:
		// re-solves after a change batch reuse the cuts of unchanged rows
		// (the pool keys by row content, so the domain's change
		// fingerprint implicitly invalidates exactly the touched rows).
		cuts: ilp.NewCutPool(),
	}
	sess.lease = lease
	s.touch(sess)
	// Durable birth: the initial snapshot must land before the session is
	// acknowledged, so a crash right after creation still recovers it.
	// The id is already reserved, so the store write (fsync + renames on
	// the file backend) happens outside the service lock. A TRANSIENT
	// birth failure does not refuse the session: it is born quarantined
	// (memory-only, visibly degraded) and the re-probe writes the missing
	// snapshot when the store recovers — a dead disk degrades the service
	// instead of taking it down.
	if s.hasStore() {
		if err := sess.persistSnapshotLocked(); err != nil {
			if !store.IsTransient(err) {
				return nil, fmt.Errorf("service: persist session: %w", err)
			}
			// persistSnapshotLocked may already have quarantined the session
			// (QuarantineAfter reached); otherwise one unwritable birth
			// snapshot is evidence enough — quarantine immediately.
			if !sess.degraded.Load() {
				sess.persistFails = s.opts.QuarantineAfter
				sess.degraded.Store(true)
				s.metrics.Quarantines.Add(1)
			}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if s.hasStore() {
			s.opts.Store.Delete(id) //nolint:errcheck // undo the orphaned birth snapshot
		}
		sess.mu.Lock()
		sess.releaseLeaseLocked()
		sess.mu.Unlock()
		return nil, fmt.Errorf("service: closed")
	}
	s.sessions[id] = sess
	s.metrics.SessionsCreated.Add(1)
	s.mu.Unlock()
	s.enforceLiveLimit()
	return sess, nil
}

// Session looks a session up by id. A live session is returned directly;
// a persisted-but-evicted (or freshly recovered) session is transparently
// rehydrated from the store — snapshot loaded, journal tail replayed, the
// persisted solution installed as warm-start material — and re-registered
// as live. In cluster mode ownership is additionally enforced; use
// LookupSession when the reason for a miss matters.
func (s *Service) Session(id string) (*Session, bool) {
	sess, err := s.LookupSession(id)
	return sess, err == nil
}

// ErrUnknownSession reports a lookup of an id the service has never seen
// (or whose session was deleted).
var ErrUnknownSession = errors.New("service: unknown session")

// LookupSession is Session with a typed error: ErrUnknownSession for a
// genuinely missing session, ErrNotOwner when another cluster node holds
// the session's lease (retryable — the router re-routes), or a transient
// store error. In cluster mode the lookup proves ownership: the cached
// lease is validated (and renewed near expiry), and a session found only
// in the shared store is rehydrated strictly AFTER its lease is won.
func (s *Service) LookupSession(id string) (*Session, error) {
	if cluster.IsMetaID(id) {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	s.mu.Lock()
	if sess, ok := s.sessions[id]; ok {
		if !sess.fenced.Load() {
			s.touch(sess)
			s.mu.Unlock()
			if s.clustered() {
				sess.mu.Lock()
				err := sess.ensureLeaseLocked()
				sess.mu.Unlock()
				if err != nil {
					if errors.Is(err, ErrNotOwner) {
						s.metrics.ClusterNotOwner.Add(1)
						s.dropFenced(id, sess)
					}
					return nil, err
				}
			}
			return sess, nil
		}
		// Fenced: the durable state belongs to the new owner. Drop our
		// stale copy and fall through to the ownership path below.
		delete(s.sessions, id)
		if s.hasStore() {
			s.persisted[id] = true
		}
	}
	if ch, ok := s.evicting[id]; ok {
		// Mid-eviction: wait for the final snapshot to land, then retry —
		// rehydrating now would miss the detaching instance's last
		// journal appends.
		s.mu.Unlock()
		<-ch
		return s.LookupSession(id)
	}
	known := s.persisted[id]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if !known && !(s.clustered() && s.hasStore()) {
		// Single-node: the startup recovery scan is authoritative. In
		// cluster mode a peer may have created the session after our scan,
		// so fall through and let the shared store decide.
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}

	if s.clustered() && !known && s.hasStore() {
		// The id is unknown locally, so prove it exists in the shared store
		// BEFORE touching the lease layer: acquiring first would durably
		// mint a _cluster_lease_ meta session per probed id, an unbounded
		// write amplification for garbage lookups. Transient store trouble
		// falls through — the acquire surfaces it with transience intact.
		if _, _, err := s.opts.Store.Load(id); errors.Is(err, store.ErrNotFound) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
		}
	}

	var lease cluster.Lease
	if s.clustered() {
		ls, err := s.acquireForRehydrate(id)
		if err != nil {
			if errors.Is(err, cluster.ErrSessionDeleted) {
				// Deleted cluster-wide. Unregister locally; leave the store
				// and tombstone alone (an explicit re-create owns them now).
				s.mu.Lock()
				delete(s.persisted, id)
				s.mu.Unlock()
				return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
			}
			return nil, err
		}
		lease = ls
	}
	releaseLease := func() {
		if s.clustered() && lease.Holder != "" {
			s.opts.Cluster.Leases().Release(lease) //nolint:errcheck // best effort
		}
	}
	sess, err := s.rehydrate(id)
	if err != nil {
		if store.IsTransient(err) {
			releaseLease()
			return nil, err
		}
		if s.clustered() && lease.Holder != "" && errors.Is(err, store.ErrNotFound) {
			// No durable state after all (the existence probe raced a
			// delete): drop the freshly minted lease meta instead of
			// leaking it forever.
			s.opts.Cluster.Leases().Drop(id) //nolint:errcheck // best effort
		} else {
			releaseLease()
		}
		return nil, fmt.Errorf("%w: %q (%v)", ErrUnknownSession, id, err)
	}
	sess.lease = lease // pre-publication; no lock needed
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		releaseLease()
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	if live, ok := s.sessions[id]; ok {
		// A concurrent touch won the rehydration race; both rebuilt the
		// same durable state (and in cluster mode both hold OUR node's
		// lease — Acquire is idempotent for the holder), so ours is
		// simply dropped.
		s.touch(live)
		s.mu.Unlock()
		return live, nil
	}
	if known && !s.persisted[id] {
		s.mu.Unlock() // deleted while we were loading
		releaseLease()
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	delete(s.persisted, id)
	s.sessions[id] = sess
	s.touch(sess)
	s.metrics.Rehydrations.Add(1)
	s.mu.Unlock()
	s.enforceLiveLimit()
	return sess, nil
}

// dropFenced removes a fenced session from the live map (its id stays
// reachable through the persisted map so a later lease win rehydrates
// the successor's state).
func (s *Service) dropFenced(id string, sess *Session) {
	s.mu.Lock()
	if cur, ok := s.sessions[id]; ok && cur == sess {
		delete(s.sessions, id)
		if s.hasStore() {
			s.persisted[id] = true
		}
	}
	s.mu.Unlock()
}

// Sessions returns the ids of all sessions — live and persisted — sorted.
func (s *Service) Sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sessions)+len(s.persisted)+len(s.evicting))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	for id := range s.persisted {
		ids = append(ids, id)
	}
	for id := range s.evicting {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

const (
	defaultSessionPage = 1000
	maxSessionPage     = 10000
)

// SessionPage returns one page of session ids in sorted order, starting
// strictly after the `after` cursor ("" starts at the beginning). limit
// ≤ 0 takes the default page size (1000); it is capped at 10000. When
// the page was truncated, next is the cursor of the following page (its
// last returned id); next == "" means this was the final page.
func (s *Service) SessionPage(after string, limit int) (ids []string, next string) {
	if limit <= 0 {
		limit = defaultSessionPage
	}
	if limit > maxSessionPage {
		limit = maxSessionPage
	}
	all := s.Sessions()
	if after != "" {
		i := sort.SearchStrings(all, after)
		if i < len(all) && all[i] == after {
			i++
		}
		all = all[i:]
	}
	if len(all) > limit {
		all = all[:limit]
		next = all[limit-1]
	}
	return all, next
}

// LiveSessions returns the ids currently held in memory, sorted.
func (s *Service) LiveSessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CloseSession removes a session from memory AND from the store; it
// reports whether the id existed.
func (s *Service) CloseSession(id string) bool {
	s.mu.Lock()
	if ch, ok := s.evicting[id]; ok {
		s.mu.Unlock()
		<-ch // let the in-flight eviction settle, then close for real
		return s.CloseSession(id)
	}
	sess, live := s.sessions[id]
	stored := s.persisted[id]
	delete(s.sessions, id)
	delete(s.persisted, id)
	s.mu.Unlock()
	if !live && !stored {
		return false
	}
	if live {
		sess.mu.Lock()
		sess.closed = true
		sess.mu.Unlock()
	}
	if s.clustered() {
		// Tombstone the lease BEFORE deleting the data: once the data is
		// gone, a stale former owner re-acquiring the lapsed lease would
		// otherwise resurrect the session from its in-memory copy (its next
		// snapshot recreates the store state). With the tombstone in place
		// that acquire fails ErrSessionDeleted instead. Best effort — if
		// another node holds a live lease the delete proceeds as before and
		// CAS fencing bounds the damage.
		node := s.opts.Cluster
		node.Leases().MarkDeleted(id, node.ID(), node.Now()) //nolint:errcheck // best effort
	}
	if s.hasStore() {
		s.opts.Store.Delete(id) //nolint:errcheck // best effort; List re-reads the disk
	}
	s.metrics.SessionsClosed.Add(1)
	return true
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() MetricsSnapshot {
	live, stored := s.sessionCounts()
	m := &s.metrics
	return MetricsSnapshot{
		SessionsLive:     live,
		SessionsCreated:  m.SessionsCreated.Value(),
		SessionsClosed:   m.SessionsClosed.Value(),
		ChangesQueued:    m.ChangesQueued.Value(),
		Batches:          m.Batches.Value(),
		DuplicateBatches: m.DuplicateBatches.Value(),
		Solves:           m.Solves.Value(),
		SolverRuns:       m.SolverRuns.Value(),
		CacheHits:        m.CacheHits.Value(),
		CacheMisses:      m.CacheMisses.Value(),
		CacheEntries:     s.cache.len(),
		RelaxFastPaths:   m.RelaxFastPaths.Value(),
		IncumbentHits:    m.IncumbentHits.Value(),
		TruncatedSolves:  m.TruncatedSolves.Value(),
		PresolveFixed:    m.PresolveFixed.Value(),
		PresolveRows:     m.PresolveRows.Value(),
		CutsAdded:        m.CutsAdded.Value(),
		CutsReused:       m.CutsReused.Value(),
		CutTightenings:   m.CutTightenings.Value(),

		InstanceReuses:    m.InstanceReuses.Value(),
		InstanceRebuilds:  m.InstanceRebuilds.Value(),
		InstanceRowsDelta: m.InstanceRowsDelta.Value(),
		ReseparatedRows:   m.ReseparatedRows.Value(),

		SessionsPersisted: stored,
		JournalAppends:    m.JournalAppends.Value(),
		SnapshotsWritten:  m.SnapshotsWritten.Value(),
		Recoveries:        m.Recoveries.Value(),
		Rehydrations:      m.Rehydrations.Value(),
		Evictions:         m.Evictions.Value(),
		TTLExpirations:    m.TTLExpirations.Value(),

		SessionsDegraded:  len(s.DegradedSessions()),
		JournalRetries:    m.JournalRetries.Value(),
		SnapshotFailures:  m.SnapshotFailures.Value(),
		Quarantines:       m.Quarantines.Value(),
		QuarantineProbes:  m.QuarantineProbes.Value(),
		QuarantineHeals:   m.QuarantineHeals.Value(),
		QueueRejections:   m.QueueRejections.Value(),
		BacklogRejections: m.BacklogRejections.Value(),

		ClusterLeaseAcquired: m.ClusterLeaseAcquired.Value(),
		ClusterLeaseRenewals: m.ClusterLeaseRenewals.Value(),
		ClusterNotOwner:      m.ClusterNotOwner.Value(),
		ClusterFenced:        m.ClusterFenced.Value(),
		ClusterPeekHits:      m.ClusterPeekHits.Value(),
		ClusterPeekMisses:    m.ClusterPeekMisses.Value(),
		ClusterPeekStores:    m.ClusterPeekStores.Value(),
	}
}

// sessionCounts returns the sessions held in memory and those that
// live only in the store.
func (s *Service) sessionCounts() (live, stored int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions), len(s.persisted)
}

// Close drops all sessions and stops the executor. In-flight solves
// finish; subsequent Solve calls fail. With a Store, every live session
// is flushed with a final compaction snapshot (all journal fsyncs have
// already happened at append time) and the store is closed — the graceful
// drain contract cmd/ecserve relies on.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.sessions = make(map[string]*Session)
	s.mu.Unlock()
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
	}
	if s.probeStop != nil {
		close(s.probeStop)
		<-s.probeDone
	}
	for _, sess := range live {
		s.retire(sess)
	}
	if s.hasStore() {
		s.opts.Store.Close() //nolint:errcheck // shutdown path
	}
	s.metrics.SessionsClosed.Add(int64(len(live)))
	s.exec.close()
}

// cachedSolve routes one solve through the cache and, on a miss, the
// executor pool. clone deep-copies cached values before they escape.
// compute reports cache eligibility alongside its value: only proven
// (optimal/infeasible) results may be stored (see solveCache.do). ctx
// aborts both the wait for a worker slot and — through the solver
// options — the search itself.
func (s *Service) cachedSolve(ctx context.Context, key string, clone func(any) any, compute func() (any, bool, error)) (any, bool, error) {
	// Phase accounting: the owner's closure runs synchronously in this
	// goroutine (cache.do) and pool.run blocks until the worker finishes,
	// so the closure-local `missed` and the phase records are race-free.
	entry := time.Now()
	missed := false
	val, hit, err := s.cache.do(ctx, key, clone, func() (any, bool, error) {
		missed = true
		s.sobs.phase(ctx, "cache_lookup", time.Since(entry))
		var v any
		var ok bool
		var cerr error
		enq := time.Now()
		if perr := s.exec.run(ctx, func() {
			s.sobs.phase(ctx, "queue_wait", time.Since(enq))
			v, ok, cerr = compute()
		}); perr != nil {
			if errors.Is(perr, ErrOverloaded) {
				s.metrics.BacklogRejections.Add(1)
			}
			return nil, false, perr
		}
		return v, ok, cerr
	})
	if !missed {
		// A hit or an in-flight join: the whole wait was cache time.
		s.sobs.phase(ctx, "cache_lookup", time.Since(entry))
	}
	if hit {
		s.metrics.CacheHits.Add(1)
	} else {
		s.metrics.CacheMisses.Add(1)
	}
	return val, hit, err
}

// noteSolverResult folds one kernel result into the service counters
// and lays its phase timings onto the request trace. A Feasible/Unknown
// status means a node/time limit or a cancelled request truncated the
// search.
func (s *Service) noteSolverResult(ctx context.Context, res ilp.Result) {
	s.sobs.solverPhases(ctx, res.PresolveTime, res.CutSepTime, res.SearchTime)
	if res.Status == ilp.Feasible || res.Status == ilp.Unknown {
		s.metrics.TruncatedSolves.Add(1)
	}
	s.metrics.PresolveFixed.Add(res.PresolveFixed)
	s.metrics.PresolveRows.Add(res.PresolveRows)
	s.metrics.CutsAdded.Add(res.CutsAdded)
	s.metrics.CutsReused.Add(res.CutsReused)
	s.metrics.CutTightenings.Add(res.CutTightenings)
	s.metrics.InstanceRowsDelta.Add(res.RowsDelta)
	s.metrics.ReseparatedRows.Add(res.ReseparatedRows)
}

// incumbent returns the stored solution for a problem key, if any.
func (s *Service) incumbent(key string) any {
	s.imu.Lock()
	defer s.imu.Unlock()
	if inc, ok := s.incumbents[key]; ok {
		return inc.d.CloneSolution(inc.sol)
	}
	return nil
}

// storeIncumbent records a solution for a problem key, shared across
// sessions as warm-start material. The store is bounded by the cache size.
func (s *Service) storeIncumbent(key string, d domain.Domain, sol any) {
	s.imu.Lock()
	defer s.imu.Unlock()
	if len(s.incumbents) >= s.opts.CacheSize {
		// Evict an arbitrary entry: the store is a best-effort accelerator.
		for k := range s.incumbents {
			delete(s.incumbents, k)
			break
		}
	}
	s.incumbents[key] = incumbent{d: d, sol: d.CloneSolution(sol)}
}
