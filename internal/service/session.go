package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/ilp"
	"ilpec/internal/obs"
)

// Session is one long-lived engineering-change session: a live problem of
// some registered domain, the current solution, and a queue of pending
// changes (ILP encodings are built per solver run, inside the compute
// closures, so cache-served answers never pay for one). Changes
// accumulate via Queue/QueueChanges and are coalesced into a single EC
// pass by the next Solve call — N posted changes cost one re-solve, not
// N. All methods are safe for concurrent use; a session's solves are
// serialized by its own lock while different sessions proceed in parallel
// on the service's executor pool.
type Session struct {
	id  string
	svc *Service
	dom domain.Domain

	// mu is the per-session lock: it serializes this session's queue and
	// solve operations while independent sessions run in parallel.
	mu       sync.Mutex
	problem  any             // guarded by mu; wal:committed
	solution any             // guarded by mu; wal:committed
	pending  []any           // guarded by mu; wal:committed
	strategy domain.Strategy // guarded by mu
	solve    ilp.Options     // guarded by mu
	// cuts is the session's retained cut pool (used when the session's
	// solver options enable Cuts, on every solve but a Replan batch
	// re-solve, which runs without cuts): separated cutting planes keyed by
	// source-row content, so an EC re-solve only pays separation for the
	// rows the change batch touched. Solves are serialized under mu, so
	// the pool is never shared between concurrent searches. Guarded by mu.
	cuts *ilp.CutPool
	// inst is the session's persistent solver instance (nil until the
	// first instance-path solve, after an invalidation, and on a session
	// rebuilt from the store): a live model whose warm start survives
	// across EC re-solves, and whose kernel and LP basis survive across
	// Replan batch re-solves (which run with presolve and cuts off).
	// Drained change batches sync onto it as row deltas when the domain
	// implements DeltaEncoder; batches that cannot be
	// expressed as deltas (or any solve error) invalidate it, and the
	// next instance-path solve rebuilds it from the committed problem.
	// Options.DisableInstance turns the path off service-wide.
	// Guarded by mu.
	inst  *domain.Instance
	stats sessionStats // guarded by mu

	// closed marks a session that was evicted, TTL-expired, or deleted:
	// stale pointers error instead of mutating a detached copy (the live
	// state is in the store; Service.Session rehydrates it). Guarded by mu.
	closed bool
	// seq is the last write-ahead journal sequence number; tailLen counts
	// journal records since the last snapshot (SnapshotEvery compaction).
	// Both guarded by mu.
	seq     uint64
	tailLen int
	// persistFails counts consecutive exhausted-retries store failures; at
	// Options.QuarantineAfter the session degrades to memory-only serving
	// (degraded), keeping seq advancing logically so the heal snapshot
	// supersedes the stale journal. degraded is atomic so read-side paths
	// (Info, metrics, the probe loop's scan) need not take mu.
	persistFails int // guarded by mu
	degraded     atomic.Bool
	// ackLostSeq is the journal seq of the most recent append that failed
	// with its durability UNKNOWN (e.g. a failed fsync: the write may have
	// landed while the acknowledgement was lost). A later append for that
	// seq that hits ErrSeqConflict is thereby recognized as "the earlier
	// attempt did land" and accepted; forceCompact then schedules a prompt
	// snapshot so the journal record is superseded either way. Both
	// guarded by mu.
	ackLostSeq   uint64
	forceCompact bool
	// recentBatches holds the idempotency keys of the most recently
	// accepted change batches (oldest first, bounded at maxRecentBatches).
	// A QueueChangesKeyed call whose key is present is a client replay —
	// the batch is already journaled — and is acknowledged without being
	// applied again. The keys are persisted (Record.BatchID on the journal
	// record, Snapshot.RecentBatches on compaction) so dedup survives
	// rehydration on this node or a failover successor. Guarded by mu.
	recentBatches []string
	// lastUsed is the unix-nano last-touch stamp driving LRU eviction and
	// the TTL sweep.
	lastUsed atomic.Int64
	// lease is this node's ownership claim on the session (cluster mode;
	// zero otherwise). Guarded by mu except during construction.
	lease cluster.Lease
	// fenced marks a session whose lease was definitively lost to another
	// node: its durable state belongs to the new owner, so every further
	// operation is refused with ErrNotOwner and nothing may be persisted
	// from this copy again. Atomic so lookups can test it without mu.
	fenced atomic.Bool
}

type sessionStats struct {
	changesQueued int64
	batches       int64
	solves        int64
	cacheHits     int64
}

// SolveResult reports one Session.Solve outcome.
type SolveResult struct {
	// Assignment is the current solution for CNF sessions (a clone; safe
	// to keep; nil on other domains — use Solution).
	Assignment cnf.Assignment `json:"-"`
	// Solution is the current domain solution (a clone; safe to keep).
	Solution any `json:"-"`
	// Status names the pass taken: "initial", "noop", "relaxed", "fast",
	// "preserving", or "replan".
	Status string `json:"status"`
	// Batched is the number of queued changes coalesced into this pass.
	Batched int `json:"batched"`
	// Cached is true when the answer came from the solve cache (including
	// joining an identical in-flight solve) instead of running the solver.
	Cached bool `json:"cached"`
	// Preserved is the preserved fraction vs. the pre-batch solution
	// (batch passes only).
	Preserved float64 `json:"preserved"`
	// DontCares counts uncommitted decisions in the solution (CNF only).
	DontCares int `json:"dont_cares"`
	// SubVars/SubClauses are the fast-EC sub-instance sizes — re-decided
	// units and sub-model rows (fast passes that ran the solver; zero on
	// cache hits and other strategies).
	SubVars    int `json:"sub_vars,omitempty"`
	SubClauses int `json:"sub_clauses,omitempty"`
	// Runtime is the wall-clock duration of this call.
	Runtime time.Duration `json:"runtime_ns"`
}

// SessionInfo is a point-in-time summary of a session.
type SessionInfo struct {
	ID string `json:"id"`
	// Domain names the session's problem domain.
	Domain string `json:"domain"`
	// Vars and Clauses are the domain's decision-unit and constraint
	// counts (variables/clauses, vertices/edges, ops/deps, ...).
	Vars     int    `json:"vars"`
	Clauses  int    `json:"clauses"`
	Pending  int    `json:"pending"`
	Solved   bool   `json:"solved"`
	Strategy string `json:"strategy"`
	// Degraded marks a quarantined session: persistence kept failing, so it
	// is served memory-only until a store re-probe heals it. Its durable
	// state is stale — a crash now would lose the changes accepted since
	// quarantine began.
	Degraded      bool  `json:"degraded,omitempty"`
	DontCares     int   `json:"dont_cares"`
	ChangesQueued int64 `json:"changes_queued"`
	Batches       int64 `json:"batches"`
	Solves        int64 `json:"solves"`
	CacheHits     int64 `json:"cache_hits"`
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Domain returns the session's domain name.
func (s *Session) Domain() string { return s.dom.Name() }

// Queue appends CNF changes to the pending batch without solving; it
// returns the pending count. It is shorthand for QueueChanges on a CNF
// session.
func (s *Session) Queue(changes ...core.Change) (int, error) {
	anyChanges := make([]any, len(changes))
	for i, c := range changes {
		anyChanges[i] = c
	}
	return s.QueueChanges(anyChanges...)
}

// QueueChanges appends domain changes to the pending batch without
// solving; it returns the pending count. The batch is validated and
// applied atomically by the next Solve. On a durable service the batch is
// journaled (wire-encoded and fsync'd) BEFORE it is acknowledged, so an
// accepted change survives a crash; the error reports a detached session
// or a failed journal append, and in either case nothing was queued.
func (s *Session) QueueChanges(changes ...any) (int, error) {
	pending, _, err := s.QueueChangesKeyed("", changes...)
	return pending, err
}

// maxRecentBatches bounds the idempotency keys a session remembers (in
// memory and in its snapshot). A retrying client replays a batch within
// a handful of attempts, so the window only needs to outlast one retry
// storm — 128 batches is orders of magnitude past that.
const maxRecentBatches = 128

// QueueChangesKeyed is QueueChanges with a client-supplied idempotency
// key. A non-empty key that matches an already-accepted batch means the
// call is a retry of a request whose response was lost (the router never
// replays non-idempotent requests, but the CLIENT retries through 502s):
// the batch is acknowledged as duplicate=true without being queued
// again, keeping replays exactly-once. An empty key disables dedup.
func (s *Session) QueueChangesKeyed(key string, changes ...any) (pending int, duplicate bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, false, fmt.Errorf("service: session %s is closed (re-fetch it by id)", s.id)
	}
	if key != "" && s.seenBatchLocked(key) {
		s.svc.metrics.DuplicateBatches.Add(1)
		s.svc.touch(s)
		return len(s.pending), true, nil
	}
	if max := s.svc.opts.MaxPending; max > 0 && len(s.pending)+len(changes) > max {
		s.svc.metrics.QueueRejections.Add(1)
		return len(s.pending), false, fmt.Errorf("%w (%d pending, limit %d)", ErrQueueFull, len(s.pending), max)
	}
	if err := s.persistQueueLocked(context.Background(), key, changes); err != nil {
		return len(s.pending), false, err
	}
	s.pending = append(s.pending, changes...)
	s.recentBatches = appendBatchKey(s.recentBatches, key)
	s.stats.changesQueued += int64(len(changes))
	s.svc.metrics.ChangesQueued.Add(int64(len(changes)))
	s.svc.touch(s)
	s.maybeCompactLocked()
	return len(s.pending), false, nil
}

// seenBatchLocked reports whether key identifies an already-accepted
// batch. Linear scan: the window is small (maxRecentBatches). Caller
// holds s.mu.
func (s *Session) seenBatchLocked(key string) bool {
	for _, k := range s.recentBatches {
		if k == key {
			return true
		}
	}
	return false
}

// appendBatchKey records one accepted batch key, keeping the window
// bounded (empty keys are not recorded).
func appendBatchKey(keys []string, key string) []string {
	if key == "" {
		return keys
	}
	keys = append(keys, key)
	if len(keys) > maxRecentBatches {
		keys = keys[len(keys)-maxRecentBatches:]
	}
	return keys
}

// Pending returns the number of queued, not yet applied changes.
func (s *Session) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Solution returns a clone of the current CNF solution (nil before the
// first Solve and on non-CNF sessions — use SolutionValue).
func (s *Session) Solution() cnf.Assignment {
	if a, ok := s.SolutionValue().(cnf.Assignment); ok {
		return a
	}
	return nil
}

// SolutionValue returns a clone of the current domain solution (nil
// before the first Solve).
func (s *Session) SolutionValue() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.solution == nil {
		return nil
	}
	return s.dom.CloneSolution(s.solution)
}

// Formula returns a clone of the current formula (nil on non-CNF
// sessions — use Problem).
func (s *Session) Formula() *cnf.Formula {
	if f, ok := s.Problem().(*cnf.Formula); ok {
		return f
	}
	return nil
}

// Problem returns a clone of the current domain problem.
func (s *Session) Problem() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dom.CloneProblem(s.problem)
}

// Info summarizes the session.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	units, constraints := s.dom.ProblemSize(s.problem)
	info := SessionInfo{
		ID:            s.id,
		Domain:        s.dom.Name(),
		Vars:          units,
		Clauses:       constraints,
		Pending:       len(s.pending),
		Solved:        s.solution != nil,
		Strategy:      s.strategy.String(),
		Degraded:      s.degraded.Load(),
		ChangesQueued: s.stats.changesQueued,
		Batches:       s.stats.batches,
		Solves:        s.stats.solves,
		CacheHits:     s.stats.cacheHits,
	}
	if s.solution != nil {
		info.DontCares = s.dom.DontCares(s.problem, s.solution)
	}
	return info
}

// FlexReport audits the current solution's flexibility at level k (§5).
func (s *Session) FlexReport(k int) (domain.FlexReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.solution == nil {
		return domain.FlexReport{}, fmt.Errorf("service: session %s has no solution yet", s.id)
	}
	return s.dom.Flex(s.problem, s.solution, k)
}

// Solve drains the pending batch and brings the session to a solved
// state: the initial solve when the session has no solution yet, a single
// coalesced EC pass (per the session strategy) when tightening changes
// are pending, a solver-free extension when the batch is relaxing-only,
// and a no-op when nothing is pending.
//
// On error the pending batch is discarded and the session keeps its
// previous problem and solution, so a client can correct course and
// continue; an invalid change or an infeasible batch never poisons the
// session.
func (s *Session) Solve() (*SolveResult, error) {
	return s.SolveContext(context.Background())
}

// SolveContext is Solve bound to a context: when ctx is cancelled the
// solve aborts inside the kernel (freeing its executor slot) and the
// session keeps its previous problem and solution. The HTTP handler
// passes the request context, so a disconnected client stops paying for
// its solve.
func (s *Session) SolveContext(ctx context.Context) (*SolveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartSpan(ctx, "solve")
	sp.SetAttr("session", s.id)
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("service: session %s is closed (re-fetch it by id)", s.id)
	}
	s.svc.touch(s)
	start := time.Now()
	batch := s.pending
	//ecvet:ignore walfirst the drain is journaled by the solve/discard record that every path below appends; a crash in between replays the queued records as pending again
	s.pending = nil

	res, err := func() (*SolveResult, error) {
		if s.solution == nil {
			return s.solveInitialLocked(ctx, batch, start)
		}
		if len(batch) == 0 {
			return s.resultLocked(&SolveResult{Status: "noop"}, start), nil
		}
		return s.solveBatchLocked(ctx, batch, start)
	}()
	if err != nil {
		// The persistent instance may have advanced past the discarded
		// batch (or be half-built); drop it so the next solve rebuilds it
		// from the committed problem.
		s.inst = nil
		if len(batch) > 0 {
			// The batch was discarded; journal that so replay agrees with
			// the in-memory outcome (the queued "changes" records would
			// otherwise resurrect it as pending on rehydration).
			s.persistDiscardLocked(ctx)
		}
	}
	return res, err
}

// instanceEnabled reports whether this session serves replan-shaped
// solves through a persistent instance (Options.DisableInstance turns
// the path off service-wide — the scratch arm of the differential
// tests).
func (s *Session) instanceEnabled() bool { return !s.svc.opts.DisableInstance }

// ensureInstanceLocked returns a live instance encoding problem: the session's
// retained one when the drained batch syncs onto it as a row delta, a
// rebuilt one otherwise. Caller holds s.mu (possibly via the executor
// closure SolveContext is blocked on).
func (s *Session) ensureInstanceLocked(problem any, batch []any) (*domain.Instance, error) {
	if s.inst != nil && s.inst.Sync(s.problem, problem, batch) {
		s.svc.metrics.InstanceReuses.Add(1)
		return s.inst, nil
	}
	inst, err := domain.NewInstance(s.dom, problem)
	if err != nil {
		s.inst = nil
		return nil, err
	}
	s.inst = inst
	s.svc.metrics.InstanceRebuilds.Add(1)
	return inst, nil
}

// replanSolveLocked runs a full solve of problem under opts — through the
// session's persistent instance when enabled, as a scratch solve
// otherwise. An instance that cannot be built failed to encode problem,
// which a scratch solve would fail on with the same error.
func (s *Session) replanSolveLocked(opts ilp.Options, problem any, batch []any, warm any) (any, ilp.Result, error) {
	if !s.instanceEnabled() {
		return domain.Solve(s.dom, problem, opts, warm)
	}
	inst, err := s.ensureInstanceLocked(problem, batch)
	if err != nil {
		return nil, ilp.Result{}, err
	}
	return inst.Resolve(opts, warm)
}

// syncInstanceLocked keeps the retained instance tracking a commit the
// instance path did not serve (fast/preserving/relaxed passes and
// cache-served solves): a delta-expressible batch replays onto the live
// model without solving; anything else invalidates the instance so the
// next instance-path solve rebuilds it. A no-op when the instance
// already encodes changed (the compute closure synced it). Caller holds
// s.mu.
func (s *Session) syncInstanceLocked(changed any, batch []any) {
	if s.inst == nil {
		return
	}
	if !s.inst.Sync(s.problem, changed, batch) {
		s.inst = nil
	}
}

// wrapCtxErr folds a solve failure that coincides with the request's
// cancellation into the context error: the kernel reports an abort as a
// generic limits error, but cache joiners must be able to tell "the
// owner's client went away" (retry with their own context) from a real
// solver failure (share it).
func wrapCtxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("%w (%v)", ctx.Err(), err)
	}
	return err
}

// solverOptsLocked binds the session's solver options to one call: the request
// context for aborts and the session's retained cut pool.
func (s *Session) solverOptsLocked(ctx context.Context) ilp.Options {
	opts := s.solve
	opts.Context = ctx
	if opts.Cuts {
		opts.CutPool = s.cuts
	}
	return opts
}

// resultLocked finalizes a SolveResult from the committed session state.
// Caller holds s.mu.
func (s *Session) resultLocked(res *SolveResult, start time.Time) *SolveResult {
	res.Solution = s.dom.CloneSolution(s.solution)
	if a, ok := res.Solution.(cnf.Assignment); ok {
		res.Assignment = a
	}
	res.DontCares = s.dom.DontCares(s.problem, s.solution)
	res.Runtime = time.Since(start)
	return res
}

// solveInitialLocked runs the first solve, folding any pending batch into the
// starting problem. Caller holds s.mu.
func (s *Session) solveInitialLocked(ctx context.Context, batch []any, start time.Time) (*SolveResult, error) {
	p := s.problem
	if len(batch) > 0 {
		applied, err := s.dom.ApplyChanges(s.problem, batch)
		if err != nil {
			return nil, fmt.Errorf("service: batch discarded: %w", err)
		}
		p = applied
	}
	if err := s.dom.Validate(p); err != nil {
		return nil, fmt.Errorf("service: batch discarded: %w", err)
	}
	key := s.taskKeyLocked("plain", p, nil)
	pkey := s.problemKey(p)
	// The encoding is built inside the compute closure so a cache hit —
	// the common case across identical sessions — pays nothing. The
	// closure reports cache eligibility: only a PROVEN result (optimal,
	// or infeasible-as-error which is never cached) may be replayed for
	// this key; a limit-truncated Feasible answer is served once and
	// re-attempted on the next request.
	sol, hit, err := s.cachedSolveFleet(ctx, key, p, func() (any, bool, error) {
		warm := s.svc.incumbent(pkey)
		if warm != nil {
			s.svc.metrics.IncumbentHits.Add(1)
		}
		a, res, err := s.replanSolveLocked(s.solverOptsLocked(ctx), p, batch, warm)
		s.svc.noteSolverResult(ctx, res)
		return a, err == nil && res.Status == ilp.Optimal, wrapCtxErr(ctx, err)
	})
	if err != nil {
		return nil, err
	}
	if err := s.persistSolveLocked(ctx, p, sol, len(batch)); err != nil {
		return nil, err
	}
	s.syncInstanceLocked(p, batch)
	s.commitLocked(p, sol, pkey, len(batch), hit)
	return s.resultLocked(&SolveResult{
		Status:  "initial",
		Batched: len(batch),
		Cached:  hit,
	}, start), nil
}

// solveBatchLocked resolves a non-empty tightening-or-relaxing batch against
// the current solution in one pass. Caller holds s.mu.
func (s *Session) solveBatchLocked(ctx context.Context, batch []any, start time.Time) (*SolveResult, error) {
	changed, err := s.dom.ApplyChanges(s.problem, batch)
	if err != nil {
		return nil, fmt.Errorf("service: batch discarded: %w", err)
	}
	prev := s.solution

	if !domain.AnyTightening(s.dom, batch) {
		// Relaxing-only batch: the solution stays valid (§6); just extend it.
		next, err := s.dom.ExtendSolution(changed, prev)
		if err != nil {
			return nil, fmt.Errorf("service: batch discarded: %w", err)
		}
		if err := s.persistSolveLocked(ctx, changed, next, len(batch)); err != nil {
			return nil, err
		}
		s.syncInstanceLocked(changed, batch)
		s.commitLocked(changed, next, s.problemKey(changed), len(batch), false)
		s.svc.metrics.RelaxFastPaths.Add(1)
		return s.resultLocked(&SolveResult{
			Status:    "relaxed",
			Batched:   len(batch),
			Preserved: 1,
		}, start), nil
	}
	if err := s.dom.Validate(changed); err != nil {
		return nil, fmt.Errorf("service: batch discarded: %w", err)
	}

	var subVars, subRows int
	var key string
	var compute func() (any, bool, error)
	switch s.strategy {
	case domain.FastEC:
		fopts := domain.FastOptions{Solve: s.solverOptsLocked(ctx), MaxEscalations: s.svc.opts.Fast.MaxEscalations}
		key = s.taskKeyLocked("fast", changed, prev)
		compute = func() (any, bool, error) {
			next, stats, ferr := domain.Fast(s.dom, changed, prev, fopts)
			// Every rung that ran counts as a kernel run: the ones that
			// escalated, and the last one even when the pass failed (a
			// truncated or infeasible sub-solve). SubSize is set once a
			// rung's solve returns, so an error raised before any rung
			// counts nothing.
			for _, res := range stats.EscalatedILP {
				s.svc.noteSolverResult(ctx, res)
			}
			if stats.SubSize > 0 {
				s.svc.noteSolverResult(ctx, stats.ILP)
			}
			if ferr != nil {
				return nil, false, wrapCtxErr(ctx, ferr)
			}
			subVars, subRows = stats.SubSize, stats.SubRows
			// A fast pass is cache-eligible when no solver ran (the
			// previous solution provably survived) or the final
			// sub-solve proved optimality.
			return next, stats.AlreadyValid || stats.ILP.Status == ilp.Optimal, nil
		}
	case domain.PreservingEC:
		key = s.taskKeyLocked("preserve", changed, prev)
		compute = func() (any, bool, error) {
			next, res, perr := domain.Preserve(s.dom, changed, prev, s.solverOptsLocked(ctx))
			s.svc.noteSolverResult(ctx, res)
			return next, perr == nil && res.Status == ilp.Optimal, wrapCtxErr(ctx, perr)
		}
	case domain.Replan:
		key = s.taskKeyLocked("plain", changed, nil)
		// A replan batch re-solves the same model ± a few rows, the case
		// the instance's retained kernel is for. Presolve and cut
		// separation rewrite the working model on every solve, so with
		// either on the instance rebuilds everything each time; they are
		// cleared for this solve only (both are answer-equivalent and
		// outside the cache key). The scratch arm clears them too, so the
		// two arms solve alike.
		ropts := s.solverOptsLocked(ctx)
		ropts.Presolve, ropts.Cuts, ropts.CutPool = false, false, nil
		compute = func() (any, bool, error) {
			next, res, rerr := s.replanSolveLocked(ropts, changed, batch, prev)
			s.svc.noteSolverResult(ctx, res)
			return next, rerr == nil && res.Status == ilp.Optimal, wrapCtxErr(ctx, rerr)
		}
	default:
		return nil, fmt.Errorf("service: unknown strategy %d", s.strategy)
	}

	next, hit, err := s.cachedSolveFleet(ctx, key, changed, compute)
	if err != nil {
		return nil, err
	}
	if err := s.persistSolveLocked(ctx, changed, next, len(batch)); err != nil {
		return nil, err
	}
	s.syncInstanceLocked(changed, batch)
	s.commitLocked(changed, next, s.problemKey(changed), len(batch), hit)
	return s.resultLocked(&SolveResult{
		Status:     s.strategy.String(),
		Batched:    len(batch),
		Cached:     hit,
		Preserved:  s.dom.Agreement(prev, next),
		SubVars:    subVars,
		SubClauses: subRows,
	}, start), nil
}

// commitLocked installs the new problem/solution pair, updates stats, and
// shares the solution through the incumbent store. Caller holds s.mu and
// must have journaled the state first (persistSolveLocked).
//
//ecvet:walcommit
func (s *Session) commitLocked(p, sol any, pkey string, batched int, hit bool) {
	s.problem = p
	s.solution = sol
	s.stats.solves++
	s.svc.metrics.Solves.Add(1)
	if batched > 0 {
		s.stats.batches++
		s.svc.metrics.Batches.Add(1)
	}
	if hit {
		s.stats.cacheHits++
	}
	s.svc.storeIncumbent(pkey, s.dom, sol)
	// The in-memory state now matches the journal head; compact if due.
	s.maybeCompactLocked()
}

// ---- cache keys ----------------------------------------------------------

// taskKeyLocked keys one solve task: the kind, the domain, the problem, the
// previous solution for EC re-solves, and the solver-relevant options.
// WarmStart never shapes a key: it only guides branching, and the
// incumbent-store warm start is injected after the lookup misses.
// Service-wide EC policies (Options.Fast/Preserve) are constant per
// service and cache, so they are safely omitted.
func (s *Session) taskKeyLocked(kind string, problem, prev any) string {
	k := newKeyHasher(kind)
	k.str(s.dom.Name())
	s.dom.FingerprintProblem(k.h, problem)
	if prev != nil {
		k.str("prev")
		s.dom.FingerprintSolution(k.h, prev)
	}
	solve := s.solve
	solve.WarmStart = nil
	return k.options(solve).sum()
}

// problemKey is the options-independent hash of a problem, used by the
// shared incumbent store.
func (s *Session) problemKey(problem any) string {
	k := newKeyHasher("problem")
	k.str(s.dom.Name())
	s.dom.FingerprintProblem(k.h, problem)
	return k.sum()
}
