package service

import (
	"context"
	"sync"
	"time"

	"ilpec/internal/obs"
)

// This file holds the service's instruments beyond its counters (which
// live in Metrics, registered on the same registry): the solve-phase
// histograms and trace hooks, the durable-store latency recorder, and
// the HTTP seam (obs.HTTP) that NewHandler wraps its mux with.

// Solve-phase names, pre-registered so every phase series appears in the
// exposition from the first scrape (a zero histogram is still a series).
var solvePhases = []string{
	"queue_wait", "cache_lookup", "presolve", "cut_separation", "search", "journal_append",
}

// serviceObs bundles the service's instruments. All methods are
// nil-receiver-safe so instrumentation sites need no guards.
type serviceObs struct {
	reg    *obs.Registry
	http   *obs.HTTP
	phases map[string]*obs.Histogram
}

func newServiceObs(opts Options) *serviceObs {
	so := &serviceObs{
		reg:    opts.Obs,
		http:   obs.NewHTTP(opts.Obs, "http", "ec_http", opts.SlowTraceThreshold, opts.RequestLog),
		phases: make(map[string]*obs.Histogram, len(solvePhases)),
	}
	for _, p := range solvePhases {
		so.phases[p] = so.reg.Histogram("ec_solve_phase_seconds",
			"Wall-clock per solve phase (seconds).", obs.Label{Key: "phase", Value: p})
	}
	return so
}

// phase records one completed solve phase: the histogram observation
// plus, when ctx carries a trace, a post-hoc child span ending now.
func (so *serviceObs) phase(ctx context.Context, name string, d time.Duration) {
	so.phaseAt(ctx, name, time.Now().Add(-d), d)
}

func (so *serviceObs) phaseAt(ctx context.Context, name string, start time.Time, d time.Duration) {
	if so == nil {
		return
	}
	so.phases[name].Observe(d)
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.Child(name, start, d)
	}
}

// solverPhases lays the kernel's post-hoc phase durations onto the
// request timeline: the phases ran back to back ending roughly now, so
// their starts are reconstructed by walking backwards from the end.
func (so *serviceObs) solverPhases(ctx context.Context, presolve, cuts, search time.Duration) {
	if so == nil {
		return
	}
	now := time.Now()
	searchStart := now.Add(-search)
	cutStart := searchStart.Add(-cuts)
	preStart := cutStart.Add(-presolve)
	if presolve > 0 {
		so.phaseAt(ctx, "presolve", preStart, presolve)
	}
	if cuts > 0 {
		so.phaseAt(ctx, "cut_separation", cutStart, cuts)
	}
	so.phaseAt(ctx, "search", searchStart, search)
}

// storeRecorder builds the callback store.NewInstrumented feeds with
// per-operation latencies. backend labels the concrete store. Each op's
// latency histogram is resolved on its first use and its error counter on
// its first error, so /metrics lists only series that occurred.
func (so *serviceObs) storeRecorder(backend string) func(op string, d time.Duration, err error) {
	if so == nil || so.reg == nil {
		return nil
	}
	var latency, errs sync.Map // op -> *obs.Histogram, op -> *obs.Counter
	return func(op string, d time.Duration, err error) {
		h, ok := latency.Load(op)
		if !ok {
			h, _ = latency.LoadOrStore(op, so.reg.Histogram("ec_store_op_seconds", "Durable-store operation latency (seconds).",
				obs.Label{Key: "backend", Value: backend}, obs.Label{Key: "op", Value: op}))
		}
		h.(*obs.Histogram).Observe(d)
		if err != nil {
			c, ok := errs.Load(op)
			if !ok {
				c, _ = errs.LoadOrStore(op, so.reg.Counter("ec_store_op_errors_total", "Durable-store operations that returned an error.",
					obs.Label{Key: "backend", Value: backend}, obs.Label{Key: "op", Value: op}))
			}
			c.(*obs.Counter).Inc()
		}
	}
}
