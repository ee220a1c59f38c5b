package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// perCycle converts a traced total to milliseconds per cycle.
func (lt *layerTotals) perCycle(d time.Duration) float64 {
	if lt.cycles == 0 {
		return 0
	}
	return ms(d) / float64(lt.cycles)
}

func (lt *layerTotals) op(name string) time.Duration { return lt.ops[name].d }

func (lt *layerTotals) phase(name string) time.Duration {
	return lt.hist["ec_solve_phase_seconds/"+name]
}

// histFamily sums every series of one histogram family.
func (lt *layerTotals) histFamily(name string) time.Duration {
	var sum time.Duration
	for k, v := range lt.hist {
		if k == name || strings.HasPrefix(k, name+"/") {
			sum += v
		}
	}
	return sum
}

func (lt *layerTotals) route(name string) time.Duration {
	return lt.hist["ec_http_request_seconds/"+name]
}

// selfTimes splits the traced cycle time into module self times (totals
// over the traced epochs). Each module's self time excludes the modules
// it calls, so the rows add up to the time the spans cover; what no span
// covers is the unexplained remainder.
func (lt *layerTotals) selfTimes() (rows []selfRow, unexplained time.Duration) {
	ilp := lt.phase("presolve") + lt.phase("cut_separation") + lt.phase("search")
	wait := lt.phase("queue_wait") + lt.phase("cache_lookup")
	storeT := lt.storeIn("")
	if lt.ops["fleet.solve_span"].n == 0 {
		// In-process: the benchmark's spans around QueueChanges and Solve
		// are the session boundary.
		session := lt.op("session.queue_call") + wait
		dom := lt.op("session.solve_call") - ilp - wait
		rows = []selfRow{
			{"internal/service (session)", session},
			{"internal/domain + adapters", dom},
			{"internal/ilp", ilp},
		}
		return rows, lt.cycleTime - session - dom - ilp
	}
	// Fleet: the client's requests enter the router, which proxies to a
	// node's HTTP handler; the node's solve span comes from ?trace=1.
	// Store and cluster operations are attributed to the request in
	// flight when they ran; those of a solve request ran inside its span.
	solve := lt.op("fleet.solve_span")
	routerReq := lt.histFamily("ec_router_request_seconds")
	proxy := lt.histFamily("ec_router_proxy_seconds")
	nodeHTTP := lt.sessionRoutes()
	clusterT := lt.op("cluster.store_ops")
	inSolve := lt.storeIn("solve") + lt.op("cluster.store_ops@solve")
	dom := solve - ilp - wait - inSolve
	httpSelf := nodeHTTP - solve - (storeT + clusterT - inSolve)
	rows = []selfRow{
		{"internal/router", routerReq - proxy},
		{"internal/service (HTTP)", httpSelf},
		{"internal/service (session)", wait},
		{"internal/domain + adapters", dom},
		{"internal/ilp", ilp},
		{"internal/store", storeT},
		{"internal/cluster", clusterT},
	}
	var covered time.Duration
	for _, r := range rows {
		covered += r.d
	}
	return rows, lt.cycleTime - covered
}

// storeIn sums the session store operations that ran during one request
// window ("" for all of them).
func (lt *layerTotals) storeIn(window string) time.Duration {
	if window != "" {
		window = "@" + window
	}
	var sum time.Duration
	for _, op := range []string{"store.append", "store.append_changes", "store.snapshot", "store.load"} {
		sum += lt.op(op + window)
	}
	return sum
}

// sessionRoutes sums the node-side HTTP time of the session routes the
// client drives (router health probes are background work).
func (lt *layerTotals) sessionRoutes() time.Duration {
	var sum time.Duration
	for _, r := range []string{"session_create", "session_changes", "session_get", "session_solve"} {
		sum += lt.route(r)
	}
	return sum
}

type selfRow struct {
	module string
	d      time.Duration
}

// writeReconciliation prints, per module, the self time per cycle, the
// unexplained remainder, and the tracing overhead.
func writeReconciliation(w io.Writer, workload string, plain, traced *tally) {
	lt := &traced.layers
	rows, unexplained := lt.selfTimes()
	fmt.Fprintf(w, "reconciliation %s: %d traced cycles, traced cycle mean %.4f ms\n", workload, lt.cycles, lt.perCycle(lt.cycleTime))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %9.4f ms/cycle  %6.1f%%\n", r.module, lt.perCycle(r.d), 100*frac(r.d, lt.cycleTime))
	}
	fmt.Fprintf(w, "  %-28s %9.4f ms/cycle  %6.1f%%\n", "unexplained", lt.perCycle(unexplained), 100*frac(unexplained, lt.cycleTime))
	if lt.ops["fleet.solve_span"].n > 0 {
		routerReq := lt.histFamily("ec_router_request_seconds")
		fmt.Fprintf(w, "    of which client<->router transport %.4f ms/cycle\n", lt.perCycle(lt.cycleTime-routerReq))
	}
	fmt.Fprintf(w, "  tracing overhead: traced p50 %.4f ms vs untraced p50 %.4f ms (%+.2f%%)\n",
		quantile(traced.epochP50, 0.5), quantile(plain.epochP50, 0.5), 100*traceOverhead(plain, traced))
}

func frac(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func traceOverhead(plain, traced *tally) float64 {
	p := quantile(plain.epochP50, 0.5)
	if p == 0 {
		return 0
	}
	return quantile(traced.epochP50, 0.5)/p - 1
}

// perLayer renders the traced run's per-layer metrics. Times are busy
// milliseconds per cycle; counts are per epoch (every epoch of a seed
// does the same work).
func perLayer(plain, traced *tally, c counters, d diag) map[string]metric {
	lt := &traced.layers
	pc := lt.perCycle
	rows, unexplained := lt.selfTimes()
	self := map[string]time.Duration{}
	for _, r := range rows {
		self[r.module] = r.d
	}
	count := func(name string) metric { return metric{c.float(name), "count"} }
	msm := func(d time.Duration) metric { return metric{pc(d), "ms"} }
	f := func(v float64) metric { return metric{v, "fraction"} }
	storeAppend := lt.op("store.append") + lt.op("store.append_changes")
	routerReq := lt.histFamily("ec_router_request_seconds")
	proxy := lt.histFamily("ec_router_proxy_seconds")
	sessionSolve := lt.op("session.solve_call") + lt.op("fleet.solve_span")
	sessionQueue := lt.op("session.queue_call")
	if lt.ops["fleet.solve_span"].n > 0 {
		// Over HTTP the queue call is the changes handler's own work:
		// its request time less the store and cluster operations in it.
		sessionQueue = lt.route("session_changes") - lt.storeIn("changes") - lt.op("cluster.store_ops@changes")
	}
	return map[string]metric{
		"ilp.presolve_ms":         msm(lt.phase("presolve")),
		"ilp.cut_separation_ms":   msm(lt.phase("cut_separation")),
		"ilp.search_ms":           msm(lt.phase("search")),
		"ilp.solver_runs":         count("solver_runs"),
		"ilp.truncated_solves":    count("truncated_solves"),
		"ilp.cuts_added":          count("cuts_added"),
		"ilp.cuts_reused":         count("cuts_reused"),
		"ilp.presolve_fixed":      count("presolve_fixed"),
		"ilp.rows_delta":          count("rows_delta"),
		"ilp.reseparated_rows":    count("reseparated_rows"),
		"ilp.instance_reuse_frac": f(ratio(c.int("instance_reuses"), c.int("instance_reuses")+c.int("instance_rebuilds"))),

		"domain.self_ms":          msm(self["internal/domain + adapters"]),
		"domain.encode_ms":        msm(lt.op("domain.encode")),
		"domain.apply_changes_ms": msm(lt.op("domain.apply_changes")),
		"domain.sub_vars_mean":    {ratio(c.int("sum_sub_vars"), lt.fastPasses/int64(max(lt.epochs, 1))), "count"},
		"domain.sub_rows_mean":    {ratio(c.int("sum_sub_rows"), lt.fastPasses/int64(max(lt.epochs, 1))), "count"},
		"domain.relax_frac":       f(ratio(c.int("relax_fast_paths"), c.int("batches"))),

		"session.solve_call_ms":       msm(sessionSolve),
		"session.queue_call_ms":       msm(sessionQueue),
		"session.queue_wait_ms":       msm(lt.phase("queue_wait")),
		"session.cache_lookup_ms":     msm(lt.phase("cache_lookup")),
		"session.cache_hit_frac":      f(ratio(c.int("cache_hits"), c.int("cache_hits")+c.int("cache_misses"))),
		"session.fleet_peek_hit_frac": f(ratio(c.int("fleet_peek_hits"), c.int("fleet_peek_hits")+c.int("fleet_peek_misses"))),
		"session.changes_per_batch":   {ratio(c.int("changes_queued"), c.int("batches")), "count"},
		"session.evictions":           count("evictions"),
		"session.rehydrations":        count("rehydrations"),

		"http.changes_ms": msm(lt.route("session_changes")),
		"http.solve_ms":   msm(lt.route("session_solve")),
		"http.get_ms":     msm(lt.route("session_get")),
		"http.non2xx":     {float64(lt.non2xx) / float64(max(lt.epochs, 1)), "count"},

		"store.append_ms":        msm(storeAppend),
		"store.snapshot_ms":      msm(lt.op("store.snapshot")),
		"store.load_ms":          msm(lt.op("store.load")),
		"store.appends_per_ack":  {ratio(lt.ops["store.append_changes"].n, lt.acks), "count"},
		"cluster.store_ms":       msm(lt.op("cluster.store_ops")),
		"store.bytes_per_change": {ratio(lt.ops["store.append_changes"].bytes, lt.changes), "B"},
		"store.retries":          count("journal_retries"),

		"router.proxy_ms":  msm(proxy),
		"router.self_ms":   msm(routerReq - proxy),
		"router.failovers": {float64(lt.failovers) / float64(max(lt.epochs, 1)), "count"},

		"cluster.lease_acquire_ms": msm(lt.hist["ec_cluster_lease_latency_seconds/acquire"]),
		"cluster.lease_renew_ms":   msm(lt.hist["ec_cluster_lease_latency_seconds/renew"]),
		"cluster.lease_fence_ms":   msm(lt.hist["ec_cluster_lease_latency_seconds/fence"]),

		"go.alloc_kb_per_cycle": {d.allocKBPerCycle, "KiB"},
		"go.gc_cycles":          {d.gcCycles, "count"},
		"go.gc_pause_ms":        {d.gcPauseMS, "ms"},

		"bench.unexplained_frac":    f(frac(unexplained, lt.cycleTime)),
		"bench.trace_overhead_frac": f(traceOverhead(plain, traced)),
		"host.ref_loop_ms":          {d.refLoop(), "ms"},
	}
}
