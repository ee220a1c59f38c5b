// Package router implements the stateless cluster front door for a fleet
// of ecserve nodes (command ecrouter wraps it). It keeps NO session
// state of its own: membership comes from the shared store's heartbeat
// records, placement from the same consistent-hash ring every node
// agrees on (internal/cluster.Ring), and correctness under stale views
// from the servers' lease fencing — the worst a misrouted request gets
// is a retryable 503 "not_owner", never a double commit.
//
// Routing rules:
//
//   - /v1/sessions/{id}... is consistent-hashed on the session id and
//     proxied to the ring owner among live, ready nodes;
//   - idempotent methods (GET, DELETE) fail over to ring successors on
//     transport errors, marking the unreachable node suspect;
//   - non-idempotent methods (POST changes/solve) are never replayed by
//     the router — a transport failure answers 502 + Retry-After and the
//     client retries, by which time the ring has converged;
//   - POST /v1/sessions mints a session id when the client did not send
//     one, so the create itself can be consistent-hashed; create is
//     retried on successors because the injected id makes replays safe
//     (a duplicate lands on 409 session_exists);
//   - GET /v1/sessions merges the per-node pages (k-way, cursor-safe);
//     GET /v1/metrics returns the router's counters plus every node's;
//     GET /v1/cluster exposes the membership/ring view for operators.
//
// Readiness, not liveness, drives placement: nodes are probed on
// /readyz each refresh, so a draining or store-quarantined node stops
// receiving new placements while it still answers in-flight work.
package router

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/obs"
	"ilpec/internal/store"
)

// maxBody mirrors the ecserve request cap: the router buffers bodies to
// make retries replayable, so it enforces the same bound up front.
const maxBody = 8 << 20

// Options configures a Router.
type Options struct {
	// Store is the cluster's shared store; the router only reads the
	// membership heartbeat records from it. The caller owns its lifecycle.
	Store store.Store
	// VirtualNodes is the ring's vnode count per node
	// (0 = cluster.DefaultVirtualNodes). Every router and every node must
	// agree on this number or placements diverge.
	VirtualNodes int
	// Refresh is the membership poll + health probe cadence (0 = 1s).
	Refresh time.Duration
	// ProbeTimeout bounds one /readyz probe (0 = 2s).
	ProbeTimeout time.Duration
	// Retries is how many ring successors are tried after the owner for
	// idempotent requests (0 = 2, negative = none).
	Retries int
	// HTTP is the proxy transport (nil = a client with sane timeouts).
	HTTP *http.Client
	// Logger receives membership transitions (nil = discard).
	Logger *log.Logger
	// Now is the clock used against heartbeat TTLs (nil = time.Now).
	Now func() time.Time
	// Obs is the registry that holds every router instrument, exposed
	// at GET /metrics: the counters behind the /v1/metrics "router"
	// object (ec_router_*), per-route request latency and counts, and
	// per-node proxy attempt latency. nil gets a private registry.
	// Counters are keyed by name, so a registry serves one Router.
	Obs *obs.Registry
	// SlowTraceThreshold is the minimum request duration retained in the
	// /v1/debug/traces ring (default 250ms).
	SlowTraceThreshold time.Duration
}

// Metrics are the router's own counters (snapshot via Router.Metrics;
// each is the registry series ec_router_<json tag>).
type Metrics struct {
	Refreshes    int64 `json:"refreshes"`
	Proxied      int64 `json:"proxied"`
	Failovers    int64 `json:"failovers"`
	Suspected    int64 `json:"suspected"`
	MintedIDs    int64 `json:"minted_ids"`
	NoReadyNodes int64 `json:"no_ready_nodes"`
	// PartialLists counts GET /v1/sessions fan-outs rejected with 503
	// because at least one ready node could not be listed.
	PartialLists int64 `json:"partial_lists"`
	// ConflictRecoveries counts create failovers where a replayed
	// create-with-id hit 409 and the router recovered the existing
	// session instead of surfacing the conflict.
	ConflictRecoveries int64 `json:"conflict_recoveries"`
}

// Router is the reverse proxy. Create with New, drive membership either
// with Start/Stop (background loop) or explicit Refresh calls (tests).
type Router struct {
	opts    Options
	members *cluster.Membership

	mu       sync.RWMutex
	ring     *cluster.Ring
	addrs    map[string]string // node id -> base URL, ready nodes only
	suspects map[string]bool   // unreachable since the last refresh

	// The router's counters live on reg as ec_router_<json tag of their
	// Metrics field>; New registers them.
	refreshes    *obs.Counter
	proxied      *obs.Counter
	failovers    *obs.Counter
	suspected    *obs.Counter
	mintedIDs    *obs.Counter
	noReadyNodes *obs.Counter
	partialLists *obs.Counter
	conflictRecs *obs.Counter

	// reg backs /metrics; http is the instrumentation seam Handler wraps
	// the mux with. Never nil after New.
	reg  *obs.Registry
	http *obs.HTTP
	// proxyLatency caches each node's ec_router_proxy_seconds histogram
	// (node id -> *obs.Histogram), registered on its first attempt.
	proxyLatency sync.Map

	stop chan struct{}
	done chan struct{}
}

// New builds a Router over the shared store. Call Start (or Refresh) to
// populate the ring before serving.
func New(opts Options) (*Router, error) {
	if opts.Store == nil {
		return nil, errors.New("router: Options.Store is required")
	}
	if opts.VirtualNodes == 0 {
		opts.VirtualNodes = cluster.DefaultVirtualNodes
	}
	if opts.Refresh <= 0 {
		opts.Refresh = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.HTTP == nil {
		opts.HTTP = &http.Client{Timeout: 5 * time.Minute}
	}
	if opts.Logger == nil {
		opts.Logger = log.New(io.Discard, "", 0)
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	r := opts.Obs
	c := func(tag, help string) *obs.Counter { return r.Counter("ec_router_"+tag, help) }
	return &Router{
		opts:     opts,
		members:  cluster.NewMembership(opts.Store),
		ring:     cluster.BuildRing(nil, opts.VirtualNodes),
		addrs:    map[string]string{},
		suspects: map[string]bool{},

		refreshes:    c("refreshes", "Membership refreshes (heartbeat read plus readiness probes)."),
		proxied:      c("proxied", "Upstream responses relayed to clients."),
		failovers:    c("failovers", "Proxy attempts sent to a ring successor after the owner."),
		suspected:    c("suspected", "Nodes marked suspect after a transport error."),
		mintedIDs:    c("minted_ids", "Session ids minted for creates that named none."),
		noReadyNodes: c("no_ready_nodes", "Requests answered 503 because no node was ready."),
		partialLists: c("partial_lists", "Session listings answered 503 because a ready node could not be listed."),
		conflictRecs: c("conflict_recoveries", "Create failovers whose replay hit 409 and recovered the existing session."),

		reg:  r,
		http: obs.NewHTTP(r, "router", "ec_router", opts.SlowTraceThreshold, nil),
	}, nil
}

// Start runs one synchronous refresh (so the first request already has a
// ring) and then polls membership until Stop.
func (rt *Router) Start() error {
	if err := rt.Refresh(); err != nil {
		return err
	}
	rt.stop = make(chan struct{})
	rt.done = make(chan struct{})
	go rt.loop()
	return nil
}

// Stop halts the refresh loop.
func (rt *Router) Stop() {
	if rt.stop == nil {
		return
	}
	close(rt.stop)
	<-rt.done
	rt.stop = nil
}

func (rt *Router) loop() {
	defer close(rt.done)
	ticker := time.NewTicker(rt.opts.Refresh)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			if err := rt.Refresh(); err != nil {
				rt.opts.Logger.Printf("membership refresh: %v", err)
			}
		}
	}
}

// Refresh re-reads membership and probes every live node's /readyz,
// rebuilding the ring from the nodes that answered ready. A node that
// passes its probe sheds any suspect mark.
func (rt *Router) Refresh() error {
	rt.refreshes.Add(1)
	infos, err := rt.members.Alive(rt.opts.Now())
	if err != nil {
		return err
	}
	type probe struct {
		info  cluster.NodeInfo
		ready bool
	}
	probes := make([]probe, len(infos))
	var wg sync.WaitGroup
	for i, info := range infos {
		wg.Add(1)
		go func(i int, info cluster.NodeInfo) {
			defer wg.Done()
			probes[i] = probe{info: info, ready: rt.probeReady(info.Addr)}
		}(i, info)
	}
	wg.Wait()

	ready := make([]string, 0, len(probes))
	addrs := make(map[string]string, len(probes))
	for _, p := range probes {
		if p.ready {
			ready = append(ready, p.info.ID)
			addrs[p.info.ID] = p.info.Addr
		}
	}
	sort.Strings(ready)

	rt.mu.Lock()
	prev := rt.ring.Nodes()
	for _, id := range ready {
		delete(rt.suspects, id) // probe succeeded: reachable again
	}
	rt.ring = cluster.BuildRing(ready, rt.opts.VirtualNodes)
	rt.addrs = addrs
	rt.mu.Unlock()
	if fmt.Sprint(prev) != fmt.Sprint(ready) {
		rt.opts.Logger.Printf("ring now %v (was %v)", ready, prev)
	}
	return nil
}

func (rt *Router) probeReady(addr string) bool {
	if addr == "" {
		return false
	}
	client := &http.Client{Timeout: rt.opts.ProbeTimeout, Transport: rt.opts.HTTP.Transport}
	resp, err := client.Get(addr + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Metrics snapshots the router counters (the /v1/metrics "router"
// object).
func (rt *Router) Metrics() Metrics {
	return Metrics{
		Refreshes:          rt.refreshes.Value(),
		Proxied:            rt.proxied.Value(),
		Failovers:          rt.failovers.Value(),
		Suspected:          rt.suspected.Value(),
		MintedIDs:          rt.mintedIDs.Value(),
		NoReadyNodes:       rt.noReadyNodes.Value(),
		PartialLists:       rt.partialLists.Value(),
		ConflictRecoveries: rt.conflictRecs.Value(),
	}
}

// candidates returns the proxy targets for a session id: the ring owner
// first, then up to Retries successors, suspects filtered out (unless
// that would leave nothing — a suspect beats an instant 503).
func (rt *Router) candidates(id string) []string {
	n := 1
	if rt.opts.Retries > 0 {
		n += rt.opts.Retries
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	all := rt.ring.Successors(id, n)
	fresh := make([]string, 0, len(all))
	for _, node := range all {
		if !rt.suspects[node] {
			fresh = append(fresh, node)
		}
	}
	if len(fresh) == 0 {
		fresh = all
	}
	return fresh
}

func (rt *Router) addrOf(node string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.addrs[node]
}

func (rt *Router) markSuspect(node string) {
	rt.mu.Lock()
	if !rt.suspects[node] {
		rt.suspects[node] = true
		rt.suspected.Add(1)
	}
	rt.mu.Unlock()
}

func (rt *Router) readyNodes() (ids []string, addrs map[string]string) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	addrs = make(map[string]string, len(rt.addrs))
	for id, addr := range rt.addrs {
		if !rt.suspects[id] {
			ids = append(ids, id)
			addrs[id] = addr
		}
	}
	sort.Strings(ids)
	return ids, addrs
}

// ---- HTTP ------------------------------------------------------------------

// Handler returns the router's HTTP surface: the ecserve API proxied by
// session placement, plus /v1/cluster and the router's own probes.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ids, _ := rt.readyNodes(); len(ids) == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "no_ready_nodes"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	mux.HandleFunc("GET /v1/cluster", rt.handleCluster)
	mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)
	mux.HandleFunc("GET /metrics", rt.http.ServeMetrics("router", func() any { return rt.Metrics() }))
	mux.HandleFunc("GET /v1/debug/traces", rt.http.ServeTraces)
	mux.HandleFunc("GET /v1/domains", rt.handleAny)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{op}", rt.handleSession)
	return rt.http.Wrap(mux)
}

// handleCluster reports the operator view: every live heartbeat plus
// whether the router currently routes to it.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	infos, err := rt.members.Alive(rt.opts.Now())
	if err != nil {
		writeRouterError(w, http.StatusServiceUnavailable, "membership_unavailable", err, true)
		return
	}
	_, addrs := rt.readyNodes()
	nodes := make([]map[string]any, 0, len(infos))
	for _, info := range infos {
		_, routed := addrs[info.ID]
		nodes = append(nodes, map[string]any{
			"id":     info.ID,
			"addr":   info.Addr,
			"ready":  routed,
			"expiry": info.Expiry,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": nodes, "ring_nodes": len(addrs)})
}

// handleMetrics merges the router's counters with every ready node's
// /v1/metrics, keyed by node id.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ids, addrs := rt.readyNodes()
	perNode := make(map[string]json.RawMessage, len(ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id, addr string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, addr+"/v1/metrics", nil)
			if err != nil {
				return
			}
			resp, err := rt.opts.HTTP.Do(req)
			if err != nil {
				return
			}
			data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !json.Valid(data) {
				return
			}
			mu.Lock()
			perNode[id] = data
			mu.Unlock()
		}(id, addrs[id])
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, map[string]any{"router": rt.Metrics(), "nodes": perNode})
}

// handleAny proxies a read to any ready node (domain registry is
// identical fleet-wide).
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	ids, addrs := rt.readyNodes()
	for _, id := range ids {
		if rt.forward(w, r, id, addrs[id], nil) {
			return
		}
	}
	rt.noReadyNodes.Add(1)
	writeRouterError(w, http.StatusServiceUnavailable, "no_ready_nodes", errors.New("no ready nodes"), true)
}

// listResponse is the slice of the node list body the merge needs.
type listResponse struct {
	Sessions []string `json:"sessions"`
	Live     []string `json:"live"`
	Degraded []string `json:"degraded"`
	Next     string   `json:"next"`
}

// handleList fans GET /v1/sessions out to every ready node and k-way
// merges the pages. Cursor safety: if any node truncated its page, ids
// past the smallest per-node cursor are dropped (that node might own
// unseen ids below them), and the merged cursor is re-emitted from the
// merged page.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	ids, addrs := rt.readyNodes()
	if len(ids) == 0 {
		rt.noReadyNodes.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable, "no_ready_nodes", errors.New("no ready nodes"), true)
		return
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			writeRouterError(w, http.StatusBadRequest, "bad_limit", fmt.Errorf("bad limit %q", raw), false)
			return
		}
		limit = parsed
	}
	type result struct {
		resp listResponse
		ok   bool
	}
	results := make([]result, len(ids))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			u := addr + "/v1/sessions"
			if q := r.URL.RawQuery; q != "" {
				u += "?" + q
			}
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
			if err != nil {
				return
			}
			resp, err := rt.opts.HTTP.Do(req)
			if err != nil {
				return
			}
			data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				return
			}
			if json.Unmarshal(data, &results[i].resp) == nil {
				results[i].ok = true
			}
		}(i, addrs[ids[i]])
	}
	wg.Wait()

	sessions := map[string]bool{}
	liveSet := map[string]bool{}
	degradedSet := map[string]bool{}
	bound := "" // smallest cursor among truncated nodes
	failed := 0
	for _, res := range results {
		if !res.ok {
			failed++
			continue
		}
		for _, id := range res.resp.Sessions {
			sessions[id] = true
		}
		for _, id := range res.resp.Live {
			liveSet[id] = true
		}
		for _, id := range res.resp.Degraded {
			degradedSet[id] = true
		}
		if res.resp.Next != "" && (bound == "" || res.resp.Next < bound) {
			bound = res.resp.Next
		}
	}
	if failed > 0 {
		// A partial merge is worse than an error: the failed node's
		// sessions would be silently absent, indistinguishable from deleted
		// ones. Retryable — by the next attempt the refresh loop has
		// dropped (or re-probed) the unreachable node.
		rt.partialLists.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable, "partial_listing",
			fmt.Errorf("%d of %d node list requests failed", failed, len(ids)), true)
		return
	}
	merged := setToSorted(sessions)
	next := ""
	if bound != "" {
		cut := sort.SearchStrings(merged, bound)
		if cut < len(merged) && merged[cut] == bound {
			cut++
		}
		merged = merged[:cut]
		next = bound
	}
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
		next = merged[len(merged)-1]
	}
	out := map[string]any{
		"sessions": merged,
		"live":     setToSorted(liveSet),
		"degraded": setToSorted(degradedSet),
	}
	if next != "" {
		out["next"] = next
	}
	writeJSON(w, http.StatusOK, out)
}

func setToSorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// handleCreate consistent-hashes a create onto the owner of its session
// id, minting one when the client did not choose. The injected id makes
// the create idempotent, so transport failures fail over to successors.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeRouterError(w, http.StatusRequestEntityTooLarge, "body_too_large", err, false)
		return
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		writeRouterError(w, http.StatusBadRequest, "bad_json", err, false)
		return
	}
	id := ""
	if raw, ok := fields["id"]; ok {
		if json.Unmarshal(raw, &id) != nil || id == "" {
			writeRouterError(w, http.StatusBadRequest, "bad_id", errors.New("id must be a non-empty string"), false)
			return
		}
	} else {
		id = mintID()
		fields["id"] = json.RawMessage(strconv.Quote(id))
		if body, err = json.Marshal(fields); err != nil {
			writeRouterError(w, http.StatusInternalServerError, "encode_failed", err, false)
			return
		}
		rt.mintedIDs.Add(1)
	}
	rt.proxyCreate(w, r, id, body)
}

// proxyCreate forwards a create to the id's candidates in ring order.
// The injected id makes creates replay-safe, with one wrinkle: when an
// attempt's response is lost after the create committed, the replay on
// the next candidate lands 409. On a failover attempt that conflict
// means "already created", so the router recovers the existing session
// and answers 200 instead of surfacing an error the client never
// caused. A first-attempt 409 (a genuinely duplicate id) still relays
// as 409.
func (rt *Router) proxyCreate(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	cands := rt.candidates(id)
	if len(cands) == 0 {
		rt.noReadyNodes.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable, "no_ready_nodes", errors.New("no ready nodes"), true)
		return
	}
	for i, node := range cands {
		addr := rt.addrOf(node)
		if addr == "" {
			continue
		}
		if i > 0 {
			rt.failovers.Add(1)
		}
		resp := rt.try(r, node, addr, body)
		if resp == nil {
			continue
		}
		rt.proxied.Add(1)
		if i > 0 && resp.StatusCode == http.StatusConflict {
			if got := rt.fetchSession(r.Context(), id); got != nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				rt.conflictRecs.Add(1)
				relay(w, got)
				return
			}
		}
		relay(w, resp)
		return
	}
	writeRouterError(w, http.StatusBadGateway, "upstream_unreachable",
		errors.New("every candidate node unreachable"), true)
}

// fetchSession GETs /v1/sessions/{id} through the id's candidates and
// returns the first 200 response (the caller owns its Body), or nil if
// no candidate can produce the session.
func (rt *Router) fetchSession(ctx context.Context, id string) *http.Response {
	greq, err := http.NewRequestWithContext(ctx, http.MethodGet, "/v1/sessions/"+id, nil)
	if err != nil {
		return nil
	}
	for _, node := range rt.candidates(id) {
		addr := rt.addrOf(node)
		if addr == "" {
			continue
		}
		resp := rt.try(greq, node, addr, nil)
		if resp == nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			return resp
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	return nil
}

// handleSession routes everything under /v1/sessions/{id} by ring
// placement. GETs and DELETEs fail over across successors; POSTs
// (changes, solve) are delivered at most once by the router and answer
// 502 + Retry-After on transport failure.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet && r.Method != http.MethodHead {
		var err error
		if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
			writeRouterError(w, http.StatusRequestEntityTooLarge, "body_too_large", err, false)
			return
		}
	}
	idempotent := r.Method == http.MethodGet || r.Method == http.MethodHead || r.Method == http.MethodDelete
	rt.proxy(w, r, id, body, idempotent)
}

// proxy forwards to the id's candidates in ring order. retry=false stops
// after the first transport failure (non-idempotent request bodies must
// not be replayed across nodes).
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, id string, body []byte, retry bool) {
	cands := rt.candidates(id)
	if len(cands) == 0 {
		rt.noReadyNodes.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable, "no_ready_nodes", errors.New("no ready nodes"), true)
		return
	}
	for i, node := range cands {
		addr := rt.addrOf(node)
		if addr == "" {
			continue
		}
		if i > 0 {
			rt.failovers.Add(1)
		}
		if rt.forward(w, r, node, addr, body) {
			return
		}
		if !retry {
			writeRouterError(w, http.StatusBadGateway, "upstream_unreachable",
				fmt.Errorf("node %s unreachable; request not replayed", node), true)
			return
		}
	}
	writeRouterError(w, http.StatusBadGateway, "upstream_unreachable",
		errors.New("every candidate node unreachable"), true)
}

// forward sends one upstream attempt and, on any HTTP response at all,
// relays it verbatim (status, JSON body, Retry-After) and reports true.
// A transport error marks the node suspect and reports false — the
// caller decides whether failing over is safe.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, node, addr string, body []byte) bool {
	resp := rt.try(r, node, addr, body)
	if resp == nil {
		return false
	}
	rt.proxied.Add(1)
	relay(w, resp)
	return true
}

// try sends one upstream attempt and returns the response, or nil on a
// transport error (the node is marked suspect). Callers that get a
// response own its Body — relay closes it.
func (rt *Router) try(r *http.Request, node, addr string, body []byte) *http.Response {
	u := addr + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil
	}
	// Idempotency-Key must survive the proxy hop: the server dedupes
	// replayed change batches by it, which is what makes the CLIENT's
	// retries through 502s safe even though the router itself never
	// replays non-idempotent requests. X-Request-ID ties the two tiers'
	// logs together, and X-EC-Trace asks the node for its span tree (the
	// router grafts it under its own; see obs.HTTP).
	for _, h := range []string{"Content-Type", "Idempotency-Key", "X-Request-ID", "X-EC-Trace"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	_, sp := obs.StartSpan(r.Context(), "proxy "+node)
	sp.SetAttr("node", node)
	start := time.Now()
	resp, err := rt.opts.HTTP.Do(req)
	rt.proxyHistogram(node).Observe(time.Since(start))
	if err != nil {
		sp.SetAttr("error", "transport")
		sp.End()
		if r.Context().Err() == nil {
			rt.markSuspect(node)
		}
		return nil
	}
	sp.SetAttr("status", strconv.Itoa(resp.StatusCode))
	sp.End()
	return resp
}

// proxyHistogram returns node's proxy-attempt latency histogram.
func (rt *Router) proxyHistogram(node string) *obs.Histogram {
	if h, ok := rt.proxyLatency.Load(node); ok {
		return h.(*obs.Histogram)
	}
	h := rt.reg.Histogram("ec_router_proxy_seconds", "Upstream proxy attempt latency by node (seconds).",
		obs.Label{Key: "node", Value: node})
	rt.proxyLatency.Store(node, h)
	return h
}

// relay writes one upstream response downstream verbatim (status, JSON
// body, the headers clients act on). It closes resp.Body.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, io.LimitReader(resp.Body, maxBody))
}

// mintID returns a random router-minted session id. Random (not
// sequential) so concurrent routers cannot collide and ids spread evenly
// over the ring.
func mintID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		panic(fmt.Sprintf("router: crypto/rand failed: %v", err))
	}
	return "r-" + hex.EncodeToString(buf[:])
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeRouterError mirrors the ecserve error envelope so clients see one
// error shape end to end; retryable adds the Retry-After hint.
func writeRouterError(w http.ResponseWriter, status int, code string, err error, retryable bool) {
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{
		"error": map[string]any{"code": code, "message": err.Error()},
	})
}
