package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/store"
)

// fakeNode is a recording upstream: ready on /readyz, and for anything
// else it captures the request and answers {"node": id} (or a canned
// body when reply is set).
type fakeNode struct {
	id  string
	srv *httptest.Server

	mu     sync.Mutex
	paths  []string
	bodies []string
	reply  func(path string) (int, string)
}

func newFakeNode(t *testing.T, id string) *fakeNode {
	n := &fakeNode{id: id}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte(`{"ready":true}`))
			return
		}
		body, _ := io.ReadAll(r.Body)
		n.mu.Lock()
		n.paths = append(n.paths, r.Method+" "+r.URL.Path)
		n.bodies = append(n.bodies, string(body))
		reply := n.reply
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if reply != nil {
			status, resp := reply(r.URL.Path)
			w.WriteHeader(status)
			w.Write([]byte(resp))
			return
		}
		w.Write([]byte(`{"node":"` + id + `"}`))
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) hits() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.paths...)
}

// newTestRouter heartbeats every fake node into a shared memory store
// and returns a refreshed router plus its HTTP front end.
func newTestRouter(t *testing.T, nodes ...*fakeNode) (*Router, *httptest.Server) {
	t.Helper()
	st := store.NewMemory()
	members := cluster.NewMembership(st)
	for _, n := range nodes {
		if err := members.Heartbeat(n.id, n.srv.URL, time.Minute, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := New(Options{Store: st, Refresh: time.Hour, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return rt, srv
}

// Every session request must land on the id's ring owner — the same
// owner a node-side ring computes, or placements would diverge.
func TestRoutesSessionsByRingOwner(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	_, front := newTestRouter(t, n1, n2)
	ring := cluster.BuildRing([]string{"n1", "n2"}, cluster.DefaultVirtualNodes)

	byID := map[string]*fakeNode{"n1": n1, "n2": n2}
	for _, id := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		resp, err := http.Get(front.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Node string `json:"node"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		owner, _ := ring.Owner(id)
		if out.Node != owner {
			t.Fatalf("id %q served by %q, ring owner is %q", id, out.Node, owner)
		}
		_ = byID
	}
}

// A create without an id gets one minted and injected, and is routed to
// that id's ring owner.
func TestCreateMintsAndRoutesID(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	rt, front := newTestRouter(t, n1, n2)

	resp, err := http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"domain":"cnf","problem":{"dimacs":"p cnf 1 1\n1 0\n"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var got *fakeNode
	for _, n := range []*fakeNode{n1, n2} {
		if len(n.hits()) == 1 {
			got = n
		}
	}
	if got == nil {
		t.Fatal("create reached no upstream exactly once")
	}
	got.mu.Lock()
	body := got.bodies[0]
	got.mu.Unlock()
	var req struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &req); err != nil || !strings.HasPrefix(req.ID, "r-") {
		t.Fatalf("upstream body %q lacks a minted r- id", body)
	}
	ring := cluster.BuildRing([]string{"n1", "n2"}, cluster.DefaultVirtualNodes)
	if owner, _ := ring.Owner(req.ID); owner != got.id {
		t.Fatalf("minted id %q routed to %q, ring owner is %q", req.ID, got.id, owner)
	}
	if rt.Metrics().MintedIDs != 1 {
		t.Fatalf("minted_ids = %d, want 1", rt.Metrics().MintedIDs)
	}
	// A client-chosen id is preserved, not replaced.
	resp, err = http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"id":"mine","domain":"cnf"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rt.Metrics().MintedIDs != 1 {
		t.Fatal("router minted an id the client had already chosen")
	}
}

// When the owner is unreachable, idempotent requests fail over to the
// ring successor and the owner is marked suspect; non-idempotent ones
// answer 502 + Retry-After without being replayed.
func TestFailoverSemantics(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	rt, front := newTestRouter(t, n1, n2)
	ring := cluster.BuildRing([]string{"n1", "n2"}, cluster.DefaultVirtualNodes)

	// Find an id owned by n1 and kill n1.
	id := "alpha"
	for i := 0; ; i++ {
		if owner, _ := ring.Owner(id); owner == "n1" {
			break
		}
		id = "alpha" + strings.Repeat("x", i+1)
	}
	n1.srv.Close()

	resp, err := http.Get(front.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Node string `json:"node"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out.Node != "n2" {
		t.Fatalf("GET after owner death served by %q, want failover to n2", out.Node)
	}
	m := rt.Metrics()
	if m.Failovers == 0 || m.Suspected == 0 {
		t.Fatalf("metrics = %+v, want failovers and suspected counted", m)
	}

	// Suspect marking: the next idempotent request skips n1 entirely.
	before := len(n2.hits())
	resp, err = http.Get(front.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(n2.hits()) != before+1 {
		t.Fatal("suspect owner was not skipped on the follow-up request")
	}

	_ = rt
}

// A POST (changes/solve) must never be replayed by the router: with the
// owner dead but not yet refreshed away, the answer is 502 + Retry-After
// and the successor sees nothing.
func TestNoReplayNonIdempotent(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	_, front := newTestRouter(t, n1, n2)
	ring := cluster.BuildRing([]string{"n1", "n2"}, cluster.DefaultVirtualNodes)
	id := "alpha"
	for i := 0; ; i++ {
		if owner, _ := ring.Owner(id); owner == "n1" {
			break
		}
		id = "alpha" + strings.Repeat("x", i+1)
	}
	// Killed AFTER the refresh: the router still believes n1 is ready.
	n1.srv.Close()
	before := len(n2.hits())
	resp, err := http.Post(front.URL+"/v1/sessions/"+id+"/solve", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("POST solve to dead owner = %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("502 missing Retry-After hint")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	if env.Error.Code != "upstream_unreachable" {
		t.Fatalf("error code %q, want upstream_unreachable", env.Error.Code)
	}
	if got := len(n2.hits()); got != before {
		t.Fatalf("non-idempotent request was replayed onto n2 (%d hits, want %d)", got, before)
	}
}

// The list fan-out merges per-node pages cursor-safely: ids past the
// smallest truncated node's cursor are dropped so no id can be skipped.
func TestListMergeCursorSafe(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	n1.reply = func(path string) (int, string) {
		return 200, `{"sessions":["a","c"],"live":["a"],"degraded":[],"next":"c"}`
	}
	n2.reply = func(path string) (int, string) {
		return 200, `{"sessions":["b","d"],"live":[],"degraded":["d"]}`
	}
	_, front := newTestRouter(t, n1, n2)

	resp, err := http.Get(front.URL + "/v1/sessions?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Sessions []string `json:"sessions"`
		Live     []string `json:"live"`
		Degraded []string `json:"degraded"`
		Next     string   `json:"next"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// n1 truncated at "c": "d" must be dropped (n1 may own unseen ids
	// before it), then limit=2 truncates to [a b] with cursor b.
	want := []string{"a", "b"}
	if len(out.Sessions) != 2 || out.Sessions[0] != want[0] || out.Sessions[1] != want[1] {
		t.Fatalf("merged sessions = %v, want %v", out.Sessions, want)
	}
	if out.Next != "b" {
		t.Fatalf("next = %q, want b", out.Next)
	}
	if len(out.Live) != 1 || len(out.Degraded) != 1 {
		t.Fatalf("live=%v degraded=%v, want unions", out.Live, out.Degraded)
	}
}

// The router's readyz reflects whether anything is routable.
func TestRouterReadyz(t *testing.T) {
	n1 := newFakeNode(t, "n1")
	rt, front := newTestRouter(t, n1)
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a live node = %d", resp.StatusCode)
	}
	n1.srv.Close()
	if err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no nodes = %d, want 503", resp.StatusCode)
	}
}

// A list fan-out with any node unreachable must answer a retryable 503,
// not a silently partial 200 (the dead node's sessions would otherwise
// be indistinguishable from deleted ones).
func TestListPartialFailureIs503(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	n2.reply = func(path string) (int, string) {
		return 200, `{"sessions":["b"],"live":[],"degraded":[]}`
	}
	rt, front := newTestRouter(t, n1, n2)
	// Killed AFTER the refresh, so the router still fans out to n1.
	n1.srv.Close()

	resp, err := http.Get(front.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("partial list = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("partial-list 503 missing Retry-After hint")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	if env.Error.Code != "partial_listing" {
		t.Fatalf("error code %q, want partial_listing", env.Error.Code)
	}
	if rt.Metrics().PartialLists != 1 {
		t.Fatalf("partial_lists = %d, want 1", rt.Metrics().PartialLists)
	}
}

// A metrics fan-out leaves out every node that fails (unreachable, or
// answering non-200 or invalid JSON) and still answers 200 with the rest.
func TestMetricsSkipsFailedNodes(t *testing.T) {
	n1, n2, n3, n4 := newFakeNode(t, "n1"), newFakeNode(t, "n2"), newFakeNode(t, "n3"), newFakeNode(t, "n4")
	n2.reply = func(string) (int, string) { return 200, `{"solves":3}` }
	n3.reply = func(string) (int, string) { return 500, `{"solves":4}` }
	n4.reply = func(string) (int, string) { return 200, `not json` }
	_, front := newTestRouter(t, n1, n2, n3, n4)
	n1.srv.Close()

	resp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Nodes map[string]json.RawMessage `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 1 || string(out.Nodes["n2"]) != `{"solves":3}` {
		t.Fatalf("nodes = %v, want only n2", out.Nodes)
	}
}

// Create failover through a lost response: the create commits on the
// owner but the reply is lost, the replay on the successor answers 409
// session_exists, and the router must recover the existing session as a
// 200 instead of surfacing a conflict the client never caused.
func TestCreateFailover409RecoversSession(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	ring := cluster.BuildRing([]string{"n1", "n2"}, cluster.DefaultVirtualNodes)
	id := "alpha"
	for i := 0; ; i++ {
		if owner, _ := ring.Owner(id); owner == "n1" {
			break
		}
		id = "alpha" + strings.Repeat("x", i+1)
	}
	// The successor: replayed create conflicts, but the info GET succeeds.
	n2.reply = func(path string) (int, string) {
		if path == "/v1/sessions" {
			return http.StatusConflict, `{"error":{"code":"session_exists","message":"dup"}}`
		}
		return http.StatusOK, `{"id":"` + id + `","domain":"cnf"}`
	}
	rt, front := newTestRouter(t, n1, n2)
	// Owner dies after refresh: the create fails over to n2.
	n1.srv.Close()

	resp, err := http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"id":"`+id+`","domain":"cnf"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover create landing on 409 = %d, want recovered 200", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID != id {
		t.Fatalf("recovered body id=%q err=%v, want the existing session %q", out.ID, err, id)
	}
	if rt.Metrics().ConflictRecoveries != 1 {
		t.Fatalf("conflict_recoveries = %d, want 1", rt.Metrics().ConflictRecoveries)
	}
}

// A FIRST-attempt 409 is a genuine duplicate id chosen by the client and
// must stay a 409.
func TestCreateFirstAttempt409Relayed(t *testing.T) {
	n1, n2 := newFakeNode(t, "n1"), newFakeNode(t, "n2")
	for _, n := range []*fakeNode{n1, n2} {
		n.reply = func(path string) (int, string) {
			if path == "/v1/sessions" {
				return http.StatusConflict, `{"error":{"code":"session_exists","message":"dup"}}`
			}
			return http.StatusOK, `{}`
		}
	}
	rt, front := newTestRouter(t, n1, n2)

	resp, err := http.Post(front.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"id":"dup-id","domain":"cnf"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("first-attempt duplicate = %d, want 409 relayed", resp.StatusCode)
	}
	if rt.Metrics().ConflictRecoveries != 0 {
		t.Fatal("a genuine duplicate was miscounted as a conflict recovery")
	}
}

// The metrics and list fan-outs run inside a client request; when that
// client disconnects, the upstream node requests must be cancelled too,
// not keep running on a detached context.
func TestFanoutThreadsRequestContext(t *testing.T) {
	for _, path := range []string{"/v1/metrics", "/v1/sessions"} {
		t.Run(path, func(t *testing.T) {
			sawCancel := make(chan bool, 4)
			up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/readyz" {
					w.Write([]byte(`{"ready":true}`))
					return
				}
				select {
				case <-r.Context().Done():
					sawCancel <- true
				case <-time.After(5 * time.Second):
					sawCancel <- false
				}
			}))
			defer up.Close()

			st := store.NewMemory()
			members := cluster.NewMembership(st)
			if err := members.Heartbeat("n1", up.URL, time.Minute, time.Now()); err != nil {
				t.Fatal(err)
			}
			rt, err := New(Options{Store: st, Refresh: time.Hour, Retries: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Refresh(); err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(rt.Handler())
			defer front.Close()

			ctx, cancel := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				close(done)
			}()
			time.Sleep(50 * time.Millisecond) // let the fan-out reach the upstream
			cancel()
			if !<-sawCancel {
				t.Fatal("upstream fan-out request was not cancelled with the client request")
			}
			<-done
		})
	}
}
