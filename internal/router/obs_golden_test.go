package router

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/obs"
	"ilpec/internal/service"
	"ilpec/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// newServiceRouter puts a router in front of one real service node
// ("n1", a plain service behind its own HTTP server) and returns the
// router's front end.
func newServiceRouter(t *testing.T) string {
	t.Helper()
	svc := service.New(service.Options{Workers: 1})
	node := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		node.Close()
		svc.Close()
	})
	st := store.NewMemory()
	if err := cluster.NewMembership(st).Heartbeat("n1", node.URL, time.Minute, time.Now()); err != nil {
		t.Fatal(err)
	}
	rt, err := New(Options{Store: st, Refresh: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front.URL
}

// send issues one request and returns the response with its body read.
func send(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

const goldenCreate = `{"id":"g1","domain":"cnf","problem":{"clauses":[[1,2],[-1,3],[2,4]]}}`

// The router's /metrics series set after a fixed script: name, type,
// labels, every counter value and every histogram's count. HELP lines,
// buckets, sums and family order are left out.
func TestRouterPromSeriesGolden(t *testing.T) {
	front := newServiceRouter(t)
	steps := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/sessions", goldenCreate, http.StatusCreated},
		{"POST", "/v1/sessions/g1/changes", `{"changes":[{"kind":"add-clause","lits":[-2,3]}]}`, http.StatusAccepted},
		{"POST", "/v1/sessions/g1/solve", "", http.StatusOK},
		{"GET", "/v1/sessions/g1", "", http.StatusOK},
		{"GET", "/v1/sessions", "", http.StatusOK},
		{"GET", "/v1/domains", "", http.StatusOK},
		{"GET", "/v1/metrics", "", http.StatusOK},
		{"GET", "/v1/cluster", "", http.StatusOK},
		{"GET", "/v1/sessions/nope", "", http.StatusNotFound},
		{"DELETE", "/v1/sessions/g1", "", http.StatusOK},
	}
	for _, st := range steps {
		resp, raw := send(t, st.method, front+st.path, st.body)
		if resp.StatusCode != st.want {
			t.Fatalf("%s %s: %d %s, want %d", st.method, st.path, resp.StatusCode, raw, st.want)
		}
	}
	_, text := send(t, "GET", front+"/metrics", "")
	checkGolden(t, "router_prom_series.golden", promSeriesSet(t, string(text)))
}

// A ?trace=1 solve through the router returns one tree spanning both
// tiers: the router root, with the node's http root grafted under it,
// whose solve span carries the solve phases. One request id ties the
// response header and both tiers' roots together.
func TestRouterTraceGraft(t *testing.T) {
	front := newServiceRouter(t)
	if resp, raw := send(t, "POST", front+"/v1/sessions", goldenCreate); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	resp, raw := send(t, "POST", front+"/v1/sessions/g1/solve?trace=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("router response carries no X-Request-ID")
	}
	var body struct {
		Status string       `json:"status"`
		Trace  *obs.SpanOut `json:"trace"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("bad traced response %q: %v", raw, err)
	}
	if body.Status == "" || body.Trace == nil {
		t.Fatalf("traced solve lost its body or trace: %s", raw)
	}
	root := body.Trace
	if root.Name != "router session_solve" {
		t.Fatalf("trace root = %q, want \"router session_solve\"", root.Name)
	}
	if got := root.Attrs["request_id"]; got != reqID {
		t.Fatalf("router trace request_id = %q, header = %q", got, reqID)
	}
	node := child(root, "http session_solve")
	if node == nil {
		t.Fatalf("router root has no grafted node tree: %s", names(root))
	}
	if got := node.Attrs["request_id"]; got != reqID {
		t.Fatalf("node trace request_id = %q, header = %q", got, reqID)
	}
	solve := child(node, "solve")
	if solve == nil {
		t.Fatalf("node tree has no solve span: %s", names(node))
	}
	for _, phase := range []string{"queue_wait", "cache_lookup", "search"} {
		if child(solve, phase) == nil {
			t.Errorf("solve span missing %q phase: %s", phase, names(solve))
		}
	}
}

func child(sp *obs.SpanOut, name string) *obs.SpanOut {
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func names(sp *obs.SpanOut) string {
	var out []string
	for _, c := range sp.Children {
		out = append(out, c.Name)
	}
	return strings.Join(out, ", ")
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// promSeriesSet reduces a Prometheus text payload to its sorted series
// set: one "TYPE <family> <kind>" line per family, the sample line of
// every counter and gauge, and the _count line of every histogram.
func promSeriesSet(t *testing.T, text string) []byte {
	t.Helper()
	if err := obs.ValidatePrometheus(text); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, text)
	}
	kinds := map[string]string{}
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			kinds[name] = kind
			out = append(out, "TYPE "+rest)
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if kinds[name] == "counter" || kinds[name] == "gauge" {
			out = append(out, line)
		} else if base, ok := strings.CutSuffix(name, "_count"); ok && kinds[base] == "histogram" {
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return []byte(strings.Join(out, "\n") + "\n")
}
