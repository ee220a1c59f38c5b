package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ilpec/internal/obs"
)

// End-to-end through the handler: after real traffic, GET /metrics is
// valid Prometheus text carrying the service counters, the per-route
// HTTP histograms, and the per-phase solve histograms.
func TestPromEndpointEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":  "cnf",
		"problem": map[string]any{"clauses": [][]int{{1, 2}, {-1, 3}}},
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/solve", nil, nil); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if err := obs.ValidatePrometheus(text); err != nil {
		t.Fatalf("/metrics invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"ec_service_solves 1",
		"ec_service_sessions_created 1",
		`ec_http_request_seconds_bucket{route="session_solve",le="+Inf"}`,
		`ec_http_requests_total{route="session_create",status="2xx"}`,
		`ec_solve_phase_seconds_count{phase="search"} 1`,
		`ec_solve_phase_seconds_count{phase="queue_wait"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}

	// The JSON form carries the same snapshot plus the raw series.
	var jm struct {
		Service MetricsSnapshot  `json:"service"`
		Series  []map[string]any `json:"series"`
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/metrics?format=json", nil, &jm); code != http.StatusOK {
		t.Fatalf("/metrics?format=json: %d %s", code, raw)
	}
	if jm.Service.Solves != 1 || len(jm.Series) == 0 {
		t.Fatalf("json form: solves=%d series=%d, want 1 and >0", jm.Service.Solves, len(jm.Series))
	}
}

// ?trace=1 must return the request's span tree: the http root wrapping
// the solve span, whose children are the instrumented phases. The
// X-Request-ID response header and the trace's request_id attr must
// agree, and /v1/debug/traces must decode.
func TestTraceInjectionEndToEnd(t *testing.T) {
	// A 1ns slow-trace threshold puts every request into the slow ring,
	// so /v1/debug/traces has content without an artificial stall.
	svc := New(Options{Workers: 4, SlowTraceThreshold: time.Nanosecond})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	var info SessionInfo
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":  "cnf",
		"problem": map[string]any{"clauses": [][]int{{1, 2}, {-1, 3}}},
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+info.ID+"/solve?trace=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("response missing X-Request-ID")
	}
	var body struct {
		Status string       `json:"status"`
		Trace  *obs.SpanOut `json:"trace"`
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("bad traced response %q: %v", raw, err)
	}
	if body.Status == "" {
		t.Fatal("trace injection ate the solve response")
	}
	if body.Trace == nil {
		t.Fatal("?trace=1 response carries no trace")
	}
	if body.Trace.Name != "http session_solve" {
		t.Fatalf("trace root = %q, want \"http session_solve\"", body.Trace.Name)
	}
	if got := body.Trace.Attrs["request_id"]; got != reqID {
		t.Fatalf("trace request_id = %q, header = %q", got, reqID)
	}
	var solve *obs.SpanOut
	for _, c := range body.Trace.Children {
		if c.Name == "solve" {
			solve = c
		}
	}
	if solve == nil {
		t.Fatalf("trace has no solve child: %+v", body.Trace.Children)
	}
	phases := map[string]bool{}
	for _, c := range solve.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"queue_wait", "cache_lookup", "search"} {
		if !phases[want] {
			t.Errorf("solve span missing %q phase; got %v", want, phases)
		}
	}

	var ring struct {
		Traces []obs.TraceEntry `json:"traces"`
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/debug/traces", nil, &ring); code != http.StatusOK {
		t.Fatalf("/v1/debug/traces: %d %s", code, raw)
	}
	if len(ring.Traces) == 0 {
		t.Fatal("trace ring empty after traffic with a zero threshold")
	}
}

// TestStoreRecorderSeries: the store recorder registers an op's latency
// histogram on the op's first use and its error counter on its first
// error, and counts concurrent operations exactly.
func TestStoreRecorderSeries(t *testing.T) {
	reg := obs.NewRegistry()
	rec := (&serviceObs{reg: reg}).storeRecorder("memory")
	series := func() map[string]int64 {
		out := make(map[string]int64)
		for _, s := range reg.Snapshot() {
			key := s.Name + "/" + s.Labels["op"]
			if s.Hist != nil {
				out[key] = s.Hist.Count
			} else {
				out[key] = *s.Value
			}
		}
		return out
	}
	rec("append", time.Millisecond, nil)
	if got := series(); len(got) != 1 || got["ec_store_op_seconds/append"] != 1 {
		t.Fatalf("after one append: %v", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec("append", time.Microsecond, nil)
				rec("load", time.Microsecond, errors.New("boom"))
			}
		}()
	}
	wg.Wait()
	got := series()
	want := map[string]int64{
		"ec_store_op_seconds/append":    201,
		"ec_store_op_seconds/load":      200,
		"ec_store_op_errors_total/load": 200,
	}
	if len(got) != len(want) {
		t.Fatalf("series %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}
