package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"ilpec/internal/obs"
)

// These tests pin the chain Metrics → MetricsSnapshot → Prometheus
// exposition: a counter added to one layer but forgotten in another
// fails here, not in a dashboard three weeks later.

// Every atomic counter in Metrics must have a same-named field in
// MetricsSnapshot (the JSON/Prometheus reporting copy). SessionsLive,
// CacheEntries and SessionsPersisted are snapshot-only (computed, not
// accumulated), which is fine — the constraint is one-directional.
func TestMetricsSnapshotCoversEveryMetricsField(t *testing.T) {
	snapFields := map[string]bool{}
	st := reflect.TypeOf(MetricsSnapshot{})
	for i := 0; i < st.NumField(); i++ {
		snapFields[st.Field(i).Name] = true
	}
	mt := reflect.TypeOf(Metrics{})
	for i := 0; i < mt.NumField(); i++ {
		name := mt.Field(i).Name
		if !snapFields[name] {
			t.Errorf("Metrics.%s has no MetricsSnapshot counterpart — add it to MetricsSnapshot (and Service.Metrics) so it reaches /v1/metrics and /metrics", name)
		}
	}
}

// Every MetricsSnapshot field must surface as an ec_service_<json_tag>
// series in the Prometheus exposition, with gauge typing for the
// point-in-time fields, and the rendered block must be valid exposition
// text.
func TestSnapshotPromCoversEverySnapshotField(t *testing.T) {
	var buf strings.Builder
	writeSnapshotProm(&buf, MetricsSnapshot{})
	text := buf.String()
	if err := obs.ValidatePrometheus(text); err != nil {
		t.Fatalf("writeSnapshotProm output invalid: %v\n%s", err, text)
	}

	st := reflect.TypeOf(MetricsSnapshot{})
	for i := 0; i < st.NumField(); i++ {
		tag, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		if tag == "" || tag == "-" {
			t.Errorf("MetricsSnapshot.%s has no json tag — it is invisible to /v1/metrics and /metrics", st.Field(i).Name)
			continue
		}
		kind := "counter"
		if promGauges[tag] {
			kind = "gauge"
		}
		want := fmt.Sprintf("# TYPE ec_service_%s %s\nec_service_%s 0\n", tag, kind, tag)
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q series for MetricsSnapshot.%s", "ec_service_"+tag, st.Field(i).Name)
		}
	}

	// promGauges must not drift from the snapshot's actual field set.
	tags := map[string]bool{}
	for i := 0; i < st.NumField(); i++ {
		tag, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		tags[tag] = true
	}
	for g := range promGauges {
		if !tags[g] {
			t.Errorf("promGauges lists %q but MetricsSnapshot has no such json tag", g)
		}
	}
}

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
	svc, ts := newTestServer(t)
	// Force every request into the slow ring so /v1/debug/traces has
	// content without an artificial stall.
	svc.sobs.traces = obs.NewTraceRing(8, 0)

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
