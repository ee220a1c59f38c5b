package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceRingThreshold(t *testing.T) {
	tr := NewTraceRing(4, 10*time.Millisecond)
	if tr.Keeps(10*time.Millisecond - 1) {
		t.Error("Keeps is true just under the threshold")
	}
	if !tr.Keeps(10 * time.Millisecond) {
		t.Error("Keeps is false at the threshold")
	}
	tr.Offer(&SpanOut{Name: "under"}, 10*time.Millisecond-1)
	tr.Offer(&SpanOut{Name: "at"}, 10*time.Millisecond)
	if got := tr.Snapshot(); len(got) != 1 || got[0].Trace.Name != "at" {
		t.Fatalf("ring = %+v, want only the trace at the threshold", got)
	}
	var nilRing *TraceRing
	if nilRing.Keeps(time.Hour) {
		t.Error("a nil ring keeps traces")
	}
}

// serve runs one request through h.Wrap(next) and returns the recorder.
func serve(h *HTTP, next http.HandlerFunc, method, target string, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	for k, v := range header {
		req.Header[k] = v
	}
	rec := httptest.NewRecorder()
	h.Wrap(next).ServeHTTP(rec, req)
	return rec
}

// The seam returns the span tree only when asked, grafts a trace the
// handler's body already carries under its own root, retains only
// traces at or over the threshold, and counts each route and status.
func TestHTTPTraceInjectionAndGraft(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTP(reg, "router", "ec_router", time.Hour, nil)
	upstream := func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Request-ID") == "" {
			t.Error("the handler sees no X-Request-ID to forward")
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok","trace":{"name":"http session_solve","start_us":1,"duration_ms":0.5}}`))
	}

	rec := serve(h, upstream, "POST", "/v1/sessions/s1/solve?trace=1", nil)
	var body struct {
		Status string   `json:"status"`
		Trace  *SpanOut `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("traced body %q: %v", rec.Body.Bytes(), err)
	}
	if body.Status != "ok" || body.Trace == nil || body.Trace.Name != "router session_solve" {
		t.Fatalf("traced body = %s", rec.Body.Bytes())
	}
	id := rec.Header().Get("X-Request-ID")
	if !strings.HasPrefix(id, "req-") || body.Trace.Attrs["request_id"] != id {
		t.Fatalf("request id header %q, trace attr %q", id, body.Trace.Attrs["request_id"])
	}
	if len(body.Trace.Children) != 1 || body.Trace.Children[0].Name != "http session_solve" {
		t.Fatalf("upstream tree not grafted: %+v", body.Trace.Children)
	}

	// Untraced: the body passes through untouched and an inbound id is kept.
	rec = serve(h, upstream, "POST", "/v1/sessions/s1/solve", http.Header{"X-Request-Id": {"req-given"}})
	if got := rec.Header().Get("X-Request-ID"); got != "req-given" {
		t.Fatalf("inbound request id replaced by %q", got)
	}
	if !strings.Contains(rec.Body.String(), `"name":"http session_solve"`) {
		t.Fatalf("untraced body rewritten: %s", rec.Body.String())
	}
	// A traced body that is not a JSON object passes through too.
	rec = serve(h, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "plain")
	}, "GET", "/elsewhere?trace=1", nil)
	if rec.Code != http.StatusTeapot || rec.Body.String() != "plain" {
		t.Fatalf("non-JSON traced response = %d %q", rec.Code, rec.Body.String())
	}
	if n := len(h.traces.Snapshot()); n != 0 {
		t.Fatalf("ring kept %d traces under a 1h threshold", n)
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{
		`ec_router_request_seconds_count{route="session_solve"} 2`,
		`ec_router_requests_total{route="session_solve",status="2xx"} 2`,
		`ec_router_requests_total{route="other",status="4xx"} 1`,
		"# HELP ec_router_request_seconds Router request latency by route (seconds).",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}

	// At a threshold every request meets, untraced requests are kept too.
	fast := NewHTTP(NewRegistry(), "http", "ec_http", time.Nanosecond, nil)
	serve(fast, upstream, "GET", "/healthz", nil)
	if got := fast.traces.Snapshot(); len(got) != 1 || got[0].Trace.Name != "http healthz" {
		t.Fatalf("ring = %+v, want the healthz trace", got)
	}
}

// Concurrent first requests on a route must register its instruments
// once and lose no counts.
func TestHTTPMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTP(reg, "http", "ec_http", time.Hour, nil)
	next := h.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fail") == "1" {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	const workers, perWorker = 8, 200
	paths := []string{"/healthz", "/v1/sessions/s1/solve", "/v1/metrics"}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				target := paths[(g+i)%len(paths)]
				if i%2 == 1 {
					target += "?fail=1"
				}
				next.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", target, nil))
			}
		}(g)
	}
	wg.Wait()
	var total, ok int64
	for _, route := range []string{"healthz", "session_solve", "metrics"} {
		for _, class := range []string{"2xx", "5xx"} {
			n := reg.Counter("ec_http_requests_total", "", Label{"route", route}, Label{"status", class}).Value()
			total += n
			if class == "2xx" {
				ok += n
			}
		}
	}
	if total != workers*perWorker || ok != workers*perWorker/2 {
		t.Fatalf("counted %d requests (%d 2xx), want %d (%d 2xx)", total, ok, workers*perWorker, workers*perWorker/2)
	}
	var hist int64
	for _, s := range reg.Snapshot() {
		if s.Name == "ec_http_request_seconds" {
			hist += s.Hist.Count
		}
	}
	if hist != workers*perWorker {
		t.Fatalf("latency histograms hold %d observations, want %d", hist, workers*perWorker)
	}
}
