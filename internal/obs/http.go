package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the one HTTP instrumentation seam of the serving tier:
// ecserve (internal/service) and ecrouter (internal/router) both wrap
// their mux with HTTP.Wrap and serve /metrics and /v1/debug/traces from
// the same handlers. Only the span and metric prefixes, the registry,
// the slow-trace threshold and the optional request log differ.

const (
	defaultSlowTrace     = 250 * time.Millisecond
	defaultTraceRingSize = 64
)

// HTTP instruments one HTTP surface: request ids, a trace root per
// request, per-route latency and status counts, the slow-trace ring,
// structured request logs, and on-demand trace injection.
type HTTP struct {
	reg    *Registry
	traces *TraceRing
	log    *slog.Logger
	span   string // root span prefix: "http", "router"
	metric string // metric prefix: "ec_http", "ec_router"
	noun   string // the layer's name in help text: "HTTP", "Router"

	// routes caches each route's instruments (route name -> *routeStats),
	// so a request costs a map load, not registry lookups.
	routes sync.Map

	// Request ids are a per-process prefix plus a sequence number: no
	// crypto/rand read (and no failure path) per request, ids from one
	// process stay ordered in its logs, and the nanosecond start epoch
	// in the prefix keeps processes apart. An id only correlates logs
	// and traces, so a cross-process collision could not corrupt state.
	reqPrefix string
	reqSeq    atomic.Int64
}

// NewHTTP returns the seam for one surface. span prefixes root span
// names ("http" gives "http session_solve"), metric prefixes the
// per-route series (<metric>_request_seconds, <metric>_requests_total).
// Requests of at least slow (<= 0: 250ms) are retained for
// /v1/debug/traces. log, when non-nil, receives one line per request.
func NewHTTP(reg *Registry, span, metric string, slow time.Duration, log *slog.Logger) *HTTP {
	if slow <= 0 {
		slow = defaultSlowTrace
	}
	noun := "HTTP"
	if span != "http" {
		noun = strings.ToUpper(span[:1]) + span[1:]
	}
	return &HTTP{
		reg:       reg,
		traces:    NewTraceRing(defaultTraceRingSize, slow),
		log:       log,
		span:      span,
		metric:    metric,
		noun:      noun,
		reqPrefix: "req-" + strconv.FormatInt(time.Now().UnixNano(), 16) + "-",
	}
}

// routeStats holds one route's instruments. They are registered after
// the route's first response (the latency histogram) and each status
// class's first response (its counter), so /metrics lists only series
// that occurred and a scrape never shows its own route half-counted.
type routeStats struct {
	name     string
	spanName string
	once     sync.Once
	latency  *Histogram
	byClass  [4]atomic.Pointer[Counter] // 2xx (and 1xx), 3xx, 4xx, 5xx
}

var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

func (h *HTTP) route(name string) *routeStats {
	if rs, ok := h.routes.Load(name); ok {
		return rs.(*routeStats)
	}
	rs, _ := h.routes.LoadOrStore(name, &routeStats{name: name, spanName: h.span + " " + name})
	return rs.(*routeStats)
}

// record counts one finished request on the route.
func (h *HTTP) record(rs *routeStats, status int, d time.Duration) {
	rs.once.Do(func() {
		rs.latency = h.reg.Histogram(h.metric+"_request_seconds", h.noun+" request latency by route (seconds).",
			Label{Key: "route", Value: rs.name})
	})
	rs.latency.Observe(d)
	i := min(max(status/100-2, 0), 3)
	c := rs.byClass[i].Load()
	if c == nil {
		c = h.reg.Counter(h.metric+"_requests_total", h.noun+" requests by route and status class.",
			Label{Key: "route", Value: rs.name}, Label{Key: "status", Value: statusClasses[i]})
		rs.byClass[i].Store(c)
	}
	c.Inc()
}

// routeOf classifies a request for metric labels. http.Request.Pattern
// is set on the mux's internal copy, unreadable after ServeHTTP returns,
// so the classification is by hand — which also keeps label cardinality
// bounded for arbitrary (404) paths.
func routeOf(method, path string) string {
	switch {
	case path == "/v1/sessions":
		if method == http.MethodGet {
			return "sessions_list"
		}
		return "session_create"
	case strings.HasPrefix(path, "/v1/sessions/"):
		switch {
		case strings.HasSuffix(path, "/changes"):
			return "session_changes"
		case strings.HasSuffix(path, "/solve"):
			return "session_solve"
		case strings.HasSuffix(path, "/flex"):
			return "session_flex"
		case method == http.MethodDelete:
			return "session_delete"
		default:
			return "session_get"
		}
	case path == "/v1/domains":
		return "domains"
	case path == "/v1/cluster":
		return "cluster"
	case path == "/v1/metrics":
		return "metrics"
	case path == "/metrics":
		return "prom_metrics"
	case path == "/v1/debug/traces":
		return "debug_traces"
	case path == "/healthz":
		return "healthz"
	case path == "/readyz":
		return "readyz"
	default:
		return "other"
	}
}

// Wrap returns next behind the seam. The inbound X-Request-ID is kept
// (or one is minted and set on the request, so a proxying handler
// forwards it) and echoed on the response. ?trace=1 or X-EC-Trace: 1
// returns the request's span tree in a top-level "trace" field; when
// the handler's body already carries a trace (an upstream's, asked for
// through the forwarded header or query), that tree is grafted under
// this surface's root, so one response shows both tiers.
func (h *HTTP) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs := h.route(routeOf(r.Method, r.URL.Path))
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = h.reqPrefix + strconv.FormatInt(h.reqSeq.Add(1), 16)
			r.Header.Set("X-Request-ID", reqID)
		}
		w.Header().Set("X-Request-ID", reqID)

		// Every request is traced internally (spans are a few small
		// allocations), so the slow ring can catch requests nobody thought
		// to trace; the tree is rendered only when returned or retained.
		ctx := WithRequestID(r.Context(), reqID)
		ctx, root := NewTrace(ctx, rs.spanName)
		root.SetAttr("method", r.Method)
		root.SetAttr("path", r.URL.Path)
		root.SetAttr("request_id", reqID)
		rw := &responseWriter{ResponseWriter: w}
		if r.URL.Query().Get("trace") == "1" || r.Header.Get("X-EC-Trace") == "1" {
			rw.buffer = &bytes.Buffer{}
		}

		next.ServeHTTP(rw, r.WithContext(ctx))

		root.End()
		status := rw.statusOr200()
		root.SetAttr("status", strconv.Itoa(status))
		d := root.Duration()
		if rw.buffer != nil {
			h.traces.Offer(rw.flushTraced(root), d)
		} else if h.traces.Keeps(d) {
			h.traces.Offer(root.Render(), d)
		}
		h.record(rs, status, d)
		if h.log != nil {
			h.log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("request_id", reqID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", rs.name),
				slog.Int("status", status),
				slog.Duration("duration", d),
			)
		}
	})
}

// responseWriter captures the status code and, for traced requests,
// buffers the body so the span tree can be spliced into the JSON
// response after the handler returns.
type responseWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
	buffer      *bytes.Buffer // non-nil = hold the response back for trace injection
}

func (w *responseWriter) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	w.wroteHeader = true
	w.status = code
	if w.buffer == nil {
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *responseWriter) Write(b []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if w.buffer != nil {
		return w.buffer.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

func (w *responseWriter) statusOr200() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// flushTraced releases the buffered response with root's rendered tree
// in its "trace" field, grafting a trace the body already carries under
// root first. A body that is not a JSON object passes through
// unchanged. It returns the rendered tree.
func (w *responseWriter) flushTraced(root *Span) *SpanOut {
	body := w.buffer.Bytes()
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		m = nil
	}
	var up SpanOut
	if raw, ok := m["trace"]; ok && json.Unmarshal(raw, &up) == nil && up.Name != "" {
		root.Graft(&up)
	}
	rendered := root.Render()
	if m != nil {
		if tr, err := json.Marshal(rendered); err == nil {
			m["trace"] = tr
			if out, err := json.MarshalIndent(m, "", "  "); err == nil {
				body = out
			}
		}
	}
	w.ResponseWriter.WriteHeader(w.statusOr200())
	w.ResponseWriter.Write(body) //nolint:errcheck // client went away; nothing to do
	return rendered
}

// ServeMetrics serves GET /metrics: the registry as Prometheus text, or
// with ?format=json its series beside view() under key.
func (h *HTTP) ServeMetrics(key string, view func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, map[string]any{key: view(), "series": h.reg.Snapshot()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h.reg.WritePrometheus(w)
	}
}

// ServeTraces serves GET /v1/debug/traces: the retained slow traces,
// oldest first.
func (h *HTTP) ServeTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"traces": h.traces.Snapshot()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}
