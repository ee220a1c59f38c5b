package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"ilpec/internal/domain"
	"ilpec/internal/store"
)

// maxBodyBytes bounds request bodies (DIMACS payloads included).
const maxBodyBytes = 8 << 20

// maxIdempotencyKey bounds the Idempotency-Key header so the per-session
// dedup window cannot be bloated by pathological keys.
const maxIdempotencyKey = 200

// NewHandler exposes a Service over HTTP/JSON:
//
//	POST   /v1/sessions              create a session (any registered domain)
//	GET    /v1/sessions              list session ids (?limit=&after= pages)
//	GET    /v1/sessions/{id}         session info (rehydrates if evicted)
//	DELETE /v1/sessions/{id}         close a session (memory and store)
//	POST   /v1/sessions/{id}/changes queue a change batch (domain wire form)
//	POST   /v1/sessions/{id}/solve   drain the batch in one EC pass
//	GET    /v1/sessions/{id}/flex?k= flexibility report (§5 audit)
//	GET    /v1/domains               registered domain names
//	GET    /v1/metrics               service counters
//	GET    /metrics                  Prometheus text exposition (?format=json)
//	GET    /v1/debug/traces          recent slow-request span trees
//	GET    /healthz                  liveness probe (the process answers)
//	GET    /readyz                   readiness probe (503 while draining,
//	                                 store-quarantined, or cluster-partitioned)
//
// A create names a "domain" (default "cnf") and carries its "problem"
// object, so one service serves CNF, coloring, scheduling, partitioning,
// or a custom adapter. Errors carry a
// structured body: {"error": {"code": "...", "message": "..."}}.
//
// Every response carries an X-Request-ID header (the inbound one is
// propagated, or a fresh id is minted); ?trace=1 or an X-EC-Trace: 1
// header additionally returns the request's span tree in a top-level
// "trace" field. See the README's "EC session service" and
// "Observability" sections for walkthroughs.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		handleCreate(svc, w, r)
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		handleSessionList(svc, w, r)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", withSession(svc, func(sess *Session, w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sess.Info())
	}))
	mux.HandleFunc("DELETE /v1/sessions/{id}", withSession(svc, func(sess *Session, w http.ResponseWriter, r *http.Request) {
		svc.CloseSession(sess.ID())
		writeJSON(w, http.StatusOK, map[string]any{"closed": sess.ID()})
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/changes", withSession(svc, handleChanges))
	mux.HandleFunc("POST /v1/sessions/{id}/solve", withSession(svc, handleSolve))
	mux.HandleFunc("GET /v1/sessions/{id}/flex", withSession(svc, handleFlex))
	mux.HandleFunc("GET /v1/domains", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"domains": svc.Domains()})
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Metrics())
	})
	mux.HandleFunc("GET /metrics", svc.sobs.http.ServeMetrics("service", func() any { return svc.Metrics() }))
	mux.HandleFunc("GET /v1/debug/traces", svc.sobs.http.ServeTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness (/healthz) says the process answers; readiness says it
		// should receive NEW work. Routers health-check this endpoint, so a
		// draining, quarantined, or cluster-partitioned node drops out of
		// rotation without being restarted.
		ok, reason := svc.Ready()
		if !ok {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	return svc.sobs.http.Wrap(mux)
}

// handleSessionList serves GET /v1/sessions with optional keyset paging:
// ?limit= bounds the page (default 1000, max 10000) and ?after= resumes
// after the given id; "next" in the response (present only on a
// truncated page) is the ?after= cursor of the following page. "live"
// and "degraded" are point-in-time service-wide summaries, not paged.
func handleSessionList(svc *Service, w http.ResponseWriter, r *http.Request) {
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, "bad_limit", fmt.Errorf("bad limit %q", raw))
			return
		}
		limit = parsed
	}
	page, next := svc.SessionPage(r.URL.Query().Get("after"), limit)
	out := map[string]any{
		"sessions": page,
		"live":     svc.LiveSessions(),
		"degraded": svc.DegradedSessions(),
	}
	if next != "" {
		out["next"] = next
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- requests ------------------------------------------------------------

// createRequest describes a new session: a Domain plus the domain's
// Problem wire form.
type createRequest struct {
	// ID optionally names the session instead of letting the service mint
	// an id. cmd/ecrouter injects it so a create can be consistent-hashed
	// onto its ring owner; direct clients may use it for idempotent
	// creates (a taken id answers 409 session_exists).
	ID string `json:"id,omitempty"`
	// Domain selects the problem domain (default "cnf").
	Domain string `json:"domain,omitempty"`
	// Problem is the domain-specific problem description.
	Problem json.RawMessage `json:"problem,omitempty"`
	// Strategy overrides the service default: "fast", "preserving", or
	// "replan".
	Strategy string `json:"strategy,omitempty"`
	// TimeLimitMS overrides the solver time limit for this session
	// (capped at the service default when one is configured).
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	// Workers overrides the in-solver parallel root searchers (capped at
	// the service's configured solver workers and the machine).
	Workers int `json:"workers,omitempty"`
}

type changesRequest struct {
	// Changes carry the wire form of the session domain's changes.
	Changes []json.RawMessage `json:"changes"`
}

// solveResponse is SolveResult plus the solution in wire form. Literals
// repeats the CNF rendering (committed variables as DIMACS literals) for
// backward compatibility.
type solveResponse struct {
	*SolveResult
	Domain   string `json:"domain"`
	Solution any    `json:"solution"`
	Literals []int  `json:"literals,omitempty"`
}

// ---- handlers ------------------------------------------------------------

func handleCreate(svc *Service, w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !readJSON(w, r, &req) {
		return
	}
	domainName := req.Domain
	if domainName == "" {
		domainName = "cnf"
	}
	d, ok := svc.DomainByName(domainName)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown_domain",
			fmt.Errorf("unknown domain %q (have %v)", domainName, svc.Domains()))
		return
	}
	if len(req.Problem) == 0 {
		writeError(w, http.StatusBadRequest, "bad_problem",
			fmt.Errorf("domain %q needs a problem object", domainName))
		return
	}
	problem, err := d.ParseProblem(req.Problem)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_problem", err)
		return
	}
	var cfg SessionConfig
	if req.Strategy != "" {
		strat, err := ParseStrategy(req.Strategy)
		if err != nil {
			writeError(w, http.StatusBadRequest, "unknown_strategy", err)
			return
		}
		cfg.Strategy = &strat
	}
	if req.TimeLimitMS > 0 || req.Workers > 0 {
		// Client overrides are clamped so one request cannot escape the
		// operator's resource limits: the time limit never exceeds the
		// service default (when one is set) and workers never exceed the
		// configured solver parallelism or the machine.
		solve := svc.opts.Solve
		if req.TimeLimitMS > 0 {
			limit := time.Duration(req.TimeLimitMS) * time.Millisecond
			if solve.TimeLimit > 0 && limit > solve.TimeLimit {
				limit = solve.TimeLimit
			}
			solve.TimeLimit = limit
		}
		if req.Workers > 0 {
			solve.Workers = min(req.Workers, max(svc.opts.Solve.Workers, 1), runtime.GOMAXPROCS(0))
		}
		cfg.Solve = &solve
	}
	var sess *Session
	if req.ID != "" {
		sess, err = svc.CreateDomainSessionWithID(req.ID, domainName, problem, cfg)
	} else {
		sess, err = svc.CreateDomainSession(domainName, problem, cfg)
	}
	if err != nil {
		switch {
		case errors.Is(err, ErrSessionExists):
			writeError(w, http.StatusConflict, "session_exists", err)
		case errors.Is(err, ErrNotOwner):
			writeRetryableError(w, http.StatusServiceUnavailable, "not_owner", err)
		case store.IsTransient(err):
			writeRetryableError(w, http.StatusServiceUnavailable, "create_failed", err)
		default:
			writeError(w, http.StatusServiceUnavailable, "create_failed", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, sess.Info())
}

func handleChanges(sess *Session, w http.ResponseWriter, r *http.Request) {
	var req changesRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Changes) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", fmt.Errorf("empty change batch"))
		return
	}
	d := sess.dom
	changes := make([]any, 0, len(req.Changes))
	for i, raw := range req.Changes {
		c, err := d.ParseChange(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_change", fmt.Errorf("change %d: %w", i, err))
			return
		}
		changes = append(changes, c)
	}
	// Idempotency-Key makes the batch replay-safe: a retry carrying the
	// same key (the ecclient sends one on every POST) is acknowledged
	// without being applied again, even when the first attempt's response
	// was lost — or when the retry lands on a failover successor, which
	// rebuilds the dedup window from the shared journal.
	key := r.Header.Get("Idempotency-Key")
	if len(key) > maxIdempotencyKey {
		writeError(w, http.StatusBadRequest, "bad_idempotency_key",
			fmt.Errorf("Idempotency-Key longer than %d bytes", maxIdempotencyKey))
		return
	}
	// The 202 is only sent after the batch is durably journaled (on a
	// store-backed service): an acknowledged change survives a crash.
	pending, duplicate, err := sess.QueueChangesKeyed(key, changes...)
	if err != nil {
		// Retryable conditions get retryable statuses: a full queue is the
		// client's backpressure signal (429), a transient store fault will
		// pass (503). Only real corruption — a change with no wire form, an
		// unencodable batch — stays a 500.
		switch {
		case errors.Is(err, ErrQueueFull):
			writeRetryableError(w, http.StatusTooManyRequests, "queue_full", err)
		case errors.Is(err, ErrNotOwner):
			// The session's lease moved to another node mid-request; the
			// router re-routes the client's retry to the new owner.
			writeRetryableError(w, http.StatusServiceUnavailable, "not_owner", err)
		case store.IsTransient(err):
			writeRetryableError(w, http.StatusServiceUnavailable, "store_unavailable", err)
		default:
			writeError(w, http.StatusInternalServerError, "queue_failed", err)
		}
		return
	}
	resp := map[string]any{"id": sess.ID(), "pending": pending}
	if duplicate {
		resp["duplicate"] = true
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func handleSolve(sess *Session, w http.ResponseWriter, r *http.Request) {
	// The request context rides all the way into the kernel's abort
	// check: a disconnected client's solve stops instead of running to
	// completion while holding an executor slot — and the service's
	// RequestTimeout (when set) bounds how long any one request may hold
	// that slot.
	ctx := r.Context()
	if limit := sess.svc.opts.RequestTimeout; limit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limit)
		defer cancel()
	}
	res, err := sess.SolveContext(ctx)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// The client is gone; the status code is for logs only.
			writeError(w, http.StatusRequestTimeout, "cancelled", err)
		case errors.Is(err, ErrOverloaded):
			writeRetryableError(w, http.StatusServiceUnavailable, "overloaded", err)
		case errors.Is(err, ErrNotOwner):
			writeRetryableError(w, http.StatusServiceUnavailable, "not_owner", err)
		case ctx.Err() != nil:
			// Our RequestTimeout fired, not the client: the service shed the
			// request to protect the pool. Retryable.
			writeRetryableError(w, http.StatusServiceUnavailable, "deadline_exceeded", err)
		case store.IsTransient(err):
			writeRetryableError(w, http.StatusServiceUnavailable, "store_unavailable", err)
		default:
			writeError(w, http.StatusConflict, "solve_failed", err)
		}
		return
	}
	d := sess.dom
	resp := solveResponse{
		SolveResult: res,
		Domain:      sess.Domain(),
		Solution:    d.Render(sess.problemRef(), res.Solution),
	}
	if res.Assignment != nil {
		if lits, ok := resp.Solution.([]int); ok {
			resp.Literals = lits
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleFlex(sess *Session, w http.ResponseWriter, r *http.Request) {
	k := 2
	if raw := r.URL.Query().Get("k"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 {
			writeError(w, http.StatusBadRequest, "bad_k", fmt.Errorf("bad k %q", raw))
			return
		}
		k = parsed
	}
	rep, err := sess.FlexReport(k)
	if err != nil {
		writeError(w, http.StatusConflict, "flex_failed", err)
		return
	}
	out := map[string]any{
		"id":       sess.ID(),
		"domain":   sess.Domain(),
		"k":        k,
		"total":    rep.Total,
		"flexible": rep.Flexible,
		"fraction": rep.Fraction(),
	}
	for name, v := range rep.Detail {
		out[name] = v
	}
	writeJSON(w, http.StatusOK, out)
}

// problemRef returns the live problem value for rendering (read-only).
func (s *Session) problemRef() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.problem
}

// ---- helpers -------------------------------------------------------------

func withSession(svc *Service, h func(*Session, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		sess, err := svc.LookupSession(id)
		if err != nil {
			switch {
			case errors.Is(err, ErrNotOwner):
				// Another node holds the session's lease: retryable, and the
				// router's retry lands on the owner.
				writeRetryableError(w, http.StatusServiceUnavailable, "not_owner", err)
			case store.IsTransient(err):
				writeRetryableError(w, http.StatusServiceUnavailable, "store_unavailable", err)
			default:
				writeError(w, http.StatusNotFound, "unknown_session", fmt.Errorf("unknown session %q", id))
			}
			return
		}
		h(sess, w, r)
	}
}

// ParseStrategy maps a strategy name (case-insensitive) to a Strategy;
// cmd/ecserve shares it for the -strategy flag.
func ParseStrategy(s string) (domain.Strategy, error) {
	return domain.ParseStrategy(s)
}

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// writeError emits the structured error body. code is a stable
// machine-readable slug; the message is human-readable.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]any{
		"error": map[string]any{"code": code, "message": err.Error()},
	})
}

// retryAfterSeconds is the Retry-After hint on 429/503 responses. One
// second comfortably covers a full store retry cycle (default backoff
// sums to well under a second) and a solve draining from the pool.
const retryAfterSeconds = 1

// writeRetryableError is writeError plus the Retry-After header: the
// condition is expected to pass, so a well-behaved client should back off
// and retry rather than give up.
func writeRetryableError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeError(w, status, code, err)
}
