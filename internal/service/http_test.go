package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ilpec/internal/cnf"
	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Options{Workers: 4})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func TestHTTPSessionWalkthrough(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":   "cnf",
		"problem":  map[string]any{"clauses": [][]int{{1, 2}, {-1, 3}, {2, 4}}},
		"strategy": "preserving",
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if info.ID == "" || info.Vars != 4 || info.Clauses != 3 {
		t.Fatalf("create info %+v", info)
	}
	base := ts.URL + "/v1/sessions/" + info.ID

	var solve struct {
		Status    string `json:"status"`
		Batched   int    `json:"batched"`
		Cached    bool   `json:"cached"`
		DontCares int    `json:"dont_cares"`
		Literals  []int  `json:"literals"`
	}
	if code, raw = doJSON(t, "POST", base+"/solve", nil, &solve); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	if solve.Status != "initial" || len(solve.Literals) == 0 {
		t.Fatalf("initial solve %+v", solve)
	}

	var queued struct {
		Pending int `json:"pending"`
	}
	code, raw = doJSON(t, "POST", base+"/changes", map[string]any{
		"changes": []map[string]any{
			{"kind": "add-clause", "lits": []int{-2, 3}},
			{"kind": "add-variable"},
			{"kind": "add-clause", "lits": []int{-3, 5}},
		},
	}, &queued)
	if code != http.StatusAccepted || queued.Pending != 3 {
		t.Fatalf("changes: %d %s", code, raw)
	}

	if code, raw = doJSON(t, "POST", base+"/solve", nil, &solve); code != http.StatusOK {
		t.Fatalf("batch solve: %d %s", code, raw)
	}
	if solve.Status != "preserving" || solve.Batched != 3 {
		t.Fatalf("batch solve %+v", solve)
	}

	var flex struct {
		Flexible int `json:"flexible"`
		Total    int `json:"total"`
	}
	if code, raw = doJSON(t, "GET", base+"/flex?k=2", nil, &flex); code != http.StatusOK {
		t.Fatalf("flex: %d %s", code, raw)
	}
	if flex.Total != 5 {
		t.Fatalf("flex total %d, want 5 clauses", flex.Total)
	}

	var metrics MetricsSnapshot
	if code, raw = doJSON(t, "GET", ts.URL+"/v1/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if metrics.Solves != 2 || metrics.Batches != 1 {
		t.Fatalf("metrics %+v", metrics)
	}

	if code, raw = doJSON(t, "DELETE", base, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, raw)
	}
	if code, _ = doJSON(t, "GET", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session still answers: %d", code)
	}
}

func TestHTTPCreateDIMACS(t *testing.T) {
	_, ts := newTestServer(t)
	var info SessionInfo
	code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":  "cnf",
		"problem": map[string]any{"dimacs": "p cnf 3 2\n1 -2 0\n2 3 0\n"},
	}, &info)
	if code != http.StatusCreated || info.Vars != 3 || info.Clauses != 2 {
		t.Fatalf("dimacs create: %d %s", code, raw)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cnfProblem := func(problem map[string]any) map[string]any {
		return map[string]any{"domain": "cnf", "problem": problem}
	}
	for name, tc := range map[string]struct {
		method, path string
		body         any
		want         int
		code         string // error code, when pinned
	}{
		"missing formula": {"POST", "/v1/sessions", map[string]any{}, http.StatusBadRequest, "bad_problem"},
		"both formats":    {"POST", "/v1/sessions", cnfProblem(map[string]any{"dimacs": "p cnf 1 1\n1 0\n", "clauses": [][]int{{1}}}), http.StatusBadRequest, "bad_problem"},
		"bad strategy":    {"POST", "/v1/sessions", map[string]any{"domain": "cnf", "problem": map[string]any{"clauses": [][]int{{1}}}, "strategy": "psychic"}, http.StatusBadRequest, "unknown_strategy"},
		"zero literal":    {"POST", "/v1/sessions", cnfProblem(map[string]any{"clauses": [][]int{{1, 0}}}), http.StatusBadRequest, "bad_problem"},
		"unknown field":   {"POST", "/v1/sessions", map[string]any{"claws": [][]int{{1}}}, http.StatusBadRequest, "bad_request"},
		"unknown session": {"GET", "/v1/sessions/nope", nil, http.StatusNotFound, ""},
		"solve unknown":   {"POST", "/v1/sessions/nope/solve", nil, http.StatusNotFound, ""},
	} {
		t.Run(name, func(t *testing.T) {
			code, raw := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil)
			if code != tc.want {
				t.Fatalf("%s %s: got %d (%s), want %d", tc.method, tc.path, code, raw, tc.want)
			}
			if tc.code != "" {
				if eb := decodeError(t, raw); eb.Error.Code != tc.code {
					t.Fatalf("error code %q, want %q (%s)", eb.Error.Code, tc.code, raw)
				}
			}
		})
	}

	// Bad change kinds and empty batches on a real session.
	var info SessionInfo
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", cnfProblem(map[string]any{"clauses": [][]int{{1, 2}}}), &info); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	if code, _ := doJSON(t, "POST", base+"/changes", map[string]any{"changes": []map[string]any{}}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch accepted: %d", code)
	}
	if code, _ := doJSON(t, "POST", base+"/changes", map[string]any{"changes": []map[string]any{{"kind": "telepathy"}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad kind accepted: %d", code)
	}
	if code, _ := doJSON(t, "GET", base+"/flex?k=0", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bad k accepted: %d", code)
	}
	// Flex before solve conflicts.
	if code, _ := doJSON(t, "GET", base+"/flex", nil, nil); code != http.StatusConflict {
		t.Fatalf("flex before solve: %d", code)
	}
	// An unsatisfiable batch reports conflict and keeps the session.
	doJSON(t, "POST", base+"/solve", nil, nil)
	doJSON(t, "POST", base+"/changes", map[string]any{"changes": []map[string]any{
		{"kind": "add-clause", "lits": []int{1}},
		{"kind": "add-clause", "lits": []int{-1}},
	}}, nil)
	if code, _ := doJSON(t, "POST", base+"/solve", nil, nil); code != http.StatusConflict {
		t.Fatalf("unsat batch: %d, want 409", code)
	}
	if code, _ := doJSON(t, "GET", base, nil, nil); code != http.StatusOK {
		t.Fatalf("session gone after failed batch: %d", code)
	}
}

// TestHTTPConcurrentSessions drives the acceptance scenario over the wire:
// 8 parallel HTTP clients create sessions on the same formula, post a
// 3-change batch, and solve. The service must answer some solves from the
// cache and coalesce every batch into a single pass.
func TestHTTPConcurrentSessions(t *testing.T) {
	svc, ts := newTestServer(t)
	const clients = 8

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var info SessionInfo
			code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
				"domain":  "cnf",
				"problem": map[string]any{"clauses": [][]int{{1, 2}, {-1, 3}, {2, 4}, {-3, -4, 5}, {5, 6}}},
			}, &info)
			if code != http.StatusCreated {
				errs <- fmt.Errorf("create: %d %s", code, raw)
				return
			}
			base := ts.URL + "/v1/sessions/" + info.ID
			if code, raw := doJSON(t, "POST", base+"/solve", nil, nil); code != http.StatusOK {
				errs <- fmt.Errorf("initial solve: %d %s", code, raw)
				return
			}
			code, raw = doJSON(t, "POST", base+"/changes", map[string]any{
				"changes": []map[string]any{
					{"kind": "add-clause", "lits": []int{-2, 3}},
					{"kind": "add-clause", "lits": []int{1, 4}},
					{"kind": "add-clause", "lits": []int{-5, 2}},
				},
			}, nil)
			if code != http.StatusAccepted {
				errs <- fmt.Errorf("changes: %d %s", code, raw)
				return
			}
			var solve struct {
				Batched  int   `json:"batched"`
				Literals []int `json:"literals"`
			}
			if code, raw := doJSON(t, "POST", base+"/solve", nil, &solve); code != http.StatusOK {
				errs <- fmt.Errorf("batch solve: %d %s", code, raw)
				return
			}
			if solve.Batched != 3 {
				errs <- fmt.Errorf("batched %d, want 3", solve.Batched)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m := svc.Metrics()
	if m.CacheHits == 0 {
		t.Fatalf("no cache hits over HTTP: %+v", m)
	}
	if m.Batches >= m.ChangesQueued {
		t.Fatalf("batched solves %d not < posted changes %d", m.Batches, m.ChangesQueued)
	}
}

// TestHTTPOverridesClamped pins that client-supplied solver overrides
// cannot escape the operator's limits: the session is created, but with
// workers bounded by the machine and the time limit by the service cap.
func TestHTTPOverridesClamped(t *testing.T) {
	svc := New(Options{Solve: ilp.Options{TimeLimit: time.Second}})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	var info SessionInfo
	code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":        "cnf",
		"problem":       map[string]any{"clauses": [][]int{{1, 2}}},
		"workers":       1 << 20,
		"time_limit_ms": 1 << 40,
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	sess, ok := svc.Session(info.ID)
	if !ok {
		t.Fatal("session missing")
	}
	if sess.solve.Workers > runtime.GOMAXPROCS(0) {
		t.Fatalf("workers %d escaped the machine clamp", sess.solve.Workers)
	}
	if sess.solve.TimeLimit > time.Second {
		t.Fatalf("time limit %v escaped the service cap", sess.solve.TimeLimit)
	}
	// A request below the caps is honored as-is.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":        "cnf",
		"problem":       map[string]any{"clauses": [][]int{{1, 2}}},
		"workers":       1,
		"time_limit_ms": 50,
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	sess, _ = svc.Session(info.ID)
	if sess.solve.TimeLimit != 50*time.Millisecond || sess.solve.Workers != 1 {
		t.Fatalf("in-range overrides mangled: %+v", sess.solve)
	}
}

func TestAssignmentLits(t *testing.T) {
	d, ok := domain.Get("cnf")
	if !ok {
		t.Fatal("cnf domain missing")
	}
	a := cnf.NewAssignment(4)
	a.Set(1, cnf.True)
	a.Set(3, cnf.False)
	got, ok := d.Render(cnf.New(4), a).([]int)
	if !ok {
		t.Fatalf("render type %T", d.Render(cnf.New(4), a))
	}
	want := []int{1, -3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("lits %v, want %v", got, want)
	}
}

// The HTTP wire contract of change-batch idempotency: a replay carrying
// the same Idempotency-Key is acknowledged 202 with "duplicate": true
// and pending unchanged, and an oversized key is rejected up front.
func TestHTTPChangesIdempotencyKey(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":  "cnf",
		"problem": map[string]any{"clauses": [][]int{{1, 2}, {-1, 3}}},
	}, &info); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	base := ts.URL + "/v1/sessions/" + info.ID

	post := func(key string) (int, string) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{
			"changes": []map[string]any{{"kind": "add-clause", "lits": []int{-2, 3}}},
		})
		req, err := http.NewRequest("POST", base+"/changes", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	var ack struct {
		Pending   int  `json:"pending"`
		Duplicate bool `json:"duplicate"`
	}
	code, raw := post("key-1")
	if json.Unmarshal([]byte(raw), &ack); code != http.StatusAccepted || ack.Duplicate || ack.Pending != 1 {
		t.Fatalf("first keyed batch: %d %s", code, raw)
	}
	ack.Duplicate = false
	code, raw = post("key-1")
	if json.Unmarshal([]byte(raw), &ack); code != http.StatusAccepted || !ack.Duplicate || ack.Pending != 1 {
		t.Fatalf("replayed batch: %d %s, want 202 duplicate with pending still 1", code, raw)
	}
	// Unkeyed batches never dedup.
	ack.Duplicate = false
	code, raw = post("")
	if json.Unmarshal([]byte(raw), &ack); code != http.StatusAccepted || ack.Duplicate || ack.Pending != 2 {
		t.Fatalf("unkeyed batch: %d %s", code, raw)
	}
	if code, raw := post(strings.Repeat("k", maxIdempotencyKey+1)); code != http.StatusBadRequest || !strings.Contains(raw, "bad_idempotency_key") {
		t.Fatalf("oversized key: %d %s, want 400 bad_idempotency_key", code, raw)
	}
}
