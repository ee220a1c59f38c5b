package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"ilpec/internal/domain"
)

// errorBody is the structured error shape of the handler.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func decodeError(t *testing.T, raw string) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal([]byte(raw), &eb); err != nil {
		t.Fatalf("error body %q not structured: %v", raw, err)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("error body %q missing code/message", raw)
	}
	return eb
}

// TestHTTPDomainsEndpoint lists the registered domains.
func TestHTTPDomainsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var out struct {
		Domains []string `json:"domains"`
	}
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/domains", nil, &out); code != http.StatusOK {
		t.Fatalf("domains: %d %s", code, raw)
	}
	want := map[string]bool{"cnf": true, "coloring": true, "sched": true, "partition": true}
	for _, name := range out.Domains {
		delete(want, name)
	}
	if len(want) != 0 {
		t.Fatalf("missing domains %v in %v", want, out.Domains)
	}
}

// TestHTTPStructuredErrors pins the 400 + {"error":{code,message}} shape
// for unknown domain and strategy names (and friends).
func TestHTTPStructuredErrors(t *testing.T) {
	_, ts := newTestServer(t)
	for name, tc := range map[string]struct {
		body     any
		wantCode string
	}{
		"unknown domain": {
			body:     map[string]any{"domain": "quantum", "problem": map[string]any{}},
			wantCode: "unknown_domain",
		},
		"unknown strategy": {
			body:     map[string]any{"domain": "cnf", "problem": map[string]any{"clauses": [][]int{{1}}}, "strategy": "psychic"},
			wantCode: "unknown_strategy",
		},
		"bad problem": {
			body:     map[string]any{"domain": "coloring", "problem": map[string]any{"vertices": -1, "k": 0}},
			wantCode: "bad_problem",
		},
		// Declared counts that would encode past domain.MaxColumns are
		// refused before anything sized by them is allocated.
		"oversized problem": {
			body:     map[string]any{"domain": "coloring", "problem": map[string]any{"vertices": domain.MaxColumns + 1, "k": 1}},
			wantCode: "bad_problem",
		},
		"missing problem": {
			body:     map[string]any{"domain": "partition"},
			wantCode: "bad_problem",
		},
		"both problem shapes": {
			body:     map[string]any{"domain": "cnf", "problem": map[string]any{"dimacs": "p cnf 1 1\n1 0\n", "clauses": [][]int{{1}}}},
			wantCode: "bad_problem",
		},
		// The CNF problem fields are not accepted at the top level.
		"top-level clauses": {
			body:     map[string]any{"clauses": [][]int{{1}}},
			wantCode: "bad_request",
		},
	} {
		t.Run(name, func(t *testing.T) {
			code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", tc.body, nil)
			if code != http.StatusBadRequest {
				t.Fatalf("got %d (%s), want 400", code, raw)
			}
			if eb := decodeError(t, raw); eb.Error.Code != tc.wantCode {
				t.Fatalf("error code %q, want %q (%s)", eb.Error.Code, tc.wantCode, raw)
			}
		})
	}
}

// TestHTTPPartitionWalkthrough drives the new partitioning domain end to
// end over the wire: create by domain name, solve, queue netlist changes,
// fast-EC re-solve, flex audit.
func TestHTTPPartitionWalkthrough(t *testing.T) {
	_, ts := newTestServer(t)

	var info SessionInfo
	code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain": "partition",
		"problem": map[string]any{
			"vertices": 6,
			"blocks":   2,
			"edges":    [][]int{{1, 2}, {2, 3}, {4, 5}, {5, 6}, {3, 4}},
		},
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if info.Domain != "partition" || info.Vars != 6 || info.Clauses != 5 {
		t.Fatalf("create info %+v", info)
	}
	base := ts.URL + "/v1/sessions/" + info.ID

	var solve struct {
		Status   string `json:"status"`
		Domain   string `json:"domain"`
		Batched  int    `json:"batched"`
		Solution []int  `json:"solution"`
		Literals []int  `json:"literals"`
	}
	if code, raw = doJSON(t, "POST", base+"/solve", nil, &solve); code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, raw)
	}
	if solve.Status != "initial" || solve.Domain != "partition" || len(solve.Solution) != 6 {
		t.Fatalf("initial solve %+v", solve)
	}
	if len(solve.Literals) != 0 {
		t.Fatalf("non-CNF solve rendered literals %v", solve.Literals)
	}

	var queued struct {
		Pending int `json:"pending"`
	}
	code, raw = doJSON(t, "POST", base+"/changes", map[string]any{
		"changes": []map[string]any{
			{"kind": "add-vertex"},
			{"kind": "set-bounds", "max": 4},
			{"kind": "add-edge", "u": 7, "v": 1, "weight": 2},
		},
	}, &queued)
	if code != http.StatusAccepted || queued.Pending != 3 {
		t.Fatalf("changes: %d %s", code, raw)
	}
	if code, raw = doJSON(t, "POST", base+"/solve", nil, &solve); code != http.StatusOK {
		t.Fatalf("batch solve: %d %s", code, raw)
	}
	if solve.Status != "fast" || solve.Batched != 3 || len(solve.Solution) != 7 {
		t.Fatalf("batch solve %+v", solve)
	}

	var flex struct {
		Domain   string  `json:"domain"`
		Total    int     `json:"total"`
		Flexible int     `json:"flexible"`
		Fraction float64 `json:"fraction"`
	}
	if code, raw = doJSON(t, "GET", base+"/flex?k=1", nil, &flex); code != http.StatusOK {
		t.Fatalf("flex: %d %s", code, raw)
	}
	if flex.Domain != "partition" || flex.Total != 7 {
		t.Fatalf("flex %+v", flex)
	}

	// A bad change kind for this domain is a structured 400.
	code, raw = doJSON(t, "POST", base+"/changes", map[string]any{
		"changes": []map[string]any{{"kind": "add-clause", "lits": []int{1}}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("cnf change on partition session: %d %s", code, raw)
	}
	if eb := decodeError(t, raw); eb.Error.Code != "bad_change" {
		t.Fatalf("error code %q", eb.Error.Code)
	}
}

// TestHTTPColoringAndSchedCreate exercises the remaining built-in domains
// over the create/solve path.
func TestHTTPColoringAndSchedCreate(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		domain  string
		problem map[string]any
		units   int
	}{
		{"coloring", map[string]any{"vertices": 4, "k": 3, "edges": [][]int{{1, 2}, {2, 3}, {3, 4}}}, 4},
		{"sched", map[string]any{"capacity": []int{1, 1}, "steps": 4, "types": []int{0, 1, 0}, "deps": [][]int{{0, 1}}}, 3},
	} {
		t.Run(tc.domain, func(t *testing.T) {
			var info SessionInfo
			code, raw := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
				"domain": tc.domain, "problem": tc.problem,
			}, &info)
			if code != http.StatusCreated || info.Domain != tc.domain || info.Vars != tc.units {
				t.Fatalf("create: %d %s (info %+v)", code, raw, info)
			}
			var solve struct {
				Status   string `json:"status"`
				Solution []int  `json:"solution"`
			}
			code, raw = doJSON(t, "POST", ts.URL+"/v1/sessions/"+info.ID+"/solve", nil, &solve)
			if code != http.StatusOK || solve.Status != "initial" || len(solve.Solution) != tc.units {
				t.Fatalf("solve: %d %s (%+v)", code, raw, solve)
			}
		})
	}
}
