package service

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

	"ilpec/internal/ilp"
	"ilpec/internal/obs"
	"ilpec/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// These tests pin what the service exposes after a fixed request script:
// the /v1/metrics body byte for byte, and the /metrics series set (name,
// type, labels, every counter and gauge value, every histogram's count).
// Timings, bucket spreads and family order are left out, so the pins
// hold on any host and under any exposition order.

// goldenScript drives one fixed session story through h: a create, an
// initial solve, a change batch and its idempotent replay, an EC solve,
// a twin session answered from the solve cache, a flex report, a delete,
// and a /v1/metrics read. It returns the /v1/metrics body.
func goldenScript(t *testing.T, url string) []byte {
	t.Helper()
	problem := map[string]any{"clauses": [][]int{{1, 2, 3}, {-1, 4}, {-2, 5}, {3, -5, 6}, {-4, -6}, {2, 6}}}
	steps := []struct {
		method, path string
		body         any
		key          string
		want         int
	}{
		{"POST", "/v1/sessions", map[string]any{"domain": "cnf", "problem": problem}, "", http.StatusCreated},
		{"POST", "/v1/sessions/s1/solve", nil, "", http.StatusOK},
		{"POST", "/v1/sessions/s1/changes", map[string]any{"changes": []any{
			map[string]any{"kind": "add-clause", "lits": []int{-3, -6}},
			map[string]any{"kind": "add-clause", "lits": []int{1, -5}},
		}}, "batch-1", http.StatusAccepted},
		{"POST", "/v1/sessions/s1/changes", map[string]any{"changes": []any{
			map[string]any{"kind": "add-clause", "lits": []int{-3, -6}},
			map[string]any{"kind": "add-clause", "lits": []int{1, -5}},
		}}, "batch-1", http.StatusAccepted},
		{"POST", "/v1/sessions/s1/solve", nil, "", http.StatusOK},
		{"POST", "/v1/sessions", map[string]any{"domain": "cnf", "problem": problem}, "", http.StatusCreated},
		{"POST", "/v1/sessions/s2/solve", nil, "", http.StatusOK},
		{"GET", "/v1/sessions/s1/flex?k=1", nil, "", http.StatusOK},
		{"GET", "/v1/sessions/s1", nil, "", http.StatusOK},
		{"DELETE", "/v1/sessions/s2", nil, "", http.StatusOK},
		{"GET", "/v1/metrics", nil, "", http.StatusOK},
	}
	var last []byte
	for _, st := range steps {
		var rd io.Reader
		if st.body != nil {
			raw := mustJSON(t, st.body)
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(st.method, url+st.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if st.key != "" {
			req.Header.Set("Idempotency-Key", st.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		last, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != st.want {
			t.Fatalf("%s %s: %d %s, want %d", st.method, st.path, resp.StatusCode, last, st.want)
		}
	}
	return last
}

func newGoldenServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc := New(Options{
		Workers: 1,
		Store:   store.NewMemory(),
		Solve:   ilp.Options{Presolve: true, Cuts: true},
	})
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
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
// HELP lines, buckets and sums are dropped.
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

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestV1MetricsGolden(t *testing.T) {
	ts := newGoldenServer(t)
	checkGolden(t, "v1_metrics.golden", goldenScript(t, ts.URL))
}

func TestPromSeriesGolden(t *testing.T) {
	ts := newGoldenServer(t)
	goldenScript(t, ts.URL)
	checkGolden(t, "prom_series.golden", promSeriesSet(t, scrape(t, ts.URL+"/metrics")))
}
