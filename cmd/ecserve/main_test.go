package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ilpec/internal/core"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", ":0", "-strategy", "preserving", "-timeout", "5s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":0" || cfg.strategy != core.PreservingEC || cfg.timeLimit != 5*time.Second {
		t.Fatalf("cfg %+v", cfg)
	}
	if !cfg.presolve || !cfg.cuts {
		t.Fatalf("presolve/cuts should default on: %+v", cfg)
	}
	cfg2, err := parseFlags([]string{"-presolve=false", "-cuts=false"}, io.Discard)
	if err != nil || cfg2.presolve || cfg2.cuts {
		t.Fatalf("presolve/cuts flags not honored: %+v (%v)", cfg2, err)
	}
	if _, err := parseFlags([]string{"-strategy", "psychic"}, io.Discard); err == nil {
		t.Fatal("bad strategy accepted")
	}
	if _, err := parseFlags([]string{"stray"}, io.Discard); err == nil {
		t.Fatal("stray argument accepted")
	}
	cfg3, err := parseFlags([]string{
		"-data-dir", "/tmp/x", "-snapshot-every", "8",
		"-max-live-sessions", "2", "-session-ttl", "90s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg3.dataDir != "/tmp/x" || cfg3.snapshotEvery != 8 || cfg3.maxLive != 2 || cfg3.sessionTTL != 90*time.Second {
		t.Fatalf("persistence flags not honored: %+v", cfg3)
	}
	if cfg.dataDir != "" || cfg.snapshotEvery != 64 || cfg.sessionTTL != 0 {
		t.Fatalf("persistence defaults wrong: %+v", cfg)
	}
	if _, err := parseFlags([]string{"-max-live-sessions", "2"}, io.Discard); err == nil {
		t.Fatal("-max-live-sessions without -data-dir accepted")
	}
}

// TestServeLifecycle boots the real server on a random port, drives one
// session through the HTTP API, and checks the graceful shutdown path.
func TestServeLifecycle(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-drain", "2s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, cfg, log.New(io.Discard, "", 0), func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"domain": "cnf", "problem": {"clauses": [[1,2],[-1,3]]}}`
	resp, err = http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || json.Unmarshal(raw, &info) != nil || info.ID == "" {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	resp, err = http.Post(base+"/v1/sessions/"+info.ID+"/solve", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// startTestServer boots the real server on a random port and returns its
// base URL; extra flags ride along after the defaults.
func startTestServer(t *testing.T, extraArgs ...string) string {
	t.Helper()
	base, _ := startStoppableServer(t, extraArgs...)
	return base
}

// startStoppableServer is startTestServer plus an explicit stop function
// (graceful shutdown, waits for exit) for restart scenarios.
func startStoppableServer(t *testing.T, extraArgs ...string) (string, func()) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-drain", "2s"}, extraArgs...)
	cfg, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, cfg, log.New(io.Discard, "", 0), func(addr string) { addrCh <- addr })
	}()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("shutdown error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
	}
	t.Cleanup(stop)
	select {
	case addr := <-addrCh:
		return "http://" + addr, stop
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	return "", nil
}

// postJSON posts a JSON body and returns the status code and the decoded
// structured error (zero-valued on success responses).
func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestServeClientErrorPaths pins that client mistakes — unknown domain or
// strategy names, malformed problems, bad change kinds — come back as
// HTTP 400 (never 500) with the structured {"error":{code,message}} body.
func TestServeClientErrorPaths(t *testing.T) {
	base := startTestServer(t)
	decode := func(raw string) (code, message string) {
		var eb struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal([]byte(raw), &eb); err != nil {
			t.Fatalf("unstructured error body %q: %v", raw, err)
		}
		return eb.Error.Code, eb.Error.Message
	}

	for name, tc := range map[string]struct {
		body     string
		wantCode string
	}{
		"unknown domain":   {`{"domain": "quantum", "problem": {}}`, "unknown_domain"},
		"unknown strategy": {`{"domain": "cnf", "problem": {"clauses": [[1,2]]}, "strategy": "psychic"}`, "unknown_strategy"},
		"bad problem":      {`{"domain": "coloring", "problem": {"vertices": 3, "k": 0}}`, "bad_problem"},
		"missing problem":  {`{"domain": "sched"}`, "bad_problem"},
	} {
		t.Run(name, func(t *testing.T) {
			status, raw := postJSON(t, base+"/v1/sessions", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", status, raw)
			}
			code, message := decode(raw)
			if code != tc.wantCode || message == "" {
				t.Fatalf("error %q/%q, want code %q", code, message, tc.wantCode)
			}
		})
	}

	// Bad change kind on a live session.
	status, raw := postJSON(t, base+"/v1/sessions", `{"domain": "partition", "problem": {"vertices": 4, "blocks": 2, "edges": [[1,2]]}}`)
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, raw)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(raw), &info); err != nil || info.ID == "" {
		t.Fatalf("create info %q: %v", raw, err)
	}
	status, raw = postJSON(t, base+"/v1/sessions/"+info.ID+"/changes", `{"changes": [{"kind": "warp"}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("bad change: %d %s", status, raw)
	}
	if code, _ := decode(raw); code != "bad_change" {
		t.Fatalf("error code %q, want bad_change", code)
	}
}

// TestServePartitionEndToEnd drives the new partitioning domain through
// the real server: create by domain name, initial solve, netlist change
// batch, fast-EC re-solve.
func TestServePartitionEndToEnd(t *testing.T) {
	base := startTestServer(t)
	status, raw := postJSON(t, base+"/v1/sessions",
		`{"domain": "partition", "problem": {"vertices": 6, "blocks": 2, "edges": [[1,2],[2,3],[4,5],[5,6],[3,4]]}}`)
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, raw)
	}
	var info struct {
		ID     string `json:"id"`
		Domain string `json:"domain"`
	}
	if err := json.Unmarshal([]byte(raw), &info); err != nil || info.Domain != "partition" {
		t.Fatalf("create info %q: %v", raw, err)
	}
	sessURL := base + "/v1/sessions/" + info.ID
	var solve struct {
		Status   string `json:"status"`
		Batched  int    `json:"batched"`
		Solution []int  `json:"solution"`
	}
	status, raw = postJSON(t, sessURL+"/solve", "")
	if status != http.StatusOK || json.Unmarshal([]byte(raw), &solve) != nil {
		t.Fatalf("solve: %d %s", status, raw)
	}
	if solve.Status != "initial" || len(solve.Solution) != 6 {
		t.Fatalf("initial solve %+v", solve)
	}
	status, raw = postJSON(t, sessURL+"/changes",
		`{"changes": [{"kind": "add-vertex"}, {"kind": "set-bounds", "max": 4}, {"kind": "add-edge", "u": 7, "v": 1, "weight": 2}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("changes: %d %s", status, raw)
	}
	status, raw = postJSON(t, sessURL+"/solve", "")
	if status != http.StatusOK || json.Unmarshal([]byte(raw), &solve) != nil {
		t.Fatalf("batch solve: %d %s", status, raw)
	}
	if solve.Status != "fast" || solve.Batched != 3 || len(solve.Solution) != 7 {
		t.Fatalf("batch solve %+v", solve)
	}
}

// TestServeDomainsEndpoint pins that the server advertises all built-in
// domains.
func TestServeDomainsEndpoint(t *testing.T) {
	base := startTestServer(t)
	resp, err := http.Get(base + "/v1/domains")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("domains: %d %s", resp.StatusCode, raw)
	}
	var out struct {
		Domains []string `json:"domains"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"cnf": true, "coloring": true, "sched": true, "partition": true}
	for _, d := range out.Domains {
		delete(want, d)
	}
	if len(want) != 0 {
		t.Fatalf("missing domains %v in %s", want, raw)
	}
}

// TestServeMetricsCounters: /v1/metrics reports the presolve/cut-pool
// counters the PR-4 solver layers feed (the server runs with presolve and
// cuts on by default).
func TestServeMetricsCounters(t *testing.T) {
	base := startTestServer(t)
	body := `{"domain": "cnf", "problem": {"clauses": [[1,2],[-1,3],[2,3]]}}`
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if json.Unmarshal(raw, &info) != nil || info.ID == "" {
		t.Fatalf("create: %s", raw)
	}
	resp, err = http.Post(base+"/v1/sessions/"+info.ID+"/solve", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics body %s: %v", raw, err)
	}
	for _, k := range []string{
		"presolve_fixed", "presolve_rows", "cuts_added", "cuts_reused",
		"cut_tightenings", "truncated_solves",
	} {
		if _, ok := m[k]; !ok {
			t.Fatalf("metrics missing %q: %s", k, raw)
		}
	}
}

// TestServeRestartSurvivesSession is the subsystem acceptance test: a
// session created, changed, and solved against a file-backed store
// survives a full process restart — after recovery GET /v1/sessions lists
// it and a subsequent solve returns the identical solution (same
// objective, same fingerprint).
func TestServeRestartSurvivesSession(t *testing.T) {
	dataDir := t.TempDir()
	base, stop := startStoppableServer(t, "-data-dir", dataDir)

	status, raw := postJSON(t, base+"/v1/sessions", `{"domain": "cnf", "problem": {"clauses": [[1,2],[-1,3],[2,4],[-3,-4,5],[5,6]]}}`)
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, raw)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(raw), &info); err != nil || info.ID == "" {
		t.Fatalf("create info %q: %v", raw, err)
	}
	sessURL := "/v1/sessions/" + info.ID
	if status, raw = postJSON(t, base+sessURL+"/solve", ""); status != http.StatusOK {
		t.Fatalf("initial solve: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+sessURL+"/changes",
		`{"changes": [{"kind": "add-clause", "lits": [-2, 3]}, {"kind": "add-variable"}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("changes: %d %s", status, raw)
	}
	type solveBody struct {
		Status    string `json:"status"`
		Solution  []int  `json:"solution"`
		DontCares int    `json:"dont_cares"`
	}
	var before solveBody
	status, raw = postJSON(t, base+sessURL+"/solve", "")
	if status != http.StatusOK || json.Unmarshal([]byte(raw), &before) != nil {
		t.Fatalf("batch solve: %d %s", status, raw)
	}

	// Full process restart: graceful stop, fresh server over the same dir.
	stop()
	base2, _ := startStoppableServer(t, "-data-dir", dataDir)

	resp, err := http.Get(base2 + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	listRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Sessions []string `json:"sessions"`
		Live     []string `json:"live"`
	}
	if err := json.Unmarshal(listRaw, &list); err != nil {
		t.Fatalf("list body %s: %v", listRaw, err)
	}
	found := false
	for _, id := range list.Sessions {
		found = found || id == info.ID
	}
	if !found {
		t.Fatalf("recovered listing %s misses %s", listRaw, info.ID)
	}
	if len(list.Live) != 0 {
		t.Fatalf("sessions live before first touch: %s", listRaw)
	}

	// The recovered session answers with the same solution: equal
	// rendered literals means equal objective AND equal fingerprint.
	var after solveBody
	status, raw = postJSON(t, base2+sessURL+"/solve", "")
	if status != http.StatusOK || json.Unmarshal([]byte(raw), &after) != nil {
		t.Fatalf("post-restart solve: %d %s", status, raw)
	}
	if after.Status != "noop" {
		t.Fatalf("post-restart solve status %q, want noop", after.Status)
	}
	if !reflect.DeepEqual(after.Solution, before.Solution) || after.DontCares != before.DontCares {
		t.Fatalf("solution diverged across restart:\n before %v (%d dc)\n after  %v (%d dc)",
			before.Solution, before.DontCares, after.Solution, after.DontCares)
	}

	// The recovered session keeps absorbing changes.
	status, raw = postJSON(t, base2+sessURL+"/changes", `{"changes": [{"kind": "add-clause", "lits": [1, 7]}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("post-restart changes: %d %s", status, raw)
	}
	if status, raw = postJSON(t, base2+sessURL+"/solve", ""); status != http.StatusOK {
		t.Fatalf("post-restart batch solve: %d %s", status, raw)
	}

	// DELETE drops it from the store too.
	req, _ := http.NewRequest(http.MethodDelete, base2+sessURL, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dataDir, info.ID)); !os.IsNotExist(err) {
		t.Fatalf("session directory survived DELETE: %v", err)
	}
}

// TestServeShutdownFlushesStore pins the graceful-drain satellite: by the
// time the process exits, every session's state is compacted into its
// snapshot (journal drained), so the files alone carry the session.
func TestServeShutdownFlushesStore(t *testing.T) {
	dataDir := t.TempDir()
	base, stop := startStoppableServer(t, "-data-dir", dataDir, "-snapshot-every", "1000000")

	status, raw := postJSON(t, base+"/v1/sessions", `{"domain": "cnf", "problem": {"clauses": [[1,2],[-1,3]]}}`)
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, raw)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(raw), &info); err != nil {
		t.Fatal(err)
	}
	if status, raw = postJSON(t, base+"/v1/sessions/"+info.ID+"/solve", ""); status != http.StatusOK {
		t.Fatalf("solve: %d %s", status, raw)
	}
	status, raw = postJSON(t, base+"/v1/sessions/"+info.ID+"/changes", `{"changes": [{"kind": "add-variable"}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("changes: %d %s", status, raw)
	}
	stop()

	// With -snapshot-every effectively off, only the shutdown flush can
	// have compacted the journal into the snapshot.
	snapRaw, err := os.ReadFile(filepath.Join(dataDir, info.ID, "snapshot.json"))
	if err != nil {
		t.Fatalf("snapshot not flushed: %v", err)
	}
	var snap struct {
		Solution json.RawMessage   `json:"solution"`
		Pending  []json.RawMessage `json:"pending"`
		Seq      uint64            `json:"seq"`
	}
	if err := json.Unmarshal(snapRaw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Solution) == 0 || snap.Seq == 0 || len(snap.Pending) != 1 {
		t.Fatalf("flushed snapshot incomplete: %s", snapRaw)
	}
	journal, err := os.ReadFile(filepath.Join(dataDir, info.ID, "journal.jsonl"))
	if err != nil || len(journal) != 0 {
		t.Fatalf("journal not drained at shutdown: %q (%v)", journal, err)
	}
}

// TestServeEvictionOverHTTP: with -max-live-sessions 1 the server keeps
// serving every session while only one lives in memory.
func TestServeEvictionOverHTTP(t *testing.T) {
	base := startTestServer(t, "-data-dir", t.TempDir(), "-max-live-sessions", "1")
	var ids []string
	for i := 0; i < 3; i++ {
		status, raw := postJSON(t, base+"/v1/sessions", `{"domain": "cnf", "problem": {"clauses": [[1,2],[-1,3]]}}`)
		if status != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, status, raw)
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(raw), &info); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		if status, raw = postJSON(t, base+"/v1/sessions/"+info.ID+"/solve", ""); status != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, status, raw)
		}
	}
	// Every session still answers (rehydrating as needed) ...
	for _, id := range ids {
		if status, raw := postJSON(t, base+"/v1/sessions/"+id+"/solve", ""); status != http.StatusOK {
			t.Fatalf("evicted session %s unreachable: %d %s", id, status, raw)
		}
	}
	// ... while metrics show the eviction/rehydration churn and a bounded
	// live set.
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m struct {
		SessionsLive int   `json:"sessions_live"`
		Evictions    int64 `json:"evictions"`
		Rehydrations int64 `json:"rehydrations"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.SessionsLive != 1 || m.Evictions < 2 || m.Rehydrations < 2 {
		t.Fatalf("eviction metrics %s", raw)
	}
}

func TestParseResilienceFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-store-retries", "2", "-quarantine-after", "1", "-reprobe-interval", "250ms",
		"-max-pending", "16", "-max-backlog", "4", "-request-timeout", "3s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.storeRetries != 2 || cfg.quarantineAfter != 1 || cfg.reprobeInterval != 250*time.Millisecond ||
		cfg.maxPending != 16 || cfg.maxBacklog != 4 || cfg.requestTimeout != 3*time.Second {
		t.Fatalf("resilience flags not honored: %+v", cfg)
	}
	if cfg.faultPlan != nil {
		t.Fatal("fault plan armed without -fault-plan")
	}
	if _, err := parseFlags([]string{"-fault-plan", "append:error:every=1"}, io.Discard); err == nil {
		t.Fatal("-fault-plan without -data-dir accepted")
	}
	if _, err := parseFlags([]string{"-data-dir", "/tmp/x", "-fault-plan", "append:bogus:every=1"}, io.Discard); err == nil {
		t.Fatal("bad -fault-plan spec accepted")
	}
	cfg2, err := parseFlags([]string{"-data-dir", "/tmp/x", "-fault-plan", "append:error:p=0.5", "-fault-seed", "7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.faultPlan == nil {
		t.Fatal("fault plan not armed")
	}
}

// TestServeFaultPlanDegradedServing boots the server with -fault-plan
// making every store write fail: sessions must still be created and
// solved (memory-only), with the quarantine visible in the session list
// and the metrics — the CLI surface of the chaos suite's total-outage
// scenario.
func TestServeFaultPlanDegradedServing(t *testing.T) {
	base := startTestServer(t,
		"-data-dir", filepath.Join(t.TempDir(), "data"),
		"-fault-plan", "append:error:every=1;snapshot:error:every=1",
		"-quarantine-after", "1", "-reprobe-interval", "-1s",
	)
	status, raw := postJSON(t, base+"/v1/sessions", `{"domain": "cnf", "problem": {"clauses": [[1,2],[-1,3]]}}`)
	if status != http.StatusCreated {
		t.Fatalf("create with store down: %d %s", status, raw)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(raw), &info); err != nil || info.ID == "" {
		t.Fatalf("create body: %s (%v)", raw, err)
	}
	if status, raw := postJSON(t, base+"/v1/sessions/"+info.ID+"/changes",
		`{"changes": [{"kind": "add-clause", "lits": [2, 3]}]}`); status != http.StatusAccepted {
		t.Fatalf("queue with store down: %d %s", status, raw)
	}
	if status, raw := postJSON(t, base+"/v1/sessions/"+info.ID+"/solve", ""); status != http.StatusOK {
		t.Fatalf("solve with store down: %d %s", status, raw)
	}

	resp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	rawList, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Degraded []string `json:"degraded"`
	}
	if err := json.Unmarshal(rawList, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Degraded) != 1 || list.Degraded[0] != info.ID {
		t.Fatalf("session not visibly quarantined: %s", rawList)
	}
	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawM, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m struct {
		Quarantines      int64 `json:"quarantines"`
		SnapshotFailures int64 `json:"snapshot_failures"`
		Solves           int64 `json:"solves"`
	}
	if err := json.Unmarshal(rawM, &m); err != nil {
		t.Fatal(err)
	}
	if m.Quarantines < 1 || m.SnapshotFailures < 1 || m.Solves < 1 {
		t.Fatalf("quarantine not visible in metrics: %s", rawM)
	}
}
