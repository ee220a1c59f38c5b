// Service walkthrough: the EC session service end to end, in process.
//
// It starts the same HTTP/JSON server cmd/ecserve runs, then plays the
// role of several clients: three sessions over the same design absorb a
// stream of engineering changes. The run shows the three amortization
// mechanisms at work:
//
//   - batching: each session posts 3 changes but pays for ONE re-solve;
//   - the solve cache: sessions 2 and 3 repeat session 1's subproblems
//     and are answered without touching the solver;
//   - the relax fast-path: a relaxing-only batch costs no solver call.
//
// Each session also serves its solves through a persistent kernel
// instance (see README "Instance lifecycle"); the closing metrics dump
// shows the instance_* counters alongside the cache counters.
//
// It closes with the durability demo: a session created against a
// file-backed store (what `ecserve -data-dir` uses) survives a full
// service restart — the fresh server lists it and answers with the
// identical solution.
//
// Every request is printed as the equivalent curl command, so this doubles
// as the HTTP API tour for the README.
//
// Run with: go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"

	"ilpec"
)

func main() {
	svc := ilpec.NewService(ilpec.ServiceOptions{})
	defer svc.Close()
	ts := httptest.NewServer(ilpec.NewServiceHandler(svc))
	defer ts.Close()
	fmt.Println("ecserve-equivalent listening at", ts.URL)

	// The change stream every session will absorb: two tightening clauses
	// plus a new variable (batch 1), then a relaxing-only batch.
	tightening := `{"changes": [
	  {"kind": "add-clause", "lits": [-2, 3]},
	  {"kind": "add-variable"},
	  {"kind": "add-clause", "lits": [1, 7]}
	]}`
	relaxing := `{"changes": [
	  {"kind": "add-variable"},
	  {"kind": "remove-clause", "index": 0}
	]}`

	for i := 0; i < 3; i++ {
		// 1. Create a session over the design (a 6-variable CNF).
		id := fmt.Sprint(post(ts.URL+"/v1/sessions", `{
		  "domain": "cnf",
		  "problem": {"clauses": [[1,2],[-1,3],[2,4],[-3,-4,5],[5,6]]},
		  "strategy": "fast"
		}`, "id"))
		fmt.Printf("\n== session %s ==\n", id)
		base := ts.URL + "/v1/sessions/" + id

		// 2. Initial solve (cached for sessions 2 and 3).
		solve := postRaw(base+"/solve", "")
		fmt.Printf("initial: status=%v cached=%v dont_cares=%v\n",
			solve["status"], solve["cached"], solve["dont_cares"])

		// 3. Queue three changes, then resolve them in ONE fast-EC pass.
		post(base+"/changes", tightening, "pending")
		solve = postRaw(base+"/solve", "")
		fmt.Printf("batch:   status=%v batched=%v cached=%v preserved=%.2f\n",
			solve["status"], solve["batched"], solve["cached"], solve["preserved"])

		// 4. A relaxing-only batch never runs the solver.
		post(base+"/changes", relaxing, "pending")
		solve = postRaw(base+"/solve", "")
		fmt.Printf("relax:   status=%v batched=%v\n", solve["status"], solve["batched"])

		// 5. Audit the flexibility of what survived.
		flex := get(base + "/flex?k=2")
		fmt.Printf("flex:    %v/%v clauses flexible\n", flex["flexible"], flex["total"])
	}

	// The service-wide counters tell the amortization story.
	m := svc.Metrics()
	fmt.Printf("\n== metrics (GET /v1/metrics) ==\n")
	fmt.Printf("sessions=%d solves=%d solver_runs=%d cache_hits=%d relax_fast_paths=%d\n",
		m.SessionsCreated, m.Solves, m.SolverRuns, m.CacheHits, m.RelaxFastPaths)
	fmt.Printf("changes_queued=%d batches=%d (each batch = one EC pass)\n",
		m.ChangesQueued, m.Batches)
	fmt.Printf("instance_reuses=%d instance_rebuilds=%d instance_rows_delta=%d reseparated_rows=%d\n",
		m.InstanceReuses, m.InstanceRebuilds, m.InstanceRowsDelta, m.ReseparatedRows)
	if m.CacheHits == 0 || m.Batches >= m.ChangesQueued {
		log.Fatal("amortization failed: expected cache hits and coalesced batches")
	}
	if m.InstanceRebuilds == 0 {
		log.Fatal("instance lifecycle failed: no session ever built a persistent instance")
	}

	// ---- persistence: the session survives a process restart ----------
	//
	// The same server, now with a durable store (what `ecserve -data-dir`
	// wires up): every queued change is journaled before it is
	// acknowledged and snapshots are cut periodically, so killing the
	// process loses nothing. Here we "restart" by closing the whole
	// service and building a fresh one over the surviving directory.
	fmt.Printf("\n== restart-survives-session demo (ecserve -data-dir) ==\n")
	dataDir, err := os.MkdirTemp("", "ecserve-demo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	st, err := ilpec.NewFileSessionStore(dataDir)
	if err != nil {
		log.Fatal(err)
	}
	dsvc := ilpec.NewService(ilpec.ServiceOptions{Store: st})
	ts2 := httptest.NewServer(ilpec.NewServiceHandler(dsvc))
	id := fmt.Sprint(post(ts2.URL+"/v1/sessions", `{
	  "domain": "cnf",
	  "problem": {"clauses": [[1,2],[-1,3],[2,4],[-3,-4,5],[5,6]]}
	}`, "id"))
	base := ts2.URL + "/v1/sessions/" + id
	postRaw(base+"/solve", "")
	post(base+"/changes", tightening, "pending")
	solved := postRaw(base+"/solve", "")
	fmt.Printf("pre-restart:  solution=%v\n", solved["solution"])

	// Kill the process (graceful here; a crash only costs the torn tail
	// of one unacknowledged append — see README "Persistence").
	ts2.Close()
	dsvc.Close()

	st2, err := ilpec.NewFileSessionStore(dataDir)
	if err != nil {
		log.Fatal(err)
	}
	dsvc2 := ilpec.NewService(ilpec.ServiceOptions{Store: st2})
	defer dsvc2.Close()
	ts3 := httptest.NewServer(ilpec.NewServiceHandler(dsvc2))
	defer ts3.Close()
	listing := get(ts3.URL + "/v1/sessions")
	fmt.Printf("post-restart: sessions=%v (recovered from %s)\n", listing["sessions"], dataDir)
	recovered := postRaw(ts3.URL+"/v1/sessions/"+id+"/solve", "")
	fmt.Printf("post-restart: status=%v solution=%v\n", recovered["status"], recovered["solution"])
	if fmt.Sprint(recovered["solution"]) != fmt.Sprint(solved["solution"]) {
		log.Fatal("persistence failed: solution diverged across the restart")
	}
	fmt.Println("the session survived the restart with an identical solution")
}

// post sends a JSON body, echoes the curl equivalent, and returns field.
func post(url, body, field string) any {
	return request("POST", url, body)[field]
}

func postRaw(url, body string) map[string]any { return request("POST", url, body) }

func get(url string) map[string]any { return request("GET", url, "") }

func request(method, url, body string) map[string]any {
	if body != "" {
		fmt.Printf("$ curl -X %s %s -d '%s'\n", method, url, compact(body))
	} else if method != "GET" {
		fmt.Printf("$ curl -X %s %s\n", method, url)
	} else {
		fmt.Printf("$ curl %s\n", url)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		log.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		log.Fatalf("bad response %q: %v", raw, err)
	}
	return out
}

func compact(s string) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(s)); err != nil {
		return s
	}
	return buf.String()
}
