package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ilpec/internal/fault"
	"ilpec/internal/store"
)

// This file is the chaos suite: deterministic seed-driven fault plans
// (internal/fault) are wired into the store under a live service, the
// service is driven through the standard session script by a retrying
// client, and the outcome is differential-checked against an
// uninterrupted control run. The contract under test (the issue's
// acceptance bar): a faulted run either converges to the control's exact
// state after recovery, or is VISIBLY quarantined — it never silently
// diverges.

// chaosRetry is the retry policy the chaos services run under: tight so a
// full client-visible failure needs only two injected faults in a row.
func chaosRetry() RetryPolicy {
	return RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}
}

// chaosClientRetries bounds the test client's own retry loop. Transient
// 503-class failures surface after QuarantineAfter at most twice per op
// (then the quarantine absorbs everything), so this never exhausts.
const chaosClientRetries = 10

// retryQueue queues changes like a well-behaved client: retry while the
// failure is transient (the HTTP layer would have said 503 + Retry-After).
func retryQueue(t *testing.T, sess *Session, changes []any) {
	t.Helper()
	var err error
	for i := 0; i < chaosClientRetries; i++ {
		if _, err = sess.QueueChanges(changes...); err == nil {
			return
		}
		if !store.IsTransient(err) {
			t.Fatalf("queue failed non-transiently: %v", err)
		}
	}
	t.Fatalf("queue never succeeded after %d retries: %v", chaosClientRetries, err)
}

// retrySolve solves with client retries. A solve that fails on a store
// fault discards the drained batch (documented session semantics), so the
// client restores it before retrying.
func retrySolve(t *testing.T, sess *Session, requeue []any) *SolveResult {
	t.Helper()
	var err error
	for i := 0; i < chaosClientRetries; i++ {
		var res *SolveResult
		if res, err = sess.Solve(); err == nil {
			return res
		}
		if !store.IsTransient(err) {
			t.Fatalf("solve failed non-transiently: %v", err)
		}
		if len(requeue) > 0 {
			retryQueue(t, sess, requeue)
		}
	}
	t.Fatalf("solve never succeeded after %d retries: %v", chaosClientRetries, err)
	return nil
}

// chaosPlan builds the per-seed fault schedule. Probabilities vary with
// the seed so the 8 seeds explore different fault densities; every rule
// is probabilistic, so the nth-operation trigger stream is fully
// determined by the seed. Torn-write faults are exercised by the
// crash-style tests (TestCrashRecoveryDifferential, the store suite) —
// a live server that keeps appending after a torn write is not a
// scenario the journal's torn-TAIL repair claims to cover.
func chaosPlan(seed int64) *fault.Plan {
	p := 0.15 + 0.05*float64(seed%4)
	return fault.NewPlan(seed,
		fault.Rule{Op: "append", Kind: fault.KindFsync, P: 0.10},
		fault.Rule{Op: "append", Kind: fault.KindENOSPC, P: 0.10},
		fault.Rule{Op: "append", Kind: fault.KindError, P: p},
		fault.Rule{Op: "snapshot", Kind: fault.KindENOSPC, P: 0.25},
		fault.Rule{Op: "snapshot", Kind: fault.KindError, P: p},
	)
}

// TestChaosDifferential is the tentpole acceptance drill: 8 fault-plan
// seeds × all 4 domains. Each faulted, file-backed run is compared live
// against an uninterrupted in-memory control, then crash-recovered from
// the (repaired, fault-free) store and compared again.
func TestChaosDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		for _, name := range allDomains {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				file, err := store.NewFile(dir)
				if err != nil {
					t.Fatal(err)
				}
				plan := chaosPlan(seed)
				fs := store.NewFaulty(file, plan)
				// No Close on svc: the recovery phase below models a crash.
				svc := New(Options{
					Store:           fs,
					StoreRetry:      chaosRetry(),
					QuarantineAfter: 2,
					ReprobeInterval: -1, // heal explicitly, keeping the run deterministic
					SnapshotEvery:   3,
				})
				_, c := fixtureFor(t, svc, name)
				sess, err := svc.CreateDomainSession(name, c.Problem, SessionConfig{})
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				id := sess.ID()
				retrySolve(t, sess, nil)
				retryQueue(t, sess, c.Tightening)
				retrySolve(t, sess, c.Tightening)
				retryQueue(t, sess, c.Relaxing) // left pending across the crash

				// The uninterrupted control: identical script, no store.
				control := New(Options{})
				defer control.Close()
				ctrl := runScript(t, control, name)
				if _, err := ctrl.QueueChanges(c.Relaxing...); err != nil {
					t.Fatal(err)
				}

				// Live differential: whatever the store did, the in-memory
				// session must match the control exactly.
				d := sess.dom
				if probFP(d, sess.Problem()) != probFP(d, ctrl.Problem()) {
					t.Fatalf("live problem diverged from control (%d faults injected)", plan.Injected())
				}
				if solFP(d, sess.SolutionValue()) != solFP(d, ctrl.SolutionValue()) {
					t.Fatalf("live solution diverged from control (%d faults injected)", plan.Injected())
				}
				if sess.Pending() != ctrl.Pending() {
					t.Fatalf("live pending %d, control %d", sess.Pending(), ctrl.Pending())
				}

				// Degradation must be visible, and must heal once the store
				// recovers.
				if sess.Degraded() {
					if got := svc.DegradedSessions(); len(got) != 1 || got[0] != id {
						t.Fatalf("degraded sessions %v, want [%s]", got, id)
					}
					if !sess.Info().Degraded {
						t.Fatal("session info does not show degraded")
					}
					if m := svc.Metrics(); m.Quarantines == 0 || m.SessionsDegraded != 1 {
						t.Fatalf("quarantine not in metrics: %+v", m)
					}
					plan.Disarm()
					svc.probeQuarantined()
					if sess.Degraded() {
						t.Fatal("session did not heal after the store recovered")
					}
					if m := svc.Metrics(); m.QuarantineHeals == 0 {
						t.Fatalf("heal not in metrics: %+v", m)
					}
				}

				// Crash (svc abandoned, no flush) + recovery over a fresh,
				// fault-free store: the recovered session must match the
				// control, converging regardless of the faults injected.
				st2, err := store.NewFile(dir)
				if err != nil {
					t.Fatal(err)
				}
				svc2 := New(Options{Store: st2})
				defer svc2.Close()
				recovered, ok := svc2.Session(id)
				if !ok {
					t.Fatalf("session lost across crash (%d faults injected, degraded=%v)",
						plan.Injected(), sess.Degraded())
				}
				if probFP(d, recovered.Problem()) != probFP(d, ctrl.Problem()) {
					t.Fatal("recovered problem diverged from control")
				}
				if solFP(d, recovered.SolutionValue()) != solFP(d, ctrl.SolutionValue()) {
					t.Fatal("recovered solution diverged from control")
				}
				if recovered.Pending() != ctrl.Pending() {
					t.Fatalf("recovered pending %d, control %d", recovered.Pending(), ctrl.Pending())
				}
				res, err := recovered.Solve()
				if err != nil {
					t.Fatalf("post-recovery solve: %v", err)
				}
				ctrlRes, err := ctrl.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != ctrlRes.Status || res.Batched != ctrlRes.Batched ||
					solFP(d, res.Solution) != solFP(d, ctrlRes.Solution) {
					t.Fatalf("post-recovery pass %q/%d diverged from control %q/%d",
						res.Status, res.Batched, ctrlRes.Status, ctrlRes.Batched)
				}
			})
		}
	}
}

// TestChaosTotalOutageServesDegraded: a store failing 100% of operations
// must not take the service down — the session is born quarantined,
// keeps serving memory-only with metrics advancing, and heals through
// the probe loop once the store recovers.
func TestChaosTotalOutageServesDegraded(t *testing.T) {
	plan := fault.NewPlan(7, fault.Rule{Op: "*", Kind: fault.KindError, Every: 1})
	fs := store.NewFaulty(store.NewMemory(), plan)
	svc := New(Options{
		Store:           fs,
		StoreRetry:      chaosRetry(),
		QuarantineAfter: 1,
		ReprobeInterval: 2 * time.Millisecond,
	})
	defer svc.Close()
	_, c := fixtureFor(t, svc, "cnf")
	sess, err := svc.CreateDomainSession("cnf", c.Problem, SessionConfig{})
	if err != nil {
		t.Fatalf("create against a dead store must quarantine, not fail: %v", err)
	}
	if !sess.Degraded() {
		t.Fatal("session not born quarantined")
	}
	// The whole script serves memory-only without a single client-visible
	// error or retry.
	if _, err := sess.Solve(); err != nil {
		t.Fatalf("degraded solve: %v", err)
	}
	if _, err := sess.QueueChanges(c.Tightening...); err != nil {
		t.Fatalf("degraded queue: %v", err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatalf("degraded batch solve: %v", err)
	}
	m := svc.Metrics()
	if m.Quarantines == 0 || m.SessionsDegraded != 1 {
		t.Fatalf("quarantine invisible: %+v", m)
	}
	if m.SnapshotFailures == 0 || m.JournalRetries == 0 {
		t.Fatalf("failure metrics not advancing: %+v", m)
	}
	if m.Solves < 2 {
		t.Fatalf("service stopped serving: %d solves", m.Solves)
	}
	// A degraded session is immune from LRU eviction and TTL expiry — its
	// memory is the only copy.
	svc.mu.Lock()
	victim := svc.lruLocked()
	svc.mu.Unlock()
	if victim != nil {
		t.Fatal("degraded session offered as LRU victim")
	}
	svc.sweepExpired(time.Now().Add(24 * time.Hour))
	if _, ok := svc.Session(sess.ID()); !ok {
		t.Fatal("TTL sweep detached a degraded session")
	}

	// Store recovery: the probe loop notices and heals without any client
	// traffic.
	fp := solFP(sess.dom, sess.SolutionValue())
	plan.Disarm()
	deadline := time.Now().Add(5 * time.Second)
	for sess.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never healed the session")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m = svc.Metrics()
	if m.QuarantineProbes == 0 || m.QuarantineHeals == 0 {
		t.Fatalf("heal invisible: %+v", m)
	}
	// The heal snapshot is the full state: a restart over the recovered
	// store finds the session intact.
	id := sess.ID()
	svc.Close()
	svc2 := New(Options{Store: fs.Underlying()})
	defer svc2.Close()
	back, ok := svc2.Session(id)
	if !ok {
		t.Fatal("healed session not durable")
	}
	if solFP(back.dom, back.SolutionValue()) != fp {
		t.Fatal("healed session diverged")
	}
}

// TestAckLostAppendResolvedOnRetry (regression for the fsync-ack-loss
// hazard): an append whose write lands but whose acknowledgement is lost
// — and whose in-policy retry is also faulted — must be recognized as
// durable by the CLIENT's retry instead of surfacing a permanent
// ErrSeqConflict, and must not duplicate the batch on recovery.
func TestAckLostAppendResolvedOnRetry(t *testing.T) {
	dir := t.TempDir()
	file, err := store.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Append op 1: failed fsync (durable, ack lost). Append op 2 (the
	// in-policy retry): plain error. Everything after: clean.
	plan := fault.NewPlan(0,
		fault.Rule{Op: "append", Kind: fault.KindFsync, Nth: 1},
		fault.Rule{Op: "append", Kind: fault.KindError, Nth: 2},
	)
	svc := New(Options{
		Store:           store.NewFaulty(file, plan),
		StoreRetry:      chaosRetry(), // Attempts: 2, so the op exhausts
		QuarantineAfter: 3,
		ReprobeInterval: -1,
	})
	_, c := fixtureFor(t, svc, "cnf")
	sess, err := svc.CreateDomainSession("cnf", c.Problem, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.QueueChanges(c.Tightening...)
	if err == nil {
		t.Fatal("exhausted append reported success")
	}
	if !store.IsTransient(err) {
		t.Fatalf("exhausted append error not transient: %v", err)
	}
	if sess.Pending() != 0 {
		t.Fatal("failed queue left changes pending")
	}
	// The client retry: the store-side seq conflict is resolved as
	// "already durable" and the batch queues.
	if _, err := sess.QueueChanges(c.Tightening...); err != nil {
		t.Fatalf("client retry after ack loss: %v", err)
	}
	if got := sess.Pending(); got != len(c.Tightening) {
		t.Fatalf("pending %d, want %d", got, len(c.Tightening))
	}
	// Crash + recovery: exactly one copy of the batch survives.
	st2, err := store.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Options{Store: st2})
	defer svc2.Close()
	back, ok := svc2.Session(sess.ID())
	if !ok {
		t.Fatal("session lost")
	}
	if got := back.Pending(); got != len(c.Tightening) {
		t.Fatalf("recovered pending %d, want %d (batch duplicated or lost)", got, len(c.Tightening))
	}
	if _, err := back.Solve(); err != nil {
		t.Fatalf("post-recovery solve: %v", err)
	}
}

// ---- admission control -----------------------------------------------------

// TestAdmissionQueueBound: MaxPending rejects further changes with
// ErrQueueFull (HTTP 429 + Retry-After) and counts the rejection.
func TestAdmissionQueueBound(t *testing.T) {
	svc := newTestService(t, Options{})
	_, c := fixtureFor(t, svc, "cnf")
	svc.opts.MaxPending = len(c.Tightening)
	sess, err := svc.CreateDomainSession("cnf", c.Problem, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.QueueChanges(c.Tightening...); err != nil {
		t.Fatalf("first batch within the bound: %v", err)
	}
	_, err = sess.QueueChanges(c.Tightening...)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound queue error %v, want ErrQueueFull", err)
	}
	if got := sess.Pending(); got != len(c.Tightening) {
		t.Fatalf("rejected batch mutated the queue: pending %d", got)
	}
	if m := svc.Metrics(); m.QueueRejections != 1 {
		t.Fatalf("queue_rejections %d, want 1", m.QueueRejections)
	}
}

// TestHTTPAdmission: the HTTP layer maps the admission errors to
// retryable statuses with Retry-After, not blanket 500s.
func TestHTTPAdmission(t *testing.T) {
	svc, ts := newTestServer(t)
	svc.opts.MaxPending = 1

	var created SessionInfo
	if code, body := doJSON(t, "POST", ts.URL+"/v1/sessions", map[string]any{
		"domain":  "cnf",
		"problem": map[string]any{"dimacs": "p cnf 2 2\n1 2 0\n-1 2 0\n"},
	}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	queue := func() (*http.Response, error) {
		return http.Post(ts.URL+"/v1/sessions/"+created.ID+"/changes", "application/json",
			strings.NewReader(`{"changes": [{"kind": "add-clause", "lits": [1, 2]}]}`))
	}
	resp, err := queue()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first queue: %d", resp.StatusCode)
	}
	resp, err = queue()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound queue status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestAdmissionBacklogBound: with the executor saturated past
// workers+MaxBacklog, solves shed with ErrOverloaded (HTTP 503 +
// Retry-After) instead of queueing unboundedly.
func TestAdmissionBacklogBound(t *testing.T) {
	// A zero MaxBacklog means "default" (Go zero value), so the tightest
	// expressible bound is 1: one running solve + one queued = cap 2.
	svc := New(Options{Workers: 1, MaxBacklog: 1})
	ts := newServerFor(t, svc)
	sess, err := svc.CreateSession(hardFormula(t), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Saturate the admission cap: one job occupies the worker, a second
	// occupies the backlog slot.
	block := make(chan struct{})
	started := make(chan struct{})
	go svc.exec.run(context.Background(), func() { close(started); <-block }) //nolint:errcheck
	<-started
	go svc.exec.run(context.Background(), func() {}) //nolint:errcheck // parks in the backlog
	for deadline := time.Now().Add(5 * time.Second); svc.exec.inflight.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("backlog occupant never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	defer close(block)

	// Direct executor admission.
	if err := svc.exec.run(context.Background(), func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated run error %v, want ErrOverloaded", err)
	}

	// HTTP: 503 + Retry-After + the stable "overloaded" code.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/solve", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded solve status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if m := svc.Metrics(); m.BacklogRejections == 0 {
		t.Fatalf("backlog rejection not counted: %+v", m)
	}
}

// TestRequestTimeoutShedsSolve: Options.RequestTimeout bounds how long a
// request may hold a worker; the deadline propagates into the kernel
// abort check and surfaces as a retryable 503, not a client-cancel 408.
func TestRequestTimeoutShedsSolve(t *testing.T) {
	// A nanosecond deadline is expired before the solve starts, so the
	// outcome does not depend on how fast this machine solves the fixture.
	svc := New(Options{RequestTimeout: time.Nanosecond})
	ts := newServerFor(t, svc)
	sess, err := svc.CreateSession(hardFormula(t), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID()+"/solve", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-shed solve status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline 503 without Retry-After")
	}
}

// newServerFor wraps an existing service in a test HTTP server.
func newServerFor(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}
