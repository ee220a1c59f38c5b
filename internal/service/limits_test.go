package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/gen"
	"ilpec/internal/ilp"
	"ilpec/internal/obs"
)

// hardFormula is an instance whose exact solve takes well over a single
// branch-and-bound node, so tiny MaxNodes budgets truncate it.
func hardFormula(t *testing.T) *cnf.Formula {
	t.Helper()
	spec, ok := gen.ByName("jnh1")
	if !ok {
		t.Fatal("jnh1 spec missing")
	}
	f, _ := gen.Scaled(spec, 0.30).Generate()
	return f
}

// TestTruncatedSolveNotCached is the regression test for the solve-cache
// bug: a MaxNodes-truncated (possibly suboptimal) result must NOT be
// stored, so the identical next request re-attempts the solve instead of
// replaying the truncated answer forever.
func TestTruncatedSolveNotCached(t *testing.T) {
	svc := newTestService(t, Options{})
	f := hardFormula(t)

	// A full solve first: it seeds the shared incumbent store so the
	// truncated sessions below find a warm start, reach Feasible (rather
	// than Unknown), and exercise exactly the buggy replay path.
	full, err := svc.CreateSession(f, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Solve(); err != nil {
		t.Fatal(err)
	}
	base := svc.Metrics()

	limited := ilp.Options{MaxNodes: 1}
	s1, err := svc.CreateSession(f, SessionConfig{Solve: &limited})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Solve(); err != nil {
		t.Fatalf("truncated solve should still serve its incumbent: %v", err)
	}
	m1 := svc.Metrics()
	if m1.TruncatedSolves == base.TruncatedSolves {
		t.Fatalf("solve was not truncated (truncated=%d); the fixture is too easy for MaxNodes=1", m1.TruncatedSolves)
	}
	if m1.SolverRuns != base.SolverRuns+1 {
		t.Fatalf("solver runs %d, want %d", m1.SolverRuns, base.SolverRuns+1)
	}

	// The identical request must MISS the cache and re-run the solver.
	s2, err := svc.CreateSession(f, SessionConfig{Solve: &limited})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	m2 := svc.Metrics()
	if res2.Cached {
		t.Fatal("limit-truncated result was replayed from the cache")
	}
	if m2.SolverRuns != m1.SolverRuns+1 {
		t.Fatalf("truncated solve was not re-attempted: runs %d, want %d", m2.SolverRuns, m1.SolverRuns+1)
	}

	// Control: proven-optimal results ARE cached (the full session's key).
	ctrl, err := svc.CreateSession(f, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resCtrl, err := ctrl.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !resCtrl.Cached {
		t.Fatal("proven-optimal solve was not served from the cache")
	}
}

// TestSolveContextCancelled: a cancelled request context aborts the solve
// inside the kernel and leaves the session reusable.
func TestSolveContextCancelled(t *testing.T) {
	svc := newTestService(t, Options{})
	sess, err := svc.CreateSession(hardFormula(t), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := sess.SolveContext(ctx); err == nil {
		t.Fatal("cancelled solve reported success")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("cancelled solve ran %v", el)
	}
	// The session survives: a later, uncancelled solve succeeds.
	if _, err := sess.Solve(); err != nil {
		t.Fatalf("session poisoned by cancelled solve: %v", err)
	}
}

// TestHTTPSolveCancelled: the handler threads r.Context() into the solve
// and reports the cancellation.
func TestHTTPSolveCancelled(t *testing.T) {
	svc := newTestService(t, Options{})
	sess, err := svc.CreateSession(hardFormula(t), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(svc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/sessions/"+sess.ID()+"/solve", strings.NewReader("")).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want %d (body %s)", rec.Code, http.StatusRequestTimeout, rec.Body)
	}
	var body struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != "cancelled" {
		t.Fatalf("body %s, want error code cancelled", rec.Body)
	}
}

// TestPoolRunCancelledWhileQueued: a caller whose context dies while
// waiting for a worker slot leaves the queue instead of holding it.
func TestPoolRunCancelledWhileQueued(t *testing.T) {
	p := newPool(1, -1)
	defer p.close()
	block := make(chan struct{})
	started := make(chan struct{})
	go p.run(context.Background(), func() { close(started); <-block }) //nolint:errcheck
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.run(ctx, func() { t.Error("cancelled job ran") }); err == nil {
		t.Fatal("queued run with cancelled context returned nil")
	}
	close(block)
}

// TestServiceGlobalNodeBudget: raising Workers must not multiply the
// MaxNodes budget a session is given.
func TestServiceGlobalNodeBudget(t *testing.T) {
	f := hardFormula(t)
	nodesWith := func(workers int) int64 {
		m := ilpModelFor(t, f)
		res := ilp.Solve(m, ilp.Options{MaxNodes: 200, Workers: workers})
		return res.Nodes
	}
	n1, n4 := nodesWith(1), nodesWith(4)
	if n4 > 4*n1 && n4 > 300 {
		t.Fatalf("workers multiplied the node budget: serial %d nodes, parallel %d", n1, n4)
	}
}

// ilpModelFor builds the session's base encoding directly (what the
// service's replan path would solve).
func ilpModelFor(t *testing.T, f *cnf.Formula) *ilp.Model {
	t.Helper()
	d, ok := domain.Get("cnf")
	if !ok {
		t.Fatal("cnf domain missing")
	}
	enc, err := d.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return enc.ILP()
}

// TestCacheJoinerRetriesOwnerCancelled: when the request that owns an
// in-flight solve is cancelled, a joiner with a live context retries the
// solve itself instead of inheriting the owner's context error.
func TestCacheJoinerRetriesOwnerCancelled(t *testing.T) {
	c := newSolveCache(8)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.do(context.Background(), "k", cloneAssignment, func() (any, bool, error) { //nolint:errcheck
			close(started)
			<-release
			return nil, false, context.Canceled // the owner's client went away
		})
	}()
	<-started
	type out struct {
		val any
		err error
	}
	res := make(chan out, 1)
	go func() {
		val, _, err := c.do(context.Background(), "k", cloneAssignment, func() (any, bool, error) {
			return cnf.NewAssignment(1), true, nil
		})
		res <- out{val, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the joiner block on the in-flight entry
	close(release)
	got := <-res
	if got.err != nil {
		t.Fatalf("joiner inherited the owner's cancellation: %v", got.err)
	}
	if got.val == nil {
		t.Fatal("joiner retry returned no value")
	}
}

// kernelCancelled reports cancellation through Err only. Its Done channel
// never closes, so the executor always admits the job and the solver
// kernel is the first to see the abort.
type kernelCancelled struct{ context.Context }

func (kernelCancelled) Err() error { return context.Canceled }

// TestFastECFailedSubSolveCounted: a fast-EC pass whose sub-solve ran but
// failed (cancelled in the kernel, so the rung reports limits) still
// counts as a kernel run — truncated_solves, and with it the presolve
// counters and solve-phase histograms, see every rung that ran. A pass
// that fails before any rung ran counts nothing.
func TestFastECFailedSubSolveCounted(t *testing.T) {
	cnfDom, ok := domain.Get("cnf")
	if !ok {
		t.Fatal("cnf domain not registered")
	}
	doms := domain.NewRegistry()
	doms.Register(regionFails{cnfDom})
	for _, tc := range []struct {
		name   string
		domain string
		ctx    context.Context
		runs   int64 // kernel runs the failed pass makes
	}{
		{"cancelled in the kernel", "cnf", kernelCancelled{context.Background()}, 1},
		{"failed before any rung", regionFails{}.Name(), context.Background(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			svc := newTestService(t, Options{Domains: doms, Obs: reg})
			s, err := svc.CreateDomainSession(tc.domain, hardFormula(t), SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(); err != nil {
				t.Fatal(err)
			}
			// A clause false under the current solution forces a re-solve.
			a := s.Solution()
			var lits []int
			for v := 1; v <= a.NumVars() && len(lits) < 3; v++ {
				switch a.Get(v) {
				case cnf.True:
					lits = append(lits, -v)
				case cnf.False:
					lits = append(lits, v)
				}
			}
			if _, err := s.Queue(core.NewClause(lits...)); err != nil {
				t.Fatal(err)
			}
			search := reg.Histogram("ec_solve_phase_seconds", "", obs.Label{Key: "phase", Value: "search"})
			base, baseSearch := svc.Metrics(), search.Snapshot().Count
			if _, err := s.SolveContext(tc.ctx); err == nil {
				t.Fatal("the failing fast-EC solve succeeded")
			}
			if m := svc.Metrics(); m.TruncatedSolves != base.TruncatedSolves+tc.runs {
				t.Errorf("truncated_solves %d, want %d", m.TruncatedSolves, base.TruncatedSolves+tc.runs)
			}
			if got := search.Snapshot().Count; got != baseSearch+tc.runs {
				t.Errorf("search phase samples %d, want %d", got, baseSearch+tc.runs)
			}
		})
	}
}

// regionFails is the CNF domain with an AffectedRegion that always
// errors, so its fast-EC passes fail before any rung runs.
type regionFails struct{ domain.Domain }

func (regionFails) Name() string { return "cnf-no-region" }

func (regionFails) AffectedRegion(p, prev any) (domain.Region, error) {
	return nil, errors.New("no region")
}
