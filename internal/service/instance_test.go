package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
	"ilpec/internal/obs"
	"ilpec/internal/sched"
	"ilpec/internal/store"
)

// This file is the instance-path differential suite: every solve a
// session serves through its persistent domain.Instance must agree with
// the same script served by a scratch (DisableInstance) service — same
// pass statuses, same batch sizes, same committed problems, and valid
// solutions on both arms. Solutions themselves may be distinct optima,
// so the arms are compared on problem fingerprints and verification
// rather than solution fingerprints.

// driveStep queues a batch (if any) and solves on both arms, asserting
// the passes agree.
func driveStep(t *testing.T, label string, d domain.Domain, inst, scratch *Session, batch []any) {
	t.Helper()
	if len(batch) > 0 {
		if _, err := inst.QueueChanges(batch...); err != nil {
			t.Fatalf("%s: instance queue: %v", label, err)
		}
		if _, err := scratch.QueueChanges(batch...); err != nil {
			t.Fatalf("%s: scratch queue: %v", label, err)
		}
	}
	ri, erri := inst.Solve()
	rs, errs := scratch.Solve()
	if (erri == nil) != (errs == nil) {
		t.Fatalf("%s: arms disagree on error: instance=%v scratch=%v", label, erri, errs)
	}
	if erri != nil {
		return
	}
	if ri.Status != rs.Status || ri.Batched != rs.Batched {
		t.Fatalf("%s: pass diverged: instance %q/%d, scratch %q/%d",
			label, ri.Status, ri.Batched, rs.Status, rs.Batched)
	}
	if probFP(d, inst.Problem()) != probFP(d, scratch.Problem()) {
		t.Fatalf("%s: committed problems diverged", label)
	}
	if err := d.Verify(inst.Problem(), ri.Solution); err != nil {
		t.Fatalf("%s: instance solution invalid: %v", label, err)
	}
	if err := d.Verify(scratch.Problem(), rs.Solution); err != nil {
		t.Fatalf("%s: scratch solution invalid: %v", label, err)
	}
}

// TestInstanceScratchDifferential drives the standard script — initial
// solve, tightening batch, relaxing batch — through an instance-enabled
// service and a DisableInstance control for every domain × strategy, and
// pins that the scratch arm never touches the instance counters while
// the instance arm builds at least one.
func TestInstanceScratchDifferential(t *testing.T) {
	runInstanceScratchDifferential(t, ilp.Options{})
}

// TestInstanceScratchDifferentialServing is the differential suite under
// the options ecserve serves with: presolve and cuts on for initial,
// fast-EC and preserving solves, and cleared on Replan batch re-solves,
// which then run on the instance's retained kernel.
func TestInstanceScratchDifferentialServing(t *testing.T) {
	runInstanceScratchDifferential(t, servingSolve)
}

// servingSolve is ecserve's default solver configuration.
var servingSolve = ilp.Options{Workers: 1, Presolve: true, Cuts: true}

func runInstanceScratchDifferential(t *testing.T, solve ilp.Options) {
	for _, name := range allDomains {
		for _, strat := range []domain.Strategy{domain.FastEC, domain.PreservingEC, domain.Replan} {
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				instSvc := newTestService(t, Options{Solve: solve})
				scrSvc := newTestService(t, Options{Solve: solve, DisableInstance: true})
				d, c := fixtureFor(t, instSvc, name)
				si, err := instSvc.CreateDomainSession(name, c.Problem, SessionConfig{Strategy: &strat})
				if err != nil {
					t.Fatal(err)
				}
				ss, err := scrSvc.CreateDomainSession(name, c.Problem, SessionConfig{Strategy: &strat})
				if err != nil {
					t.Fatal(err)
				}
				driveStep(t, "initial", d, si, ss, nil)
				driveStep(t, "tighten", d, si, ss, c.Tightening)
				driveStep(t, "relax", d, si, ss, c.Relaxing)

				im, sm := instSvc.Metrics(), scrSvc.Metrics()
				if im.InstanceRebuilds == 0 {
					t.Fatalf("instance arm never built an instance: %+v", im)
				}
				if sm.InstanceRebuilds != 0 || sm.InstanceReuses != 0 {
					t.Fatalf("scratch arm touched instance counters: %+v", sm)
				}
			})
		}
	}
}

// TestInstanceReuseAccounting pins the reuse/rebuild split on a replan
// coloring session: the initial solve builds the instance, and a
// delta-expressible tightening batch (add-edge) reuses it instead of
// re-encoding.
func TestInstanceReuseAccounting(t *testing.T) {
	svc := newTestService(t, Options{})
	replan := domain.Replan
	d, c := fixtureFor(t, svc, "coloring")
	sess, err := svc.CreateDomainSession("coloring", c.Problem, SessionConfig{Strategy: &replan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.InstanceRebuilds != 1 || m.InstanceReuses != 0 {
		t.Fatalf("after initial solve: rebuilds=%d reuses=%d, want 1/0",
			m.InstanceRebuilds, m.InstanceReuses)
	}
	if _, err := sess.QueueChanges(c.Tightening...); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(sess.Problem(), res.Solution); err != nil {
		t.Fatalf("replan solution invalid: %v", err)
	}
	if m := svc.Metrics(); m.InstanceRebuilds != 1 || m.InstanceReuses != 1 {
		t.Fatalf("after delta replan: rebuilds=%d reuses=%d, want 1/1",
			m.InstanceRebuilds, m.InstanceReuses)
	}
}

// TestReplanBatchSkipsPresolveAndCuts: under serving options a Replan
// session's initial solve runs presolve, while its batch re-solves run
// neither presolve nor cut separation. A structural batch rebuilds the
// instance's kernel, and an RHS-only set-capacity batch then patches it.
// Each re-solve's answer verifies and is as good as a scratch solve of
// the changed problem.
func TestReplanBatchSkipsPresolveAndCuts(t *testing.T) {
	svc := newTestService(t, Options{Solve: servingSolve})
	replan := domain.Replan
	d, c := fixtureFor(t, svc, "sched")
	sess, err := svc.CreateDomainSession("sched", c.Problem, SessionConfig{Strategy: &replan})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(tag string, batch ...any) map[string]*obs.SpanOut {
		t.Helper()
		if len(batch) > 0 {
			if _, err := sess.QueueChanges(batch...); err != nil {
				t.Fatalf("%s: queue: %v", tag, err)
			}
		}
		ctx, root := obs.NewTrace(context.Background(), "test")
		res, err := sess.SolveContext(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if res.Cached {
			t.Fatalf("%s: served from the cache; the script must reach the solver", tag)
		}
		if err := d.Verify(sess.Problem(), res.Solution); err != nil {
			t.Fatalf("%s: solution invalid: %v", tag, err)
		}
		_, want, err := domain.Solve(d, sess.Problem(), ilp.Options{}, nil)
		if err != nil {
			t.Fatalf("%s: scratch solve: %v", tag, err)
		}
		if got := objectiveOf(t, d, sess.Problem(), res.Solution); math.Abs(got-want.Objective) > 1e-9 {
			t.Fatalf("%s: objective %v, scratch solve %v", tag, got, want.Objective)
		}
		phases := map[string]*obs.SpanOut{}
		var walk func(sp *obs.SpanOut)
		walk = func(sp *obs.SpanOut) {
			for _, ch := range sp.Children {
				phases[ch.Name] = ch
				walk(ch)
			}
		}
		walk(root.Render())
		if phases["search"] == nil {
			t.Fatalf("%s: no search span", tag)
		}
		return phases
	}
	// A batch re-solve reports neither phase and the given kernel path.
	resolve := func(tag, kernel string, batch ...any) {
		t.Helper()
		phases := solve(tag, batch...)
		for _, p := range []string{"presolve", "cut_separation"} {
			if phases[p] != nil {
				t.Errorf("%s: re-solve ran %s (%.4f ms)", tag, p, phases[p].DurationMS)
			}
		}
		if got := phases["search"].Attrs["kernel"]; got != kernel {
			t.Errorf("%s: kernel %q, want %q", tag, got, kernel)
		}
	}

	if phases := solve("initial"); phases["presolve"] == nil {
		t.Fatal("initial solve ran no presolve under serving options")
	} else if got := phases["search"].Attrs["kernel"]; got != "scratch" {
		t.Fatalf("initial: kernel %q, want scratch", got)
	}
	resolve("add-dep", "rebuilt", sched.Change{Kind: "add-dep", From: 2, To: 4})
	resolve("set-capacity", "patched", sched.Change{Kind: "set-capacity", Type: 0, Capacity: 1})
	if m := svc.Metrics(); m.InstanceRebuilds != 1 || m.InstanceReuses != 2 {
		t.Fatalf("rebuilds=%d reuses=%d, want 1/2", m.InstanceRebuilds, m.InstanceReuses)
	}
}

// objectiveOf evaluates a domain solution under the problem's own ILP
// encoding.
func objectiveOf(t *testing.T, d domain.Domain, problem, sol any) float64 {
	t.Helper()
	enc, err := d.Encode(problem)
	if err != nil {
		t.Fatal(err)
	}
	ws, ok := enc.WarmStart(sol)
	if !ok {
		t.Fatal("solution does not project onto its problem's encoding")
	}
	return enc.ILP().Objective(ws)
}

// TestInstanceCrashRecoveryDifferential: an instance-enabled file-backed
// session is crash-killed mid-append and recovered (the rehydrated
// session starts with no live instance and must rebuild transparently);
// its post-recovery solve is differential-checked against a scratch
// DisableInstance control running the identical script.
func TestInstanceCrashRecoveryDifferential(t *testing.T) {
	for _, name := range allDomains {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.NewFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			svc := New(Options{Store: st}) // no Close — a crash never flushes
			sess := runScript(t, svc, name)
			d, c := fixtureFor(t, svc, name)
			if _, err := sess.QueueChanges(c.Relaxing...); err != nil {
				t.Fatal(err)
			}
			id := sess.ID()

			journal := filepath.Join(dir, id, "journal.jsonl")
			f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(`0badc0de {"seq":999,"kind":"cha`); err != nil {
				t.Fatal(err)
			}
			f.Close()

			st2, err := store.NewFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			svc2 := New(Options{Store: st2})
			defer svc2.Close()
			recovered, ok := svc2.Session(id)
			if !ok {
				t.Fatal("crashed session did not recover")
			}
			res, err := recovered.Solve()
			if err != nil {
				t.Fatalf("post-recovery solve: %v", err)
			}

			// The scratch control: same script, instance path disabled.
			control := New(Options{DisableInstance: true})
			defer control.Close()
			ctrlSess := runScript(t, control, name)
			if _, err := ctrlSess.QueueChanges(c.Relaxing...); err != nil {
				t.Fatal(err)
			}
			ctrlRes, err := ctrlSess.Solve()
			if err != nil {
				t.Fatal(err)
			}

			if res.Status != ctrlRes.Status || res.Batched != ctrlRes.Batched {
				t.Fatalf("post-recovery pass %q/%d diverged from scratch control %q/%d",
					res.Status, res.Batched, ctrlRes.Status, ctrlRes.Batched)
			}
			if probFP(d, recovered.Problem()) != probFP(d, ctrlSess.Problem()) {
				t.Fatal("recovered problem diverged from scratch control")
			}
			if err := d.Verify(recovered.Problem(), res.Solution); err != nil {
				t.Fatalf("recovered solution invalid: %v", err)
			}
		})
	}
}

// TestInstanceRebuildAfterRecovery pins that a crash-recovered replan
// session rebuilds its instance from the rehydrated snapshot on the
// next solver-forcing batch: rehydration leaves no live instance, and
// the path must come back transparently rather than staying disabled.
func TestInstanceRebuildAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := store.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Store: st}) // no Close — crash below
	replan := domain.Replan
	d, c := fixtureFor(t, svc, "coloring")
	sess, err := svc.CreateDomainSession("coloring", c.Problem, SessionConfig{Strategy: &replan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	id := sess.ID()

	st2, err := store.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Options{Store: st2})
	defer svc2.Close()
	recovered, ok := svc2.Session(id)
	if !ok {
		t.Fatal("session did not recover")
	}
	if _, err := recovered.QueueChanges(c.Tightening...); err != nil {
		t.Fatal(err)
	}
	res, err := recovered.Solve()
	if err != nil {
		t.Fatalf("post-recovery replan: %v", err)
	}
	if err := d.Verify(recovered.Problem(), res.Solution); err != nil {
		t.Fatalf("post-recovery solution invalid: %v", err)
	}
	if m := svc2.Metrics(); m.InstanceRebuilds != 1 {
		t.Fatalf("recovered service rebuilds=%d, want 1 (rehydration must rebuild, not disable)",
			m.InstanceRebuilds)
	}
}

// TestInstanceChaosDifferential runs the chaos script — faulted
// file-backed store, retrying client — on an instance-enabled service
// and compares it against a scratch DisableInstance control. Store
// faults discard drained batches and invalidate the live instance; the
// served state must still match the scratch arm step for step.
func TestInstanceChaosDifferential(t *testing.T) {
	for _, seed := range []int64{3, 6} {
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
				svc := New(Options{
					Store:           fs,
					StoreRetry:      chaosRetry(),
					QuarantineAfter: 2,
					ReprobeInterval: -1,
					SnapshotEvery:   3,
				})
				defer svc.Close()
				d, c := fixtureFor(t, svc, name)
				sess, err := svc.CreateDomainSession(name, c.Problem, SessionConfig{})
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				retrySolve(t, sess, nil)
				retryQueue(t, sess, c.Tightening)
				retrySolve(t, sess, c.Tightening)
				retryQueue(t, sess, c.Relaxing)
				res := retrySolve(t, sess, c.Relaxing)

				control := New(Options{DisableInstance: true})
				defer control.Close()
				ctrl := runScript(t, control, name)
				if _, err := ctrl.QueueChanges(c.Relaxing...); err != nil {
					t.Fatal(err)
				}
				ctrlRes, err := ctrl.Solve()
				if err != nil {
					t.Fatal(err)
				}

				if res.Status != ctrlRes.Status || res.Batched != ctrlRes.Batched {
					t.Fatalf("final pass %q/%d diverged from scratch control %q/%d (%d faults)",
						res.Status, res.Batched, ctrlRes.Status, ctrlRes.Batched, plan.Injected())
				}
				if probFP(d, sess.Problem()) != probFP(d, ctrl.Problem()) {
					t.Fatalf("problem diverged from scratch control (%d faults injected)", plan.Injected())
				}
				if err := d.Verify(sess.Problem(), res.Solution); err != nil {
					t.Fatalf("instance-arm solution invalid: %v", err)
				}
				if err := d.Verify(ctrl.Problem(), ctrlRes.Solution); err != nil {
					t.Fatalf("scratch-arm solution invalid: %v", err)
				}
			})
		}
	}
}
