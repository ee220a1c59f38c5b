package sched

import (
	"math/rand"
	"testing"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// fastReschedule runs the §6 engine over the scheduling adapter.
func fastReschedule(p *Problem, prev Schedule) (Schedule, domain.FastStats, error) {
	sol, stats, err := domain.Fast(Domain(), p, prev, domain.FastOptions{})
	if err != nil {
		return nil, stats, err
	}
	return sol.(Schedule), stats, nil
}

// diamond builds the classic 4-op diamond DAG: 0 → {1,2} → 3, one adder
// (type 0, capacity 1) and one multiplier (type 1, capacity 1).
func diamond() *Problem {
	p := NewProblem([]int{1, 1}, 4)
	a := p.AddOp(0)
	b := p.AddOp(0)
	c := p.AddOp(1)
	d := p.AddOp(0)
	p.AddDep(a, b)
	p.AddDep(a, c)
	p.AddDep(b, d)
	p.AddDep(c, d)
	return p
}

func TestProblemBasics(t *testing.T) {
	p := diamond()
	if p.NumOps != 4 || len(p.Deps) != 4 {
		t.Fatalf("shape: %d ops %d deps", p.NumOps, len(p.Deps))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !p.RemoveDep(0, 1) || p.RemoveDep(0, 1) {
		t.Fatal("RemoveDep wrong")
	}
	c := p.Clone()
	c.AddDep(0, 3)
	if len(p.Deps) != 3 {
		t.Fatal("Clone shares deps")
	}
}

func TestProblemPanics(t *testing.T) {
	p := NewProblem([]int{1}, 3)
	p.AddOp(0)
	for _, fn := range []func(){
		func() { p.AddOp(5) },
		func() { p.AddDep(0, 0) },
		func() { p.AddDep(0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScheduleValid(t *testing.T) {
	p := diamond()
	good := Schedule{0, 1, 1, 2}
	if !good.Valid(p) {
		t.Fatal("valid schedule rejected")
	}
	// b and d both adders in step 1 and... craft capacity violation.
	bad := Schedule{0, 1, 1, 1} // d at step 1 violates deps b->d
	if bad.Valid(p) {
		t.Fatal("dependency violation accepted")
	}
	capBad := Schedule{0, 0, 1, 2} // a and b both adders at step 0
	if capBad.Valid(p) {
		t.Fatal("capacity violation accepted")
	}
	short := Schedule{0, 1, 1}
	if short.Valid(p) {
		t.Fatal("short schedule accepted")
	}
}

func TestListSchedule(t *testing.T) {
	p := diamond()
	s, err := ListSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatalf("greedy schedule invalid: %v", s)
	}
	// Horizon too short.
	tight := diamond()
	tight.Steps = 2
	if _, err := ListSchedule(tight); err == nil {
		t.Fatal("expected horizon error")
	}
	// Cyclic DAG.
	cyc := NewProblem([]int{1}, 3)
	a := cyc.AddOp(0)
	b := cyc.AddOp(0)
	cyc.AddDep(a, b)
	cyc.AddDep(b, a)
	if _, err := ListSchedule(cyc); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestSolveExact(t *testing.T) {
	p := diamond()
	s, res, err := Solve(p, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatalf("schedule invalid: %v", s)
	}
	if res.Status != ilp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	// The diamond's critical path is 3 steps: a at 0, d at 2.
	if s[0] != 0 || s[3] != 2 {
		t.Fatalf("not compacted: %v", s)
	}
	// Infeasible horizon.
	tight := diamond()
	tight.Steps = 2
	if _, _, err := Solve(tight, nil, ilp.Options{}); err == nil {
		t.Fatal("expected infeasibility")
	}
}

func TestSolveWarmStart(t *testing.T) {
	p := diamond()
	greedy, err := ListSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := Solve(p, greedy, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatal("warm-started schedule invalid")
	}
}

func TestFastRescheduleAbsorbsNewOp(t *testing.T) {
	p := diamond()
	prev, _, err := Solve(p, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// EC: a new multiplier depending on op 0.
	changed := p.Clone()
	n := changed.AddOp(1)
	changed.AddDep(0, n)
	s, stats, err := fastReschedule(changed, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(changed) {
		t.Fatalf("reschedule invalid: %v", s)
	}
	if stats.SubSize > 2 {
		t.Fatalf("region %d too large for a single added op", stats.SubSize)
	}
	// Frozen operations keep their steps.
	for o := 0; o < p.NumOps; o++ {
		if s[o] != prev[o] {
			t.Fatalf("op %d moved from %d to %d", o, prev[o], s[o])
		}
	}
}

func TestFastRescheduleNoChange(t *testing.T) {
	p := diamond()
	prev, _, err := Solve(p, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, stats, err := fastReschedule(p, prev)
	if err != nil || !stats.AlreadyValid || stats.SubSize != 0 {
		t.Fatalf("no-op reschedule: stats=%+v err=%v", stats, err)
	}
	if s.Agreement(prev) != 1 {
		t.Fatal("schedule changed without cause")
	}
}

func TestFastRescheduleEscalates(t *testing.T) {
	// Capacity drop makes the frozen context infeasible: 2 adders at step
	// 0 with capacity halved — region must grow beyond the direct victims.
	p := NewProblem([]int{2}, 3)
	a := p.AddOp(0)
	b := p.AddOp(0)
	c := p.AddOp(0)
	p.AddDep(a, c)
	prev := Schedule{0, 0, 1}
	if !prev.Valid(p) {
		t.Fatal("setup invalid")
	}
	p.Capacity[0] = 1 // EC: lose one adder
	s, _, err := fastReschedule(p, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatalf("rescheduled invalid: %v", s)
	}
	_ = b
}

func TestPreserveReschedule(t *testing.T) {
	p := diamond()
	prev, _, err := Solve(p, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// EC: new dependency b -> c forces c later.
	changed := p.Clone()
	changed.AddDep(1, 2)
	sol, _, err := domain.Preserve(Domain(), changed, prev, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := sol.(Schedule)
	if !s.Valid(changed) {
		t.Fatalf("preserving schedule invalid: %v", s)
	}
	// At least half the operations keep their step.
	if s.Agreement(prev) < 0.5 {
		t.Fatalf("agreement %.2f too low", s.Agreement(prev))
	}
}

func TestVerifySlack(t *testing.T) {
	p := diamond()
	s := Schedule{0, 1, 1, 2}
	rep := VerifySlack(p, s)
	if rep.Total != 4 {
		t.Fatalf("total %d", rep.Total)
	}
	if rep.Flexible+len(rep.Rigid) != rep.Total {
		t.Fatal("accounting broken")
	}
}

func TestSolveEnabled(t *testing.T) {
	// Loose instance: 3 independent adders, capacity 2, horizon 4 — plenty
	// of spare slots to reward.
	p := NewProblem([]int{2}, 4)
	p.AddOp(0)
	p.AddOp(0)
	p.AddOp(0)
	s, _, err := SolveEnabled(p, 2, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatalf("enabled schedule invalid: %v", s)
	}
	rep := VerifySlack(p, s)
	if rep.Flexible != 3 {
		t.Fatalf("enabled schedule leaves rigid ops: %+v", rep)
	}
}

func TestScheduleAgreementAndClone(t *testing.T) {
	a := Schedule{0, 1, 2}
	b := Schedule{0, 1, 3}
	if g := a.Agreement(b); g < 0.66 || g > 0.67 {
		t.Fatalf("agreement %v", g)
	}
	if (Schedule{}).Agreement(Schedule{}) != 1 {
		t.Fatal("empty agreement")
	}
	c := a.Clone()
	c[0] = 9
	if a[0] != 0 {
		t.Fatal("Clone aliases")
	}
}

// Random DAG property: exact solve and greedy baseline both produce valid
// schedules; exact (compaction objective) finishes no later than greedy.
func TestRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 25; trial++ {
		nOps := 4 + rng.Intn(6)
		p := NewProblem([]int{1 + rng.Intn(2), 1 + rng.Intn(2)}, nOps+2)
		for o := 0; o < nOps; o++ {
			p.AddOp(rng.Intn(2))
		}
		for o := 1; o < nOps; o++ {
			if rng.Intn(2) == 0 {
				p.AddDep(rng.Intn(o), o)
			}
		}
		greedy, err := ListSchedule(p)
		if err != nil {
			continue // horizon too tight for this draw
		}
		exact, _, err := Solve(p, greedy, ilp.Options{})
		if err != nil {
			t.Fatalf("trial %d: exact failed where greedy succeeded: %v", trial, err)
		}
		if !exact.Valid(p) || !greedy.Valid(p) {
			t.Fatalf("trial %d: invalid schedule", trial)
		}
		gMax, eMax := 0, 0
		for o := 0; o < nOps; o++ {
			if greedy[o] > gMax {
				gMax = greedy[o]
			}
			if exact[o] > eMax {
				eMax = exact[o]
			}
		}
		if eMax > gMax {
			t.Fatalf("trial %d: exact finishes later (%d) than greedy (%d)", trial, eMax, gMax)
		}
	}
}
