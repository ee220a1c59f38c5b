package sched

import (
	"strings"
	"testing"
)

// TestFastRescheduleNeighborhoodEscalation pins the dependency-neighborhood
// escalation path: the initial region (just the new operation) is
// infeasible against the frozen schedule, and the fast-EC engine must grow
// the region along dependency edges — twice — before the re-solve
// succeeds.
//
// Chain a→b→c scheduled {0,1,2} in 4 steps (capacity 1); the change
// prepends d with d→a. Region {d} fails (a is frozen at step 0), region
// {d,a} fails (b is frozen at step 1), and only the full chain {d,a,b,c}
// can shift to {0,1,2,3}.
func TestFastRescheduleNeighborhoodEscalation(t *testing.T) {
	p := NewProblem([]int{1}, 4)
	a := p.AddOp(0)
	b := p.AddOp(0)
	c := p.AddOp(0)
	p.AddDep(a, b)
	p.AddDep(b, c)
	prev := Schedule{0, 1, 2}
	if !prev.Valid(p) {
		t.Fatal("setup schedule invalid")
	}

	d := p.AddOp(0)
	p.AddDep(d, a)
	s, stats, err := fastReschedule(p, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatalf("rescheduled invalid: %v", s)
	}
	if stats.SubSize != p.NumOps || stats.Escalations != 2 {
		t.Fatalf("region %d after %d escalations, want the full chain %d after 2 neighborhood growths",
			stats.SubSize, stats.Escalations, p.NumOps)
	}
	if s[d] >= s[a] || s[a] >= s[b] || s[b] >= s[c] {
		t.Fatalf("chain order broken: %v", s)
	}
}

// TestFastRescheduleEscalationStaysPartial pins that escalation stops as
// soon as the grown region becomes feasible, leaving the rest frozen: with
// a→b at {0,2} and a new d→a, one neighborhood growth ({d} → {d,a}) lets
// d,a slide to {0,1} while b never moves.
func TestFastRescheduleEscalationStaysPartial(t *testing.T) {
	p := NewProblem([]int{1}, 3)
	a := p.AddOp(0)
	b := p.AddOp(0)
	p.AddDep(a, b)
	prev := Schedule{0, 2}
	if !prev.Valid(p) {
		t.Fatal("setup schedule invalid")
	}
	d := p.AddOp(0)
	p.AddDep(d, a)
	s, stats, err := fastReschedule(p, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatalf("rescheduled invalid: %v", s)
	}
	if stats.SubSize != 2 || stats.Escalations != 1 || stats.FullResolve {
		t.Fatalf("stats %+v, want region 2 ({d,a} after one dependency-neighborhood growth)", stats)
	}
	if s[b] != prev[b] {
		t.Fatalf("op b moved from %d to %d despite being outside the region", prev[b], s[b])
	}
	if s[d] >= s[a] || s[a] >= s[b] {
		t.Fatalf("order broken: %v", s)
	}
}

// TestFastRescheduleInfeasibleReportsFullRegion covers the ladder's last
// resort: the region grows to the full operation set, and the error
// reports the whole changed problem infeasible (the engine says so only
// once the region is full) when even that cannot absorb the change. The
// failed pass still reports the full region it solved.
func TestFastRescheduleInfeasibleReportsFullRegion(t *testing.T) {
	p := NewProblem([]int{1}, 2)
	p.AddOp(0)
	p.AddOp(0)
	prev := Schedule{0, 1}
	p.AddOp(0) // three unit ops, two steps, capacity 1: impossible
	_, stats, err := fastReschedule(p, prev)
	if err == nil {
		t.Fatal("impossible reschedule succeeded")
	}
	if !strings.Contains(err.Error(), "changed problem is infeasible") {
		t.Fatalf("error %q does not report the full problem infeasible", err)
	}
	if stats.Escalations == 0 {
		t.Fatal("gave up before escalating")
	}
	if stats.SubSize != p.NumOps || !stats.FullResolve {
		t.Fatalf("stats %+v, want SubSize %d and FullResolve (full escalation before giving up)", stats, p.NumOps)
	}
}

// TestFastRescheduleCapacityViolationJoinsRegion pins the capacity-repair
// seeding: a capacity drop puts previously-frozen co-resident operations
// into the region even though their steps are individually in range.
func TestFastRescheduleCapacityViolationJoinsRegion(t *testing.T) {
	p := NewProblem([]int{2}, 3)
	p.AddOp(0)
	p.AddOp(0)
	prev := Schedule{0, 0, 1}
	p.AddOp(0)
	prev = prev[:2] // third op is new → joins the region as -1
	p.Capacity[0] = 1
	s, stats, err := fastReschedule(p, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Valid(p) {
		t.Fatalf("rescheduled invalid: %v", s)
	}
	if stats.SubSize < 3 {
		t.Fatalf("region %d too small: the capacity victims at step 0 must join", stats.SubSize)
	}
}

// TestFastRescheduleValidateError covers the input-validation guard the
// serving layer runs before any solve.
func TestFastRescheduleValidateError(t *testing.T) {
	p := NewProblem([]int{1}, 0) // zero-step horizon is invalid
	p.AddOp(0)
	if err := Domain().Validate(p); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
