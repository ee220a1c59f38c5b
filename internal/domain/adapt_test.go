package domain_test

import (
	"testing"

	"ilpec/internal/coloring"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/partition"
	"ilpec/internal/sched"
)

// TestAdaptErrorsBesideUntypedNil pins that an adapter error raised by
// the typed method itself, not by a type check, still comes back beside
// an untyped nil: core.Apply returns a nil *cnf.Formula with its error,
// which a direct `return Apply(...)` would box into a non-nil any.
func TestAdaptErrorsBesideUntypedNil(t *testing.T) {
	d := core.CNF()
	p := d.(domain.Fixtured).Conformance().Problem
	v, err := d.ApplyChanges(p, []any{core.DropClause(99)})
	if err == nil || v != nil {
		t.Fatalf("ApplyChanges(out-of-range removal) = (%#v, %v), want (nil, error)", v, err)
	}
}

// TestAdaptConvertsWithoutAllocating pins that the wrapper's type
// checks allocate nothing on the success path.
func TestAdaptConvertsWithoutAllocating(t *testing.T) {
	for _, d := range []domain.Domain{core.CNF(), coloring.Domain(), sched.Domain(), partition.Domain()} {
		c := d.(domain.Fixtured).Conformance()
		sol, _, err := domain.Solve(d, c.Problem, c.Solve, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			d.ProblemSize(c.Problem)
			d.Agreement(sol, sol)
			d.Tightening(c.Tightening[0])
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", d.Name(), allocs)
		}
	}
}
