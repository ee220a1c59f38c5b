package sched

import (
	"fmt"
	"testing"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// TestSchedDomainConformance runs the shared cross-domain suite against
// the scheduling adapter.
func TestSchedDomainConformance(t *testing.T) {
	domain.RunConformance(t, Domain())
}

// TestSchedDomainFastPlacesNewOp pins that adding an operation triggers a
// region re-place around the new op rather than a full reschedule.
func TestSchedDomainFastPlacesNewOp(t *testing.T) {
	d := Domain()
	p := NewProblem([]int{2, 2}, 5)
	for i := 0; i < 6; i++ {
		p.AddOp(i % 2)
	}
	p.AddDep(0, 2)
	p.AddDep(1, 3)
	p.AddDep(2, 4)
	prevAny, _, err := domain.Solve(d, p, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := d.ApplyChanges(p, []any{Change{Kind: "add-op", Type: 0}})
	if err != nil {
		t.Fatal(err)
	}
	next, stats, err := domain.Fast(d, changed, prevAny, domain.FastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(changed, next); err != nil {
		t.Fatal(err)
	}
	if stats.AlreadyValid {
		t.Fatal("new op reported as already placed")
	}
	if !stats.FullResolve && stats.SubSize >= changed.(*Problem).NumOps {
		t.Fatalf("region covered all %d ops", stats.SubSize)
	}
	// Frozen operations keep their steps.
	prev, nextSched := prevAny.(Schedule), next.(Schedule)
	moved := 0
	for o := 0; o < len(prev); o++ {
		if nextSched[o] != prev[o] {
			moved++
		}
	}
	if !stats.FullResolve && moved > stats.SubSize {
		t.Fatalf("%d ops moved with region size %d", moved, stats.SubSize)
	}
}

// TestSchedEncodeDelta pins the delta encoder across every expressible
// change kind: dependency add/remove and capacity edits must replay onto
// a live instance as the exact model a re-encode would build, while
// add-op and duplicate dependencies fall back.
func TestSchedEncodeDelta(t *testing.T) {
	d := Domain()
	de := d.(domain.DeltaEncoder)
	p := NewProblem([]int{2, 1}, 4)
	for _, r := range []int{0, 0, 1, 0, 1} {
		p.AddOp(r)
	}
	p.AddDep(0, 2)
	p.AddDep(1, 3)

	check := func(name string, batch []any) {
		t.Helper()
		enc, err := d.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		delta, ok := de.EncodeDelta(enc, p, batch)
		if !ok {
			t.Fatalf("%s: batch not delta-expressible", name)
		}
		changed, err := d.ApplyChanges(p, batch)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := d.Encode(changed)
		if err != nil {
			t.Fatal(err)
		}
		inst := ilp.NewInstance(enc.ILP())
		delta.Apply(inst)
		if got, want := inst.Fingerprint(), ilp.ModelFingerprint(fresh.ILP()); got != want {
			t.Fatalf("%s: delta fingerprint %x, re-encode %x", name, got, want)
		}
		dres := inst.Resolve(ilp.Options{})
		fres := ilp.Solve(fresh.ILP(), ilp.Options{})
		if dres.Status != fres.Status || dres.Objective != fres.Objective {
			t.Fatalf("%s: delta solve (%v, %v) vs re-encode (%v, %v)",
				name, dres.Status, dres.Objective, fres.Status, fres.Objective)
		}
	}

	check("add-dep", []any{Change{Kind: "add-dep", From: 2, To: 4}})
	check("remove-dep", []any{Change{Kind: "remove-dep", From: 1, To: 3}})
	check("set-capacity", []any{Change{Kind: "set-capacity", Type: 0, Capacity: 1}})
	check("mixed", []any{
		Change{Kind: "add-dep", From: 3, To: 4},
		Change{Kind: "set-capacity", Type: 1, Capacity: 2},
		Change{Kind: "remove-dep", From: 0, To: 2},
	})
	// Add-then-remove of the same dep inside one batch must cancel.
	check("add-then-remove", []any{
		Change{Kind: "add-dep", From: 2, To: 4},
		Change{Kind: "remove-dep", From: 2, To: 4},
	})

	enc, err := d.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, batch := range map[string][]any{
		"add-op":        {Change{Kind: "add-op", Type: 0}},
		"duplicate-dep": {Change{Kind: "add-dep", From: 0, To: 2}},
		"absent-remove": {Change{Kind: "remove-dep", From: 4, To: 0}},
	} {
		if _, ok := de.EncodeDelta(enc, p, batch); ok {
			t.Fatalf("%s: expected rebuild fallback", name)
		}
	}
}

// TestSchedEncodeDeltaVacuousCapacity pins that a capacity change for a
// type no operation uses edits nothing (the encoding omits those rows).
func TestSchedEncodeDeltaVacuousCapacity(t *testing.T) {
	d := Domain()
	de := d.(domain.DeltaEncoder)
	p := NewProblem([]int{1, 1}, 3)
	p.AddOp(0)
	p.AddOp(0)
	enc, err := d.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	delta, ok := de.EncodeDelta(enc, p, []any{Change{Kind: "set-capacity", Type: 1, Capacity: 3}})
	if !ok {
		t.Fatal("vacuous capacity change should be delta-expressible")
	}
	if !delta.Empty() {
		t.Fatalf("vacuous capacity change produced edits: %+v", delta)
	}
}

// TestParseProblemSizeBound pins that a scheduling problem declaring a
// horizon longer than domain.MaxColumns admits is rejected at parse time.
func TestParseProblemSizeBound(t *testing.T) {
	for _, spec := range []string{
		fmt.Sprintf(`{"capacity": [1], "steps": %d, "types": [], "deps": []}`, domain.MaxColumns+1),
		fmt.Sprintf(`{"capacity": [1], "steps": %d, "types": [0, 0], "deps": []}`, domain.MaxColumns/2+1),
	} {
		if _, err := Domain().ParseProblem([]byte(spec)); err == nil {
			t.Errorf("ParseProblem(%s) accepted a problem over the bound", spec)
		}
	}
	for _, spec := range []string{
		fmt.Sprintf(`{"capacity": [1], "steps": %d, "types": [], "deps": []}`, domain.MaxColumns),
		fmt.Sprintf(`{"capacity": [1], "steps": %d, "types": [0, 0], "deps": []}`, domain.MaxColumns/2),
	} {
		if _, err := Domain().ParseProblem([]byte(spec)); err != nil {
			t.Errorf("problem at the bound rejected: %v", err)
		}
	}
}
