package core

import (
	"math/rand"
	"strings"
	"testing"

	"ilpec/internal/cnf"
	"ilpec/internal/domain"
	"ilpec/internal/ilp"
	"ilpec/internal/sat"
)

// preserveEC runs the §7 engine over the CNF adapter in the given
// preservation flavor.
func preserveEC(fPrime *cnf.Formula, p cnf.Assignment, opts PreserveOptions) (cnf.Assignment, error) {
	sol, _, err := domain.Preserve(CNFWith(CNFOptions{Preserve: opts}), fPrime, p, ilp.Options{})
	if err != nil {
		return nil, err
	}
	return sol.(cnf.Assignment), nil
}

func TestPreserveModeString(t *testing.T) {
	if PreserveMaximize.String() != "maximize" || PreserveHard.String() != "hard" ||
		PreserveWeighted.String() != "weighted" {
		t.Fatal("PreserveMode.String mismatch")
	}
}

// TestPreserveMaximizeIsOptimal: the preserved count of PreserveMaximize
// must equal the maximum agreement over all satisfying assignments,
// verified by exhaustive enumeration.
func TestPreserveMaximizeIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 25; trial++ {
		nVars := 3 + rng.Intn(5)
		f := cnf.New(nVars)
		for i := 0; i < 2+rng.Intn(6); i++ {
			k := 2 + rng.Intn(2)
			cl := make(cnf.Clause, 0, k)
			vs := rng.Perm(nVars)[:k]
			for _, vi := range vs {
				l := cnf.Lit(vi + 1)
				if rng.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			f.AddClause(cl)
		}
		if !sat.IsSatisfiable(f) {
			continue
		}
		// Original: a random total assignment (not necessarily satisfying
		// f — it plays the role of the pre-change solution).
		p := cnf.NewAssignment(nVars)
		for v := 1; v <= nVars; v++ {
			if rng.Intn(2) == 0 {
				p.Set(v, cnf.True)
			} else {
				p.Set(v, cnf.False)
			}
		}
		got, err := preserveEC(f, p, PreserveOptions{Mode: PreserveMaximize})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Oracle: maximum number of p-matching committed variables over
		// all satisfying total assignments. Partial assignments can only
		// match fewer (unassigned ≠ committed), so total enumeration is a
		// valid upper bound oracle.
		best := -1
		sat.ForEachSolution(f, func(a cnf.Assignment) bool {
			same, _ := a.Agreement(p)
			if same > best {
				best = same
			}
			return true
		})
		kept := 0
		for v := 1; v <= nVars; v++ {
			if p.Get(v) != cnf.Unassigned && got.Get(v) == p.Get(v) {
				kept++
			}
		}
		if kept < best {
			t.Fatalf("trial %d: preserved %d, oracle max %d", trial, kept, best)
		}
	}
}

func TestPreserveHardConstraints(t *testing.T) {
	f := preserveF()
	p := cnf.AssignmentFromBools(true, true, false, false, true)
	fPrime, _ := Apply(f, []Change{NewClause(-2, 3, 4), NewClause(1, -2, -5)})
	// Protect v1 and v5 (S2 keeps both).
	got, err := preserveEC(fPrime, p, PreserveOptions{
		Mode: PreserveHard, Protected: []int{1, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(1) != cnf.True || got.Get(5) != cnf.True {
		t.Fatalf("protected variables changed: %v", got)
	}
	if !got.Satisfies(fPrime) {
		t.Fatal("hard-preserve solution unsatisfying")
	}
}

func TestPreserveHardInfeasible(t *testing.T) {
	f := cnf.FromClauses([]int{1, 2})
	p := cnf.AssignmentFromBools(false, false)
	// Protecting both variables at false contradicts the clause.
	_, err := preserveEC(f, p, PreserveOptions{
		Mode: PreserveHard, Protected: []int{1, 2},
	})
	if err == nil {
		t.Fatal("expected infeasibility")
	}
}

func TestPreserveHardProtectsDontCare(t *testing.T) {
	f := cnf.FromClauses([]int{1, 2})
	p := cnf.NewAssignment(2)
	p.Set(1, cnf.True) // v2 is DC
	got, err := preserveEC(f, p, PreserveOptions{
		Mode: PreserveHard, Protected: []int{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(2) != cnf.Unassigned {
		t.Fatal("protected don't-care was committed")
	}
}

func TestPreserveHardBadVariable(t *testing.T) {
	f := cnf.FromClauses([]int{1})
	p := cnf.AssignmentFromBools(true)
	_, err := preserveEC(f, p, PreserveOptions{Mode: PreserveHard, Protected: []int{7}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected range error, got %v", err)
	}
}

func TestPreserveWeightedBeatsPlainBaseline(t *testing.T) {
	// Table-3 shape on a single instance: preserving EC keeps at least as
	// much of p as the plain re-solve.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		nVars := 8
		f := cnf.New(nVars)
		plant := cnf.NewAssignment(nVars)
		for v := 1; v <= nVars; v++ {
			if rng.Intn(2) == 0 {
				plant.Set(v, cnf.True)
			} else {
				plant.Set(v, cnf.False)
			}
		}
		for i := 0; i < 16; i++ {
			vs := rng.Perm(nVars)[:3]
			cl := make(cnf.Clause, 3)
			for j, vi := range vs {
				v := vi + 1
				l := cnf.Lit(v)
				if plant.Get(v) == cnf.False {
					l = -l
				}
				if j > 0 && rng.Intn(3) == 0 {
					l = -l
				}
				cl[j] = l
			}
			f.AddClause(cl)
		}
		p, _, err := PlainResolve(f, ilp.Options{})
		if err != nil {
			continue
		}
		pTotal := p.Complete(cnf.False)
		// Change: add two clauses contradicting p where possible.
		fPrime := f.Clone()
		added := 0
		for v := 1; v <= nVars && added < 2; v++ {
			if p.Get(v) == cnf.True {
				g := fPrime.Clone()
				g.AddClause(cnf.Clause{cnf.Lit(-v), cnf.Lit((v % nVars) + 1)})
				if sat.IsSatisfiable(g) {
					fPrime = g
					added++
				}
			}
		}
		pres, err := preserveEC(fPrime, pTotal, PreserveOptions{Mode: PreserveMaximize})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		plain, _, err := PlainResolve(fPrime, ilp.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pres.PreservedFraction(pTotal) < plain.PreservedFraction(pTotal)-1e-9 {
			t.Fatalf("trial %d: preserving EC (%.2f) worse than plain (%.2f)",
				trial, pres.PreservedFraction(pTotal), plain.PreservedFraction(pTotal))
		}
	}
}

func TestPreserveWeightedMode(t *testing.T) {
	f := preserveF()
	p := cnf.AssignmentFromBools(true, true, false, false, true)
	fPrime, _ := Apply(f, []Change{NewClause(-2, 3, 4), NewClause(1, -2, -5)})
	got, err := preserveEC(fPrime, p, PreserveOptions{Mode: PreserveWeighted, Weight: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Satisfies(fPrime) {
		t.Fatal("weighted solution unsatisfying")
	}
	if kept := got.PreservedFraction(p); kept < 0.8-1e-9 {
		t.Fatalf("weighted preserved %.2f < 0.80", kept)
	}
}

func TestPreserveUnknownMode(t *testing.T) {
	f := cnf.FromClauses([]int{1})
	if _, err := preserveEC(f, cnf.AssignmentFromBools(true), PreserveOptions{Mode: PreserveMode(9)}); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}

func TestPreserveEmptyClause(t *testing.T) {
	f := cnf.New(1)
	f.AddClause(cnf.Clause{})
	if err := CNF().Validate(f); err == nil {
		t.Fatal("Validate accepted an empty clause")
	}
	if _, err := preserveEC(f, cnf.NewAssignment(1), PreserveOptions{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestPlainResolveBasics(t *testing.T) {
	f := cnf.FromClauses([]int{1, 2}, []int{-1, 2})
	a, res, err := PlainResolve(f, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Satisfies(f) || res.Status != ilp.Optimal {
		t.Fatal("plain resolve wrong")
	}
	// Minimal commitment: v2 alone satisfies both clauses.
	if a.AssignedCount() != 1 || a.Get(2) != cnf.True {
		t.Fatalf("expected the v2-only cover, got %v", a)
	}
	unsat := cnf.FromClauses([]int{1}, []int{-1})
	if _, _, err := PlainResolve(unsat, ilp.Options{}); err == nil {
		t.Fatal("expected unsatisfiable error")
	}
}
