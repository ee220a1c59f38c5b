package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ilpec/internal/cnf"
	"ilpec/internal/ilp"
	"ilpec/internal/sat"
)

// randomPlanted builds a random 3-SAT instance with a planted solution.
func randomPlanted(r *rand.Rand, nVars, nClauses int) (*cnf.Formula, cnf.Assignment) {
	plant := cnf.NewAssignment(nVars)
	for v := 1; v <= nVars; v++ {
		if r.Intn(2) == 0 {
			plant.Set(v, cnf.True)
		} else {
			plant.Set(v, cnf.False)
		}
	}
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		vs := r.Perm(nVars)[:3]
		cl := make(cnf.Clause, 3)
		for j, vi := range vs {
			v := vi + 1
			l := cnf.Lit(v)
			if plant.Get(v) == cnf.False {
				l = -l
			}
			if j > 0 && r.Intn(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		f.AddClause(cl)
	}
	return f, plant
}

// Property: the minimal-V policy is as sound as the full closure — the
// merged fast-EC solution always satisfies the changed formula.
func TestFastMinimalSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f, plant := randomPlanted(r, 5+r.Intn(6), 4+r.Intn(12))
		p, _, err := PlainResolve(f, ilp.Options{})
		if err != nil {
			return true
		}
		fPrime := f.Clone()
		for i := 0; i < 1+r.Intn(3); i++ {
			cl := make(cnf.Clause, 0, 2)
			vs := r.Perm(f.NumVars)[:2]
			for _, vi := range vs {
				l := cnf.Lit(vi + 1)
				if r.Intn(2) == 0 {
					l = -l
				}
				cl = append(cl, l)
			}
			g := fPrime.Clone()
			g.AddClause(cl)
			if sat.IsSatisfiable(g) {
				fPrime = g
			}
		}
		got, _, err := fastEC(fPrime, p, true)
		if err != nil {
			return false
		}
		_ = plant
		return got.Satisfies(fPrime)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: SimplifyMinimal's variable set is always a subset of the full
// closure's, and both mark every initially-unsatisfied clause.
func TestSimplifyPolicyRelationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f, plant := randomPlanted(r, 5+r.Intn(6), 4+r.Intn(10))
		// Random partial assignment derived from the plant with damage.
		p := plant.Clone()
		for v := 1; v <= f.NumVars; v++ {
			switch r.Intn(4) {
			case 0:
				p.Set(v, cnf.Unassigned)
			case 1:
				if p.Get(v) == cnf.True {
					p.Set(v, cnf.False)
				} else {
					p.Set(v, cnf.True)
				}
			}
		}
		full := Simplify(f, p)
		min := SimplifyMinimal(f, p)
		if full.AlreadySatisfied != min.AlreadySatisfied {
			return false
		}
		if full.AlreadySatisfied {
			return true
		}
		inFull := map[int]bool{}
		for _, v := range full.Vars {
			inFull[v] = true
		}
		for _, v := range min.Vars {
			if !inFull[v] {
				return false // minimal V must be ⊆ full V
			}
		}
		unsat := p.UnsatisfiedClauses(f)
		markedFull := map[int]bool{}
		for _, ci := range full.Marked {
			markedFull[ci] = true
		}
		markedMin := map[int]bool{}
		for _, ci := range min.Marked {
			markedMin[ci] = true
		}
		for _, ci := range unsat {
			if !markedFull[ci] || !markedMin[ci] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: reservations in a Simplify result always commit don't-care
// variables outside V, and never conflict with p.
func TestReservationInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f, plant := randomPlanted(r, 6+r.Intn(6), 5+r.Intn(10))
		p := plant.Clone()
		// Punch don't-cares and a few flips into the plant.
		for v := 1; v <= f.NumVars; v++ {
			switch r.Intn(3) {
			case 0:
				p.Set(v, cnf.Unassigned)
			}
		}
		for _, simp := range []SimplifyResult{Simplify(f, p), SimplifyMinimal(f, p)} {
			if simp.AlreadySatisfied {
				continue
			}
			inV := map[int]bool{}
			for _, v := range simp.Vars {
				inV[v] = true
			}
			for v, val := range simp.Reserved {
				if inV[v] {
					return false // reservation inside V
				}
				if p.Get(v) != cnf.Unassigned {
					return false // reservation of a committed variable
				}
				if val == cnf.Unassigned {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
