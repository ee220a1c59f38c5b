package ilp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: negating a GE row into LE form leaves the optimum unchanged.
func TestSenseNormalizationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := NewModel(r.Intn(2) == 0)
		bm := NewModel(a.Maximize)
		for j := 0; j < n; j++ {
			c := float64(r.Intn(9) - 4)
			a.AddVar("", c)
			bm.AddVar("", c)
		}
		for i := 0; i < 1+r.Intn(4); i++ {
			var coefs []Coef
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					coefs = append(coefs, Coef{j, float64(r.Intn(7) - 3)})
				}
			}
			if len(coefs) == 0 {
				coefs = append(coefs, Coef{0, 1})
			}
			rhs := float64(r.Intn(5) - 1)
			// Model a: GE row. Model b: equivalent negated LE row.
			a.AddRow("", coefs, GE, rhs)
			neg := make([]Coef, len(coefs))
			for k, c := range coefs {
				neg[k] = Coef{c.Var, -c.Val}
			}
			bm.AddRow("", neg, LE, -rhs)
		}
		ra := Solve(a, Options{})
		rb := Solve(bm, Options{})
		if ra.Status != rb.Status {
			return false
		}
		if ra.Status == Optimal && math.Abs(ra.Objective-rb.Objective) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: a feasible warm start never worsens the reported optimum, and
// the solve is deterministic.
func TestWarmStartProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, 3+r.Intn(6), 1+r.Intn(4))
		base := Solve(m, Options{})
		again := Solve(m, Options{})
		if base.Status != again.Status || base.Nodes != again.Nodes {
			return false // nondeterminism
		}
		if base.Status != Optimal {
			return true
		}
		warm := Solve(m, Options{WarmStart: base.Solution})
		if warm.Status != Optimal {
			return false
		}
		return math.Abs(warm.Objective-base.Objective) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cover-aware bound never prunes the true optimum — compare
// against enumeration on pure set-cover models.
func TestCoverBoundSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nSets := 3 + r.Intn(7)
		nElems := 2 + r.Intn(8)
		m := NewModel(false)
		for j := 0; j < nSets; j++ {
			m.AddVar("", 1+float64(r.Intn(3)))
		}
		for e := 0; e < nElems; e++ {
			var coefs []Coef
			for j := 0; j < nSets; j++ {
				if r.Intn(3) == 0 {
					coefs = append(coefs, Coef{j, 1})
				}
			}
			if len(coefs) == 0 {
				coefs = append(coefs, Coef{r.Intn(nSets), 1})
			}
			m.AddRow("", coefs, GE, 1)
		}
		want := Enumerate(m)
		got := Solve(m, Options{})
		if got.Status != want.Status {
			return false
		}
		return want.Status != Optimal || math.Abs(got.Objective-want.Objective) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: EQ-derived cover rows (one-hot constraints) keep the solver
// exact — mimics the coloring model shape.
func TestOneHotCoverProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		groups := 2 + r.Intn(3)
		per := 2 + r.Intn(3)
		m := NewModel(false)
		for g := 0; g < groups; g++ {
			for k := 0; k < per; k++ {
				m.AddVar("", float64(r.Intn(5)))
			}
		}
		for g := 0; g < groups; g++ {
			var coefs []Coef
			for k := 0; k < per; k++ {
				coefs = append(coefs, Coef{g*per + k, 1})
			}
			m.AddRow("", coefs, EQ, 1)
		}
		// A few conflict rows.
		for i := 0; i < r.Intn(4); i++ {
			a := r.Intn(groups * per)
			b := r.Intn(groups * per)
			if a == b {
				continue
			}
			m.AddRow("", []Coef{{a, 1}, {b, 1}}, LE, 1)
		}
		want := Enumerate(m)
		got := Solve(m, Options{})
		if got.Status != want.Status {
			return false
		}
		return want.Status != Optimal || math.Abs(got.Objective-want.Objective) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: the combinatorial bound is a true lower bound at every node,
// not only the root. Random models with cover structure (one-hot EQ
// rows, Σx ≥ 1 rows, a side knapsack row) and zero, fractional and
// negative costs are dived into through assign+propagate; at each node
// reached, combBound must not exceed the best feasible completion of the
// node's partial assignment, and Solve must agree with enumeration.
func TestCombBoundInteriorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	checked := 0
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(9)
		m := NewModel(r.Intn(3) == 0)
		for j := 0; j < n; j++ {
			var c float64
			switch r.Intn(5) {
			case 0:
				c = 0
			case 1:
				c = float64(1+r.Intn(20)) / 7
			case 2:
				c = -float64(1+r.Intn(5)) / 3
			default:
				c = float64(1 + r.Intn(4))
			}
			m.AddVar("", c)
		}
		subset := func() []Coef {
			var coefs []Coef
			for j := 0; j < n; j++ {
				if r.Intn(3) == 0 {
					coefs = append(coefs, Coef{j, 1})
				}
			}
			if len(coefs) == 0 {
				coefs = append(coefs, Coef{r.Intn(n), 1})
			}
			return coefs
		}
		for i := r.Intn(3); i > 0; i-- {
			m.AddRow("", subset(), EQ, 1)
		}
		for i := 1 + r.Intn(5); i > 0; i-- {
			m.AddRow("", subset(), GE, 1)
		}
		if r.Intn(2) == 0 {
			var coefs []Coef
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					coefs = append(coefs, Coef{j, float64(1 + r.Intn(4))})
				}
			}
			if len(coefs) > 0 {
				m.AddRow("", coefs, LE, float64(2+r.Intn(6)))
			}
		}

		want := Enumerate(m)
		got := Solve(m, Options{})
		if got.Status != want.Status ||
			want.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Logf("seed %d: Solve %v %v, enumeration %v %v", seed, got.Status, got.Objective, want.Status, want.Objective)
			return false
		}

		s := newSolver(m, Options{})
		if !s.rootPropagate() {
			return want.Status == Infeasible
		}
		for dive := 0; dive < 4; dive++ {
			mark := len(s.trail)
			for {
				if !boundBelowCompletions(t, m, s, seed) {
					return false
				}
				checked++
				var unfixed []int
				for j, v := range s.fixed {
					if v == -1 {
						unfixed = append(unfixed, j)
					}
				}
				if len(unfixed) == 0 {
					break
				}
				j := unfixed[r.Intn(len(unfixed))]
				if !s.assign(j, int8(r.Intn(2))) || !s.propagate() {
					s.clearQueue()
					break
				}
			}
			s.undoTo(mark)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	if checked < 1000 {
		t.Fatalf("only %d nodes checked", checked)
	}
}

// boundBelowCompletions reports whether s.combBound() is at most the best
// internal objective over the feasible completions of s's partial
// assignment (enumerated on m with the fixed variables pinned by rows).
// A node without a feasible completion admits any bound.
func boundBelowCompletions(t *testing.T, m *Model, s *solver, seed int64) bool {
	sub := m.Clone()
	for j, v := range s.fixed {
		if v != -1 {
			sub.AddRow("", []Coef{{j, 1}}, EQ, float64(v))
		}
	}
	best := Enumerate(sub)
	if best.Status != Optimal {
		return true
	}
	z := best.Objective
	if m.Maximize {
		z = -z
	}
	if b := s.combBound(); b > z+solveEps {
		t.Logf("seed %d: combBound %v above the best completion %v at fixed=%v", seed, b, z, s.fixed)
		return false
	}
	return true
}
