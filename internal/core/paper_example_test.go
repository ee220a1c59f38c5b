package core

import (
	"testing"

	"ilpec/internal/cnf"
	"ilpec/internal/ilp"
)

// ---- §1 enabling example ----------------------------------------------
//
// F = (v1+v3'+v5')(v2+v3'+v5')(v2+v4+v5)(v3'+v4')
// S = {0,1,1,0,0} survives only some variable eliminations;
// E = {1,1,0,1,0} survives all of them (v3's elimination needs one local
// flip of v4). The test replays the narrative exactly.

func introF() *cnf.Formula {
	return cnf.FromClauses(
		[]int{1, -3, -5},
		[]int{2, -3, -5},
		[]int{2, 4, 5},
		[]int{-3, -4},
	)
}

func TestIntroExampleAssignmentsValid(t *testing.T) {
	f := introF()
	s := cnf.AssignmentFromBools(false, true, true, false, false)
	e := cnf.AssignmentFromBools(true, true, false, true, false)
	if !s.Satisfies(f) || !e.Satisfies(f) {
		t.Fatal("paper's S or E does not satisfy F — transcription error")
	}
}

func TestIntroExampleSurvival(t *testing.T) {
	f := introF()
	s := cnf.AssignmentFromBools(false, true, true, false, false)
	e := cnf.AssignmentFromBools(true, true, false, true, false)

	// S survives eliminating v1 or v3 without repair...
	for _, v := range []int{1, 3} {
		res := SimulateElimination(f, s, v)
		if !res.OK || res.Flips != 0 {
			t.Fatalf("S should survive eliminating v%d untouched (ok=%v flips=%d)", v, res.OK, res.Flips)
		}
	}
	// ...and the paper says v2, v4, v5 each break a clause under S.
	// (Local single-flip repair may still fix some of them; what the paper
	// contrasts is that E absorbs *every* elimination.)
	eSurvived, eTotal := EliminationSurvival(f, e)
	if eSurvived != eTotal {
		t.Fatalf("E survived only %d/%d eliminations", eSurvived, eTotal)
	}

	// Eliminating v3 under E requires exactly the local flip of v4 the
	// paper describes.
	res := SimulateElimination(f, e, 3)
	if !res.OK {
		t.Fatal("E should absorb eliminating v3")
	}
	if res.Flips != 1 || res.Assignment.Get(4) != cnf.False {
		t.Fatalf("expected the single v4:1→0 repair, got flips=%d v4=%v", res.Flips, res.Assignment.Get(4))
	}

	// Immediate survival (no repair): E handles v1, v2, v4, v5 directly.
	for _, v := range []int{1, 2, 4, 5} {
		res := SimulateElimination(f, e, v)
		if !res.OK || res.Flips != 0 {
			t.Fatalf("E should survive eliminating v%d untouched", v)
		}
	}
}

// TestIntroEnableFindsFlexibleSolution: solving F with enabling EC must
// produce a solution of E's quality — every clause 2-satisfied or
// flip-supported, all single eliminations absorbed.
func TestIntroEnableFindsFlexibleSolution(t *testing.T) {
	f := introF()
	res, err := SolveEnable(f, EnableOptions{Mode: EnableConstraints}, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := VerifyFlexibility(f, res.Assignment, 2)
	if len(rep.Unsupported) != 0 {
		t.Fatalf("enabled solution leaves unsupported clauses %v (assignment %v)",
			rep.Unsupported, res.Assignment)
	}
	survived, total := EliminationSurvival(f, res.Assignment)
	if survived != total {
		t.Fatalf("enabled solution survived %d/%d eliminations", survived, total)
	}
}

// ---- §1 fast-EC example (corrected; see DESIGN.md §3) -------------------

func fastF() *cnf.Formula {
	return cnf.FromClauses(
		[]int{1, 2, 3},      // f1
		[]int{1, -2, -3, 4}, // f2
		[]int{1, 3, 6},      // f3
		[]int{1, 4, 5},      // f4
		[]int{1, 3, 4},      // f5 (corrected polarity of v1)
		[]int{2, -3, 5},     // f6
		[]int{2, -6},        // f7
		[]int{-2, 5},        // f8
		[]int{3, -4, 5},     // f9
		[]int{-3, 5},        // f10
	)
}

func fastS() cnf.Assignment {
	return cnf.AssignmentFromBools(true, false, false, false, true, false)
}

func TestFastExampleClosure(t *testing.T) {
	f, s := fastF(), fastS()
	if !s.Satisfies(f) {
		t.Fatal("corrected S does not satisfy F")
	}
	// EC: add f11 = (v5'+v6) and f12 = (v1+v3'+v4).
	fPrime, err := Apply(f, []Change{NewClause(-5, 6), NewClause(1, -3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	simp := Simplify(fPrime, s)
	if simp.AlreadySatisfied {
		t.Fatal("f11 must invalidate S")
	}
	// The paper's narrative: F'' has exactly the three clauses f11, f7, f8
	// over the variables {v2, v5, v6}.
	wantVars := []int{2, 5, 6}
	if len(simp.Vars) != 3 {
		t.Fatalf("V = %v, want %v", simp.Vars, wantVars)
	}
	for i, v := range wantVars {
		if simp.Vars[i] != v {
			t.Fatalf("V = %v, want %v", simp.Vars, wantVars)
		}
	}
	wantMarked := []int{6, 7, 10} // f7, f8, f11 (0-based)
	if len(simp.Marked) != 3 {
		t.Fatalf("marked = %v, want %v", simp.Marked, wantMarked)
	}
	for i, ci := range wantMarked {
		if simp.Marked[i] != ci {
			t.Fatalf("marked = %v, want %v", simp.Marked, wantMarked)
		}
	}
}

func TestFastExampleResolve(t *testing.T) {
	f, s := fastF(), fastS()
	fPrime, err := Apply(f, []Change{NewClause(-5, 6), NewClause(1, -3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := fastEC(fPrime, s, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AlreadyValid {
		t.Fatal("re-solve was required")
	}
	if !got.Satisfies(fPrime) {
		t.Fatal("merged solution does not satisfy F'")
	}
	if stats.SubSize != 3 || subClauses(stats) != 3 {
		t.Fatalf("sub-instance %d vars/%d clauses, want 3/3 ('from ten clauses to three')",
			stats.SubSize, subClauses(stats))
	}
	// Variables outside V keep their original values.
	for _, v := range []int{1, 3, 4} {
		if got.Get(v) != s.Get(v) {
			t.Fatalf("out-of-V variable v%d changed", v)
		}
	}
}

// ---- §1 preserving example ----------------------------------------------

func preserveF() *cnf.Formula {
	return cnf.FromClauses(
		[]int{1, 2, 4}, []int{1, 4, -5}, []int{-1, -3, 4},
		[]int{2, 3, 5}, []int{-2, 4, 5}, []int{3, -4, 5},
	)
}

func TestPreserveExample(t *testing.T) {
	f := preserveF()
	s := cnf.AssignmentFromBools(true, true, false, false, true)
	if !s.Satisfies(f) {
		t.Fatal("S does not satisfy the base formula")
	}
	fPrime, err := Apply(f, []Change{NewClause(-2, 3, 4), NewClause(1, -2, -5)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Satisfies(fPrime) {
		t.Fatal("added clauses must invalidate S")
	}
	got, err := preserveEC(fPrime, s, PreserveOptions{Mode: PreserveMaximize})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Satisfies(fPrime) {
		t.Fatal("preserving solution does not satisfy F'")
	}
	// The paper's S2 = {1,0,0,0,1} preserves 4 of 5; preserving EC must do
	// at least that well.
	if kept := got.PreservedFraction(s); kept < 0.8-1e-9 {
		t.Fatalf("preserved %.2f, want ≥ 0.80 (paper's S2 level)", kept)
	}
}
