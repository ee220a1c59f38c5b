package core

import (
	"sort"

	"ilpec/internal/cnf"
	"ilpec/internal/encode"
	"ilpec/internal/ilp"
)

// SimplifyResult is the output of the Figure-2 closure: the set of clauses
// and variables that must be re-solved after a tightening change.
type SimplifyResult struct {
	// AlreadySatisfied is true when the original assignment still satisfies
	// the changed formula — no re-solving needed.
	AlreadySatisfied bool
	// Vars is the sorted variable set V of Figure 2.
	Vars []int
	// Marked is the sorted list of clause indices to re-solve.
	Marked []int
	// Reserved commits don't-care variables outside V whose chosen
	// polarity keeps otherwise-unsupported clauses satisfied — the §6
	// "recover as many DC variables from the initial solution as possible"
	// step. These commitments are part of the merged solution.
	Reserved map[int]cnf.Value
}

// Simplify implements the pseudo code of Figure 2: starting from the
// clauses of fPrime unsatisfied under p, it closes over the variables that
// may need new values, marking every clause whose only support under p
// comes from inside the growing variable set V.
//
// A clause outside the closure is safe when some literal outside V is true
// under p, or lies on a don't-care variable that can be committed
// (reserved) to satisfy it. Reservations are recomputed from scratch after
// every growth of V so they never reference variables inside V.
func Simplify(fPrime *cnf.Formula, p cnf.Assignment) SimplifyResult {
	p = p.Grow(fPrime.NumVars)
	unsat := p.UnsatisfiedClauses(fPrime)
	if len(unsat) == 0 {
		return SimplifyResult{AlreadySatisfied: true}
	}
	inV := make([]bool, fPrime.NumVars+1)
	marked := make([]bool, fPrime.NumClauses())
	for _, ci := range unsat {
		marked[ci] = true
		for _, l := range fPrime.Clauses[ci] {
			inV[l.Var()] = true
		}
	}
	return finishClosure(fPrime, p, inV, marked)
}

// SimplifyMinimal is the variant of Simplify whose variable set V stays
// fixed at the variables of the unsatisfied clauses: marked clauses do NOT
// contribute their other variables. Marked clauses are later restricted to
// V-literals, freezing everything else at p (including greedy don't-care
// reservations).
//
// This is not what Figure 2's pseudocode says ("add any new variables to
// V"), but it is the only reading consistent with the paper's own Table 2
// — e.g. jnh201's reported 21-variable/98.9-clause sub-instances cannot
// arise from the growing-V closure, since 99 width-5 clauses span far more
// than 21 variables. Correctness is preserved through the CNF adapter's
// escalation ladder (minimal → full closure → neighborhood rings → full
// re-solve; see cnfRegion).
func SimplifyMinimal(fPrime *cnf.Formula, p cnf.Assignment) SimplifyResult {
	p = p.Grow(fPrime.NumVars)
	unsat := p.UnsatisfiedClauses(fPrime)
	if len(unsat) == 0 {
		return SimplifyResult{AlreadySatisfied: true}
	}
	inV := make([]bool, fPrime.NumVars+1)
	marked := make([]bool, fPrime.NumClauses())
	for _, ci := range unsat {
		marked[ci] = true
		for _, l := range fPrime.Clauses[ci] {
			inV[l.Var()] = true
		}
	}
	reserved := make(map[int]cnf.Value)
	for ci, cl := range fPrime.Clauses {
		if marked[ci] {
			continue
		}
		touchesV := false
		for _, l := range cl {
			if inV[l.Var()] {
				touchesV = true
				break
			}
		}
		if !touchesV {
			continue
		}
		if supported(cl, p, inV, reserved) {
			continue
		}
		marked[ci] = true // V intentionally not grown
	}
	res := SimplifyResult{Reserved: reserved}
	for ci, m := range marked {
		if m {
			res.Marked = append(res.Marked, ci)
		}
	}
	for v := 1; v < len(inV); v++ {
		if inV[v] {
			res.Vars = append(res.Vars, v)
		}
	}
	return res
}

// finishClosure runs the mark/reserve fixpoint from the seeded state:
// each pass recomputes the greedy don't-care reservations against the
// current V and marks every clause that has a V variable but no outside
// support. V only grows, so this terminates.
func finishClosure(fPrime *cnf.Formula, p cnf.Assignment, inV []bool, marked []bool) SimplifyResult {
	reserved := make(map[int]cnf.Value)
	for {
		for k := range reserved {
			delete(reserved, k)
		}
		changed := false
		for ci, cl := range fPrime.Clauses {
			if marked[ci] {
				continue
			}
			touchesV := false
			for _, l := range cl {
				if inV[l.Var()] {
					touchesV = true
					break
				}
			}
			if !touchesV && p.ClauseSatisfied(cl) {
				continue // untouched by the re-solve; stays satisfied
			}
			if supported(cl, p, inV, reserved) {
				continue
			}
			marked[ci] = true
			changed = true
			for _, l := range cl {
				inV[l.Var()] = true
			}
		}
		if !changed {
			break
		}
	}

	res := SimplifyResult{Reserved: reserved}
	for ci, m := range marked {
		if m {
			res.Marked = append(res.Marked, ci)
		}
	}
	for v := 1; v < len(inV); v++ {
		if inV[v] {
			res.Vars = append(res.Vars, v)
		}
	}
	sort.Ints(res.Vars)
	return res
}

// supported reports whether the clause has a literal outside V that is
// true under p or can be reserved on a don't-care variable (recording the
// reservation).
func supported(cl cnf.Clause, p cnf.Assignment, inV []bool, reserved map[int]cnf.Value) bool {
	// Pass 1: an already-true or already-reserved-compatible literal.
	for _, l := range cl {
		if inV[l.Var()] {
			continue
		}
		if p.LitTrue(l) {
			return true
		}
		if want, ok := reserved[l.Var()]; ok && litValue(l) == want {
			return true
		}
	}
	// Pass 2: reserve a fresh don't-care.
	for _, l := range cl {
		v := l.Var()
		if inV[v] || p.Get(v) != cnf.Unassigned {
			continue
		}
		if _, taken := reserved[v]; taken {
			continue // already reserved in the opposite polarity
		}
		reserved[v] = litValue(l)
		return true
	}
	return false
}

// litValue returns the assignment value that makes l true.
func litValue(l cnf.Lit) cnf.Value {
	if l.Pos() {
		return cnf.True
	}
	return cnf.False
}

// A clause marked by Simplify may still mention variables outside V (their
// literals are false or don't-care under p and will not change).
// SubFormula builds the compact sub-instance over V only: variables are
// renumbered 1..|V| and out-of-V literals are dropped.
//
// varOf maps compact index (1-based) back to the original variable.
func SubFormula(fPrime *cnf.Formula, p cnf.Assignment, simp SimplifyResult) (sub *cnf.Formula, varOf []int) {
	compact := make(map[int]int, len(simp.Vars))
	varOf = make([]int, len(simp.Vars)+1)
	for i, v := range simp.Vars {
		compact[v] = i + 1
		varOf[i+1] = v
	}
	sub = cnf.New(len(simp.Vars))
	for _, ci := range simp.Marked {
		var cl cnf.Clause
		for _, l := range fPrime.Clauses[ci] {
			cv, ok := compact[l.Var()]
			if !ok {
				continue // outside V: stays false/DC under p
			}
			nl := cnf.Lit(cv)
			if !l.Pos() {
				nl = -nl
			}
			cl = append(cl, nl)
		}
		sub.AddClause(cl)
	}
	return sub, varOf
}

// FastOptions configures fast EC (§6). The CNF adapter reads Minimal;
// Solve and MaxEscalations are the engine knobs that core.Flow and the
// session service forward into domain.FastOptions.
type FastOptions struct {
	// Solve configures the exact sub-instance solver. The warm start field
	// is overwritten by the engine (the original solution restricted to V
	// guides branching toward minimal change).
	Solve ilp.Options
	// MaxEscalations bounds the V-growing retries when the sub-instance is
	// unsatisfiable with the frozen out-of-V assignment (default 3; the
	// final fallback is a full re-solve).
	MaxEscalations int
	// Minimal starts from SimplifyMinimal instead of the Figure-2 closure
	// (see that function for why the paper's Table 2 implies this policy).
	// On infeasibility the full closure is tried before ring escalation.
	Minimal bool
}

// warmFromOriginal projects p onto the compact sub-encoding as a branching
// guide (it is typically infeasible for the sub-instance, which is fine —
// the solver only uses it for branch ordering).
func warmFromOriginal(e *encode.Encoding, p cnf.Assignment, varOf []int) ilp.Solution {
	a := cnf.NewAssignment(len(varOf) - 1)
	for cv := 1; cv < len(varOf); cv++ {
		a.Set(cv, p.Get(varOf[cv]))
	}
	return e.EncodeAssignment(a)
}

// escalate grows V by one occurrence ring — every clause touching V joins
// the marked set and contributes its variables — then re-runs the closure
// fixpoint so the reservations stay consistent with the larger V.
func escalate(fPrime *cnf.Formula, p cnf.Assignment, simp SimplifyResult) SimplifyResult {
	inV := make([]bool, fPrime.NumVars+1)
	for _, v := range simp.Vars {
		inV[v] = true
	}
	marked := make([]bool, fPrime.NumClauses())
	for _, ci := range simp.Marked {
		marked[ci] = true
	}
	for ci, cl := range fPrime.Clauses {
		if marked[ci] {
			continue
		}
		touches := false
		for _, l := range cl {
			if inV[l.Var()] {
				touches = true
				break
			}
		}
		if touches {
			marked[ci] = true
			for _, l := range cl {
				inV[l.Var()] = true
			}
		}
	}
	return finishClosure(fPrime, p.Grow(fPrime.NumVars), inV, marked)
}
