package core

import (
	"fmt"

	"ilpec/internal/cnf"
	"ilpec/internal/encode"
	"ilpec/internal/ilp"
)

// PreserveMode selects the §7 preservation flavor.
type PreserveMode int

const (
	// PreserveMaximize re-solves under an objective that maximizes the
	// number of variable assignments identical to the original solution —
	// the paper's Z_i = p_i·x_i + p_{n+i}·x_{n+i} objective.
	PreserveMaximize PreserveMode = iota
	// PreserveHard keeps a user-specified set of variables at their
	// original values as hard constraints, optimizing the base set-cover
	// objective over the rest.
	PreserveHard
	// PreserveWeighted combines the base objective (minimize committed
	// literals) with a weighted preservation reward.
	PreserveWeighted
)

// String renders the mode.
func (m PreserveMode) String() string {
	switch m {
	case PreserveHard:
		return "hard"
	case PreserveWeighted:
		return "weighted"
	default:
		return "maximize"
	}
}

// PreserveOptions configures preserving EC.
type PreserveOptions struct {
	// Mode selects the preservation flavor.
	Mode PreserveMode
	// Protected lists the variables whose original values are hard
	// constraints (PreserveHard mode).
	Protected []int
	// Weight is the reward per preserved variable in PreserveWeighted mode
	// (default 2, so preservation dominates the unit commitment cost).
	Weight float64
}

// applyPreserveTerms rewrites an existing set-cover encoding into the §7
// preservation form (the CNF adapter's PreserveTerms).
func applyPreserveTerms(e *encode.Encoding, fPrime *cnf.Formula, p cnf.Assignment, opts PreserveOptions) error {
	m := e.Model
	p = p.Grow(fPrime.NumVars)
	switch opts.Mode {
	case PreserveMaximize:
		// Pure preservation objective: reward selecting the literal column
		// matching p; other columns are free.
		for j := 0; j < m.NumVars(); j++ {
			m.SetObj(j, 0)
		}
		for v := 1; v <= fPrime.NumVars; v++ {
			switch p.Get(v) {
			case cnf.True:
				m.SetObj(e.PosCol(v), -1) // minimize -Σ matched = maximize matches
			case cnf.False:
				m.SetObj(e.NegCol(v), -1)
			}
		}
	case PreserveWeighted:
		w := opts.Weight
		if w <= 0 {
			w = 2
		}
		for v := 1; v <= fPrime.NumVars; v++ {
			switch p.Get(v) {
			case cnf.True:
				m.SetObj(e.PosCol(v), 1-w)
			case cnf.False:
				m.SetObj(e.NegCol(v), 1-w)
			}
		}
	case PreserveHard:
		for _, v := range opts.Protected {
			if v < 1 || v > fPrime.NumVars {
				return fmt.Errorf("core: protected variable %d out of range", v)
			}
			switch p.Get(v) {
			case cnf.True:
				m.AddRow(fmt.Sprintf("keep_%d", v), []ilp.Coef{{Var: e.PosCol(v), Val: 1}}, ilp.GE, 1)
			case cnf.False:
				m.AddRow(fmt.Sprintf("keep_%d", v), []ilp.Coef{{Var: e.NegCol(v), Val: 1}}, ilp.GE, 1)
			default:
				// Protecting a don't-care keeps it unselected in both
				// polarities, preserving downstream freedom.
				m.AddRow(fmt.Sprintf("keep_%d", v),
					[]ilp.Coef{{Var: e.PosCol(v), Val: 1}, {Var: e.NegCol(v), Val: 1}}, ilp.LE, 0)
			}
		}
	default:
		return fmt.Errorf("core: unknown preserve mode %d", opts.Mode)
	}
	return nil
}

// PlainResolve re-solves the changed instance with the base set-cover
// objective and no preservation bias — the "complete recalculation with no
// EC goals" baseline of Table 3.
func PlainResolve(fPrime *cnf.Formula, opts ilp.Options) (cnf.Assignment, ilp.Result, error) {
	if fPrime.HasEmptyClause() {
		return nil, ilp.Result{}, fmt.Errorf("core: formula contains an empty clause (unsatisfiable)")
	}
	e := encode.New(fPrime)
	res := ilp.Solve(e.Model, opts)
	switch res.Status {
	case ilp.Optimal, ilp.Feasible:
		a := e.Decode(res.Solution)
		if !a.Satisfies(fPrime) {
			return nil, res, fmt.Errorf("core: decoded solution does not satisfy the formula (internal error)")
		}
		return a, res, nil
	case ilp.Infeasible:
		return nil, res, fmt.Errorf("core: formula is unsatisfiable")
	default:
		return nil, res, fmt.Errorf("core: solve hit limits (%s)", res.Status)
	}
}
