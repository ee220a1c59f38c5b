package lp

// rebuildEvery bounds numerical drift on a long-lived tableau: after this
// many warm solves the tableau is refactorized from the problem data.
const rebuildEvery = 64

// Solver re-solves one Problem whose variable bounds or right-hand sides
// change between calls — the branch-and-bound node pattern and the
// ilp.Instance delta pattern. Neither mutation touches the constraint
// matrix, so the simplex tableau and basis from the previous solve stay
// valid and each call warm-starts from them instead of the all-slack
// basis (RHS edits are absorbed as slack-bound shifts; see
// simplex.refreshBounds). Mutate with Problem.SetBounds / Problem.SetRHS
// between calls. Structural edits (added variables or rows) are detected
// by dimension and fall back to a cold reinstall on the grown problem.
type Solver struct {
	p     *Problem
	s     *simplex
	age   int // warm solves since the last refactorization
	armed bool

	// WarmHits counts solves that reused the previous basis.
	WarmHits int64
}

// NewSolver returns a reusable warm-starting solver over p.
func NewSolver(p *Problem) *Solver {
	return &Solver{p: p}
}

// Solve optimizes the problem under its current bounds, warm-starting from
// the previous basis when one exists.
func (w *Solver) Solve() Result {
	warm := false
	switch {
	case w.s == nil || w.s.m != len(w.p.rows) || w.s.n != len(w.p.obj):
		w.s = newSimplex(w.p)
		w.s.install(w.p)
		w.age = 0
	case !w.armed || w.age >= rebuildEvery:
		w.s.install(w.p)
		w.age = 0
	default:
		w.s.refreshBounds(w.p)
		w.age++
		warm = true
	}
	res := w.s.run(w.p, 0)
	if warm {
		if res.Status == Optimal {
			w.WarmHits++
		} else {
			// A drifted tableau can stall the warm path — or, worse, report
			// a spurious Infeasible that a branch-and-bound caller would
			// turn into a wrong prune. Refactorize and confirm cold before
			// reporting anything but Optimal; such a solve is not a warm hit.
			w.s.install(w.p)
			w.age = 0
			res = w.s.run(w.p, 0)
		}
	}
	w.armed = res.Status == Optimal || res.Status == Infeasible
	return res
}
