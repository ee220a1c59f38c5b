package sched

import (
	"fmt"

	"ilpec/internal/ilp"
)

// addPreserveTerms replaces the compaction objective of an existing
// encoding with pure preservation against prev (the domain adapter's
// PreserveTerms).
func addPreserveTerms(e *Encoding, prev Schedule) {
	m, p := e.Model, e.Problem
	for o := 0; o < p.NumOps; o++ {
		for t := 0; t < p.Steps; t++ {
			m.SetObj(e.XCol(o, t), 0)
		}
	}
	for o := 0; o < p.NumOps && o < len(prev); o++ {
		if t := prev[o]; t >= 0 && t < p.Steps {
			m.SetObj(e.XCol(o, t), -1)
		}
	}
}

// SlackReport audits enabling-style flexibility of a schedule: an
// operation is flexible when it could move to at least one other step
// without violating dependencies or capacity (all other operations fixed).
type SlackReport struct {
	Total    int
	Flexible int
	// Rigid lists operations with no alternative step.
	Rigid []int
}

// VerifySlack counts per-operation move freedom under s.
func VerifySlack(p *Problem, s Schedule) SlackReport {
	r := SlackReport{Total: p.NumOps}
	use := make(map[[2]int]int)
	for o := 0; o < p.NumOps; o++ {
		use[[2]int{p.Type[o], s[o]}]++
	}
	for o := 0; o < p.NumOps; o++ {
		lo, hi := 0, p.Steps-1
		for _, d := range p.Deps {
			if d[1] == o && s[d[0]]+1 > lo {
				lo = s[d[0]] + 1
			}
			if d[0] == o && s[d[1]]-1 < hi {
				hi = s[d[1]] - 1
			}
		}
		movable := false
		for t := lo; t <= hi && !movable; t++ {
			if t == s[o] {
				continue
			}
			if use[[2]int{p.Type[o], t}] < p.Capacity[p.Type[o]] {
				movable = true
			}
		}
		if movable {
			r.Flexible++
		} else {
			r.Rigid = append(r.Rigid, o)
		}
	}
	return r
}

// SolveEnabled schedules with an enabling-style objective: in addition to
// compaction, each operation is rewarded (weight w) for having at least
// one spare slot — a feasible alternative step given the rest of the
// schedule. The construction mirrors the SAT support variables: s_{o,t}
// may be 1 only when x_{o,t} = 0, t is within a window that no dependency
// forbids outright, and the capacity row of (type(o), t) keeps one unit of
// headroom; flex_o ≤ Σ_t s_{o,t}.
func SolveEnabled(p *Problem, w float64, warm Schedule, opts ilp.Options) (Schedule, ilp.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, ilp.Result{}, err
	}
	if w <= 0 {
		w = 1
	}
	e := NewEncoding(p)
	addEnableTerms(e, w)
	if warm != nil {
		opts.WarmStart = e.EncodeSchedule(warm)
	}
	res := ilp.Solve(e.Model, opts)
	switch res.Status {
	case ilp.Optimal, ilp.Feasible:
		s := e.Decode(res.Solution)
		if !s.Valid(p) {
			return nil, res, fmt.Errorf("sched: enabled schedule invalid (internal error)")
		}
		return s, res, nil
	case ilp.Infeasible:
		return nil, res, fmt.Errorf("sched: no schedule within %d steps", p.Steps)
	default:
		return nil, res, fmt.Errorf("sched: enabled solve hit limits (%s)", res.Status)
	}
}

// addEnableTerms extends an existing encoding with the spare-slot reward
// construction of SolveEnabled (shared with the domain adapter).
func addEnableTerms(e *Encoding, w float64) {
	m, p := e.Model, e.Problem
	for o := 0; o < p.NumOps; o++ {
		var spares []ilp.Coef
		for t := 0; t < p.Steps; t++ {
			s := m.AddVar(fmt.Sprintf("s%d_%d", o, t), 0)
			// Spare only where the operation is not already placed.
			m.AddRow("", []ilp.Coef{{Var: s, Val: 1}, {Var: e.XCol(o, t), Val: 1}}, ilp.LE, 1)
			// Capacity headroom: occupancy of (type,t) by OTHER ops + s ≤ cap.
			coefs := []ilp.Coef{{Var: s, Val: 1}}
			for o2 := 0; o2 < p.NumOps; o2++ {
				if o2 != o && p.Type[o2] == p.Type[o] {
					coefs = append(coefs, ilp.Coef{Var: e.XCol(o2, t), Val: 1})
				}
			}
			m.AddRow("", coefs, ilp.LE, float64(p.Capacity[p.Type[o]]))
			spares = append(spares, ilp.Coef{Var: s, Val: 1})
		}
		flex := m.AddVar(fmt.Sprintf("flex_%d", o), -w)
		terms := append(append([]ilp.Coef(nil), spares...), ilp.Coef{Var: flex, Val: -1})
		m.AddRow(fmt.Sprintf("flexdef_%d", o), terms, ilp.GE, 0)
	}
}
