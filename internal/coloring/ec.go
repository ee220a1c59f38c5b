package coloring

import (
	"fmt"

	"ilpec/internal/ilp"
)

// This file adapts the three EC components to graph coloring, mirroring
// the SAT constructions of internal/core:
//
//   - enabling EC: every vertex should have a spare color — a color no
//     neighbor uses and the vertex itself does not use — so edge additions
//     can be absorbed by a local recolor (the coloring analogue of
//     2-satisfiability / flip support);
//   - fast EC: after edge additions, only the conflicted vertices and
//     their closure are re-colored (AffectedRegion in domain.go);
//   - preserving EC: re-solve under an objective that maximizes the number
//     of vertices keeping their color.

// SpareColors returns, for vertex v, the colors in 1..k unused by v and by
// all of v's neighbors.
func SpareColors(g *Graph, col Coloring, v, k int) []int {
	used := make([]bool, k+1)
	if c := col[v]; c >= 1 && c <= k {
		used[c] = true
	}
	for _, u := range g.Neighbors(v) {
		if c := col[u]; c >= 1 && c <= k {
			used[c] = true
		}
	}
	var out []int
	for c := 1; c <= k; c++ {
		if !used[c] {
			out = append(out, c)
		}
	}
	return out
}

// FlexReport audits the enabling goal: the number of vertices with at
// least one spare color.
type FlexReport struct {
	Total     int
	WithSpare int
	// Inflexible lists vertices with no spare color.
	Inflexible []int
}

// VerifyFlexibility counts spare-color coverage of a coloring.
func VerifyFlexibility(g *Graph, col Coloring, k int) FlexReport {
	r := FlexReport{Total: g.N}
	for v := 1; v <= g.N; v++ {
		if len(SpareColors(g, col, v, k)) > 0 {
			r.WithSpare++
		} else {
			r.Inflexible = append(r.Inflexible, v)
		}
	}
	return r
}

// BuildEnable extends the k-coloring ILP with spare-color variables: s_{v,c}
// = 1 indicates color c is spare at v (neither v nor any neighbor uses it).
// The objective rewards each vertex that has some spare color with weight w
// (the objective-mode analogue of §5; a hard variant adds per-vertex rows).
func BuildEnable(g *Graph, k int, hard bool, w float64) *Encoding {
	e := NewEncoding(g, k)
	addEnableTerms(e, hard, w)
	return e
}

// addEnableTerms extends an existing coloring encoding with the
// spare-color variables and flexibility rewards (shared by BuildEnable
// and the domain adapter).
func addEnableTerms(e *Encoding, hard bool, w float64) {
	g, k := e.Graph, e.K
	m := e.Model
	if w <= 0 {
		w = 1
	}
	for v := 1; v <= g.N; v++ {
		var spareTerms []ilp.Coef
		for c := 1; c <= k; c++ {
			s := m.AddVar(fmt.Sprintf("s%d_%d", v, c), 0)
			// s ≤ 1 - x_{v,c} and s ≤ 1 - x_{u,c} for neighbors u.
			m.AddRow("", []ilp.Coef{{Var: s, Val: 1}, {Var: e.XCol(v, c), Val: 1}}, ilp.LE, 1)
			for _, u := range g.Neighbors(v) {
				m.AddRow("", []ilp.Coef{{Var: s, Val: 1}, {Var: e.XCol(u, c), Val: 1}}, ilp.LE, 1)
			}
			spareTerms = append(spareTerms, ilp.Coef{Var: s, Val: 1})
		}
		if hard {
			m.AddRow(fmt.Sprintf("spare_%d", v), spareTerms, ilp.GE, 1)
		} else {
			fv := m.AddVar(fmt.Sprintf("flex_%d", v), -w)
			terms := append(append([]ilp.Coef(nil), spareTerms...), ilp.Coef{Var: fv, Val: -1})
			m.AddRow(fmt.Sprintf("flexdef_%d", v), terms, ilp.GE, 0)
		}
	}
}

// SolveEnable colors g with spare-color flexibility. hard requires a spare
// at every vertex; otherwise flexibility is a weighted objective. warm,
// when non-nil, guides branching toward an existing coloring.
func SolveEnable(g *Graph, k int, hard bool, w float64, warm Coloring, opts ilp.Options) (Coloring, ilp.Result, error) {
	e := BuildEnable(g, k, hard, w)
	if warm != nil {
		// EncodeColoring sizes to the extended model: support and
		// flexibility columns stay 0 and merely guide branching.
		opts.WarmStart = e.EncodeColoring(warm)
	}
	res := ilp.Solve(e.Model, opts)
	switch res.Status {
	case ilp.Optimal, ilp.Feasible:
		col := e.Decode(res.Solution)
		if !col.Valid(g, k) {
			return nil, res, fmt.Errorf("coloring: enabled coloring invalid (internal error)")
		}
		return col, res, nil
	case ilp.Infeasible:
		return nil, res, fmt.Errorf("coloring: enabling infeasible for k=%d", k)
	default:
		return nil, res, fmt.Errorf("coloring: enabling solve hit limits (%s)", res.Status)
	}
}

// addPreserveTerms replaces the palette-minimizing objective of an
// existing encoding with pure preservation against prev (the domain
// adapter's PreserveTerms).
func addPreserveTerms(e *Encoding, prev Coloring) {
	m, g, k := e.Model, e.Graph, e.K
	for c := 1; c <= k; c++ {
		m.SetObj(e.YCol(c), 0)
	}
	for v := 1; v <= g.N && v < len(prev); v++ {
		if c := prev[v]; c >= 1 && c <= k {
			m.SetObj(e.XCol(v, c), -1) // maximize matches
		}
	}
}
