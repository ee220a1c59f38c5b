package exp

import (
	"fmt"
	"time"

	"ilpec/internal/coloring"
	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// ColoringRow reports the EC methodology on one graph-coloring instance —
// the second application domain the paper points to in §8. Columns follow
// the SAT tables: agreement of a plain re-color vs preserving EC, the fast
// EC region size, and spare-color coverage before/after enabling EC.
type ColoringRow struct {
	Name        string
	Vertices    int
	Edges       int
	K           int
	PctReplan   float64 // plain re-solve agreement after the change (%)
	PctFast     float64 // fast-EC agreement (%)
	PctPreserve float64 // preserving-EC agreement (%)
	FastRegion  float64 // mean recolored vertices per change
	SpareBase   int     // vertices with a spare color, plain coloring
	SpareEC     int     // vertices with a spare color, enabled coloring
	Trials      int
	Failed      int
	Err         string
}

// coloringSpec defines the sweep instances (planted-colorable graphs of
// growing size; deterministic seeds).
type coloringSpec struct {
	name    string
	n, k    int
	p       float64
	seed    int64
	changes int
}

func coloringSpecs(p Profile) []coloringSpec {
	specs := []coloringSpec{
		{"gc30.4", 30, 4, 0.35, 11, 2},
		{"gc40.5", 40, 5, 0.35, 13, 2},
		{"gc60.5", 60, 5, 0.25, 17, 3},
	}
	if p.SmallOnly {
		return specs[:2]
	}
	return specs
}

// RunColoring sweeps the EC components over graph-coloring instances.
func RunColoring(p Profile) []ColoringRow {
	var out []ColoringRow
	for _, spec := range coloringSpecs(p) {
		out = append(out, runColoringRow(spec, p))
	}
	return out
}

func runColoringRow(spec coloringSpec, p Profile) ColoringRow {
	row := ColoringRow{Name: spec.name, K: spec.k, Trials: p.Trials}
	g, plantedInts := coloring.PlantedColorable(spec.n, spec.k, spec.p, spec.seed)
	row.Vertices, row.Edges = g.N, g.NumEdges()
	opts := ilp.Options{TimeLimit: p.ExactTimeLimit}

	// Solve with one spare color beyond the planted chromatic bound: the
	// minimizing objective still prefers k colors, and the slack is the
	// design margin that lets EC absorb added edges.
	kk := spec.k + 1
	row.K = kk
	base, _, err := coloring.SolveExact(g, kk, coloring.Coloring(plantedInts), opts)
	if err != nil {
		row.Err = "base coloring failed"
		return row
	}
	row.SpareBase = coloring.VerifyFlexibility(g, base, kk).WithSpare
	if enabled, _, err := coloring.SolveEnable(g, kk, false, 2, base, opts); err == nil {
		row.SpareEC = coloring.VerifyFlexibility(g, enabled, kk).WithSpare
	}

	var repl, fast, pres, region float64
	ok := 0
	for trial := 0; trial < p.Trials; trial++ {
		changed := g.Clone()
		added := 0
		// Deterministically add conflicting edges (walk offset per trial).
		for u := 1; u <= g.N && added < spec.changes; u++ {
			for v := u + 1 + trial; v <= g.N && added < spec.changes; v++ {
				if base[u] == base[v] && !changed.HasEdge(u, v) {
					changed.AddEdge(u, v)
					added++
				}
			}
		}
		if added == 0 {
			continue
		}
		replan, _, err := coloring.SolveExact(changed, kk, nil, opts)
		if err != nil {
			row.Failed++
			continue
		}
		problem := &coloring.Problem{G: changed, K: kk}
		fcol, fstats, err := domain.Fast(coloring.Domain(), problem, base, domain.FastOptions{Solve: opts})
		if err != nil {
			row.Failed++
			continue
		}
		pcol, _, err := domain.Preserve(coloring.Domain(), problem, base, opts)
		if err != nil {
			row.Failed++
			continue
		}
		ok++
		repl += replan.Agreement(base) * 100
		fast += fcol.(coloring.Coloring).Agreement(base) * 100
		pres += pcol.(coloring.Coloring).Agreement(base) * 100
		region += float64(fstats.SubSize)
	}
	if ok == 0 {
		row.Err = "no effective trials"
		return row
	}
	row.PctReplan = repl / float64(ok)
	row.PctFast = fast / float64(ok)
	row.PctPreserve = pres / float64(ok)
	row.FastRegion = region / float64(ok)
	return row
}

// RenderColoring renders the coloring sweep.
func RenderColoring(rows []ColoringRow) string {
	t := Table{
		Title: "Graph coloring: EC methodology on the second application domain",
		Headers: []string{"Instance", "V/E/k", "%Replan", "%Fast", "%Preserve",
			"Fast region", "Spare base→EC"},
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Add(r.Name, fmt.Sprintf("%d/%d/%d", r.Vertices, r.Edges, r.K), "-", "-", "-", "-", "-")
			continue
		}
		t.Add(r.Name, fmt.Sprintf("%d/%d/%d", r.Vertices, r.Edges, r.K),
			fmt.Sprintf("%.1f", r.PctReplan),
			fmt.Sprintf("%.1f", r.PctFast),
			fmt.Sprintf("%.1f", r.PctPreserve),
			fmt.Sprintf("%.1f", r.FastRegion),
			fmt.Sprintf("%d→%d", r.SpareBase, r.SpareEC))
	}
	return t.Render()
}

// ColoringTimings measures replan vs fast-EC wall-clock on one instance
// (supplementary figure data).
func ColoringTimings(spec0 string, p Profile) (replan, fast time.Duration, err error) {
	for _, spec := range coloringSpecs(p) {
		if spec.name != spec0 {
			continue
		}
		g, plantedInts := coloring.PlantedColorable(spec.n, spec.k, spec.p, spec.seed)
		opts := ilp.Options{TimeLimit: p.ExactTimeLimit}
		kk := spec.k + 1
		base, _, berr := coloring.SolveExact(g, kk, coloring.Coloring(plantedInts), opts)
		if berr != nil {
			return 0, 0, berr
		}
		changed := g.Clone()
		for u := 1; u <= g.N; u++ {
			done := false
			for v := u + 1; v <= g.N; v++ {
				if base[u] == base[v] && !changed.HasEdge(u, v) {
					changed.AddEdge(u, v)
					done = true
					break
				}
			}
			if done {
				break
			}
		}
		t0 := time.Now()
		if _, _, err := coloring.SolveExact(changed, kk, nil, opts); err != nil {
			return 0, 0, err
		}
		replan = time.Since(t0)
		t0 = time.Now()
		problem := &coloring.Problem{G: changed, K: kk}
		if _, _, err := domain.Fast(coloring.Domain(), problem, base, domain.FastOptions{Solve: opts}); err != nil {
			return 0, 0, err
		}
		fast = time.Since(t0)
		return replan, fast, nil
	}
	return 0, 0, fmt.Errorf("exp: unknown coloring spec %q", spec0)
}
