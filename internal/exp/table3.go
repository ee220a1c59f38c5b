package exp

import (
	"fmt"

	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/encode"
	"ilpec/internal/gen"
	"ilpec/internal/heurilp"
	"ilpec/internal/ilp"
)

// Table3Row mirrors one row of the paper's Table 3: the percentage of the
// original assignment preserved by a plain re-solve versus the preserving-
// EC re-solve.
type Table3Row struct {
	Name        string
	Vars        int
	Clauses     int
	PctOriginal float64 // plain re-solve agreement with the original (%)
	PctWithEC   float64 // preserving-EC agreement (%)
	Trials      int
	Failed      int
	Heur        bool
	Err         string
}

// Table3Result carries the rows and the paper's average/median aggregates.
type Table3Result struct {
	Rows                           []Table3Row
	AvgOrig, MedOrig, AvgEC, MedEC float64
}

// RunTable3 regenerates Table 3: per instance, add & delete 5 variables
// and 5 clauses (screened to stay satisfiable), then compare preserved
// percentages of a plain re-solve vs preserving EC.
func RunTable3(p Profile) Table3Result {
	specs := gen.Small()
	if !p.SmallOnly {
		specs = gen.All()
	}
	var out Table3Result
	for _, spec := range specs {
		out.Rows = append(out.Rows, runTable3Row(gen.Scaled(spec, p.Scale), spec.Large, p))
	}
	var orig, ec []float64
	for _, r := range out.Rows {
		if r.Err != "" {
			continue
		}
		orig = append(orig, r.PctOriginal)
		ec = append(ec, r.PctWithEC)
	}
	out.AvgOrig, out.MedOrig = Mean(orig), Median(orig)
	out.AvgEC, out.MedEC = Mean(ec), Median(ec)
	return out
}

func runTable3Row(spec gen.Spec, heur bool, p Profile) Table3Row {
	row := Table3Row{Name: spec.Name, Heur: heur, Trials: p.Trials}
	f, _ := spec.Generate()
	row.Vars, row.Clauses = f.NumVars, f.NumClauses()

	// Initial solution (heuristic for the lower block, per the paper).
	e := encode.New(f)
	var pAsg cnf.Assignment
	if heur {
		res := heurilp.Solve(e.Model, heurilp.Options{Seed: spec.Seed, MaxFlips: p.HeurFlips})
		if !res.Feasible {
			row.Err = "original heuristic solve failed"
			return row
		}
		pAsg = e.Decode(res.Solution)
	} else {
		res := ilp.Solve(e.Model, ilp.Options{TimeLimit: p.ExactTimeLimit})
		if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
			row.Err = "original exact solve failed"
			return row
		}
		pAsg = e.Decode(res.Solution)
	}

	mut := gen.NewMutator(spec.Seed * 13)
	var sumOrig, sumEC float64
	okTrials := 0
	for trial := 0; trial < p.Trials; trial++ {
		plan, err := mut.Table3Changes(f, pAsg, 5, 5, 5, 5)
		if err != nil {
			row.Failed++
			continue
		}
		fPrime, err := core.Apply(f, plan.Changes)
		if err != nil {
			row.Failed++
			continue
		}
		// Baseline: complete recalculation with no EC goals. Solved from a
		// different deterministic angle (no warm start) so agreement is
		// whatever the objective happens to produce — the paper's
		// "% Solution Original" column.
		plain, _, err := core.PlainResolve(fPrime, ilp.Options{TimeLimit: p.ExactTimeLimit})
		if err != nil {
			row.Failed++
			continue
		}
		// Preserving EC under the default PreserveMaximize objective.
		pres, _, err := domain.Preserve(core.CNF(), fPrime, pAsg, ilp.Options{TimeLimit: p.ExactTimeLimit})
		if err != nil {
			row.Failed++
			continue
		}
		okTrials++
		sumOrig += plain.PreservedFraction(pAsg) * 100
		sumEC += pres.(cnf.Assignment).PreservedFraction(pAsg) * 100
	}
	if okTrials == 0 {
		row.Err = "all trials failed"
		return row
	}
	row.PctOriginal = sumOrig / float64(okTrials)
	row.PctWithEC = sumEC / float64(okTrials)
	return row
}

// Render produces the paper-style text table.
func (r Table3Result) Render() string {
	t := Table{
		Title:   "Table 3: Experimental Results for preserving EC on SAT",
		Headers: []string{"Instance", "#Vars", "#Clauses", "%Solution Original", "%Solution with EC"},
	}
	for _, row := range r.Rows {
		if row.Err != "" {
			t.Add(row.Name, fmt.Sprint(row.Vars), fmt.Sprint(row.Clauses), "-", "-")
			continue
		}
		t.Add(row.Name, fmt.Sprint(row.Vars), fmt.Sprint(row.Clauses),
			fmt.Sprintf("%.1f", row.PctOriginal), fmt.Sprintf("%.1f", row.PctWithEC))
	}
	t.Add("average", "-", "-", fmt.Sprintf("%.2f", r.AvgOrig), fmt.Sprintf("%.2f", r.AvgEC))
	t.Add("median", "-", "-", fmt.Sprintf("%.2f", r.MedOrig), fmt.Sprintf("%.2f", r.MedEC))
	return t.Render()
}
