package exp

import (
	"fmt"
	"time"

	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/encode"
	"ilpec/internal/gen"
	"ilpec/internal/ilp"
)

// AblationRow compares two solver configurations on one instance.
type AblationRow struct {
	Name     string
	Instance string
	// A and B label the two arms; NodesA/NodesB and TimeA/TimeB carry the
	// branch-and-bound effort of each.
	A, B           string
	NodesA, NodesB int64
	TimeA, TimeB   time.Duration
	Err            string
}

// RunAblations measures the design-choice ablations of DESIGN.md §5 that
// reduce to two-arm comparisons: warm-start vs cold EC re-solve, covering
// bound + greedy branching vs LP bounding, and fast EC vs full re-solve.
func RunAblations(p Profile) []AblationRow {
	var out []AblationRow
	spec := gen.Scaled(mustSpec("ii8a1"), p.Scale)
	f, _ := spec.Generate()
	opts := ilp.Options{TimeLimit: p.ExactTimeLimit}

	// Arm 1: warm vs cold on a preserving-EC style re-solve.
	row := AblationRow{Name: "warm-start", Instance: spec.Name, A: "warm", B: "cold"}
	pAsg, _, err := core.PlainResolve(f, opts)
	if err != nil {
		row.Err = err.Error()
		out = append(out, row)
	} else {
		mut := gen.NewMutator(spec.Seed * 41)
		plan, merr := mut.Table3Changes(f, pAsg, 2, 2, 3, 2)
		if merr != nil {
			row.Err = merr.Error()
			out = append(out, row)
		} else {
			fPrime, _ := core.Apply(f, plan.Changes)
			e := encode.New(fPrime)
			warmOpts := opts
			warmOpts.WarmStart = e.EncodeAssignment(pAsg.Grow(fPrime.NumVars))
			t0 := time.Now()
			ra := ilp.Solve(e.Model, warmOpts)
			row.TimeA = time.Since(t0)
			row.NodesA = ra.Nodes
			t0 = time.Now()
			rb := ilp.Solve(e.Model, opts)
			row.TimeB = time.Since(t0)
			row.NodesB = rb.Nodes
			out = append(out, row)
		}
	}

	// Arm 2: covering bound (default) vs LP-relaxation bounding.
	row2 := AblationRow{Name: "bounding", Instance: spec.Name, A: "cover", B: "lp"}
	e := encode.New(f)
	t0 := time.Now()
	ra := ilp.Solve(e.Model, ilp.Options{Bounding: ilp.CombBound, TimeLimit: p.ExactTimeLimit})
	row2.TimeA = time.Since(t0)
	row2.NodesA = ra.Nodes
	t0 = time.Now()
	rb := ilp.Solve(e.Model, ilp.Options{Bounding: ilp.LPBound, TimeLimit: p.ExactTimeLimit})
	row2.TimeB = time.Since(t0)
	row2.NodesB = rb.Nodes
	out = append(out, row2)

	// Arm 3: fast EC vs full re-solve on a small change.
	row3 := AblationRow{Name: "fast-vs-full", Instance: spec.Name, A: "fast", B: "full"}
	if pAsg != nil {
		mut := gen.NewMutator(spec.Seed * 43)
		elim, add := mutationSizes(f.NumVars, f.NumClauses())
		plan, merr := mut.Table2Changes(f, pAsg, elim, add)
		if merr != nil {
			row3.Err = merr.Error()
		} else {
			fPrime, _ := core.Apply(f, plan.Changes)
			t0 = time.Now()
			d := core.CNFWith(core.CNFOptions{Fast: core.FastOptions{Minimal: true}})
			_, fstats, ferr := domain.Fast(d, fPrime, pAsg, domain.FastOptions{Solve: opts})
			row3.TimeA = time.Since(t0)
			if ferr == nil {
				row3.NodesA = fstats.ILP.Nodes
			}
			t0 = time.Now()
			_, full, perr := core.PlainResolve(fPrime, opts)
			row3.TimeB = time.Since(t0)
			if perr == nil {
				row3.NodesB = full.Nodes
			}
		}
	}
	out = append(out, row3)

	// Arm 4: presolve + cut separation vs the raw kernel on the base
	// encoding (the PR-4 reduction layer).
	row4 := AblationRow{Name: "presolve", Instance: spec.Name, A: "presolve+cuts", B: "raw"}
	preOpts := opts
	preOpts.Presolve = true
	preOpts.Cuts = true
	t0 = time.Now()
	rp := ilp.Solve(e.Model, preOpts)
	row4.TimeA = time.Since(t0)
	row4.NodesA = rp.Nodes
	t0 = time.Now()
	rr := ilp.Solve(e.Model, opts)
	row4.TimeB = time.Since(t0)
	row4.NodesB = rr.Nodes
	if rp.Status != rr.Status {
		row4.Err = fmt.Sprintf("status mismatch: %v vs %v", rp.Status, rr.Status)
	}
	out = append(out, row4)
	return out
}

func mustSpec(name string) gen.Spec {
	s, ok := gen.ByName(name)
	if !ok {
		panic("exp: unknown spec " + name)
	}
	return s
}

// RenderAblations renders the two-arm comparisons.
func RenderAblations(rows []AblationRow) string {
	t := Table{
		Title:   "Ablations: design-choice comparisons (DESIGN.md §5)",
		Headers: []string{"Ablation", "Instance", "Arm A", "Nodes/Time A", "Arm B", "Nodes/Time B"},
	}
	for _, r := range rows {
		if r.Err != "" {
			t.Add(r.Name, r.Instance, r.A, "-", r.B, "-")
			continue
		}
		t.Add(r.Name, r.Instance,
			r.A, fmt.Sprintf("%d / %s", r.NodesA, Seconds(r.TimeA)),
			r.B, fmt.Sprintf("%d / %s", r.NodesB, Seconds(r.TimeB)))
	}
	return t.Render()
}
