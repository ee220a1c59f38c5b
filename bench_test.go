package ilpec_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§8), plus ablation benches isolating each solver feature
// (bounding, branching, warm starts, fast-vs-full EC, preserve modes).
//
// The benches run on scaled-down instances of the same families (see
// internal/gen); the full-size tables are regenerated by cmd/ectables.
// Run with: go test -bench=. -benchmem

import (
	"testing"
	"time"

	"ilpec"
	"ilpec/internal/cnf"
	"ilpec/internal/coloring"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/encode"
	"ilpec/internal/gen"
	"ilpec/internal/heurilp"
	"ilpec/internal/ilp"
)

// plantedGraph is the shared graph for the coloring EC benches.
func plantedGraph() (*ilpec.Graph, []int) {
	return coloring.PlantedColorable(30, 5, 0.35, 11)
}

// benchScale shrinks the paper instances to benchmark-friendly sizes.
const benchScale = 0.08

// benchSolveLimit caps each exact solve inside a benchmark iteration so a
// single hard model cannot stall the whole harness; time-limited solves
// report Feasible and are accepted by the benchmarks.
const benchSolveLimit = 15 * time.Second

func benchSpec(b *testing.B, name string) (*cnf.Formula, cnf.Assignment, gen.Spec) {
	b.Helper()
	spec0, ok := gen.ByName(name)
	if !ok {
		b.Fatalf("unknown instance %s", name)
	}
	spec := gen.Scaled(spec0, benchScale)
	f, plant := spec.Generate()
	return f, plant, spec
}

func solved(b *testing.B, f *cnf.Formula) cnf.Assignment {
	b.Helper()
	a, _, err := core.PlainResolve(f, ilp.Options{TimeLimit: benchSolveLimit})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// ---- Table 1: enabling EC -------------------------------------------------

func benchTable1(b *testing.B, name string, mode core.EnableMode) {
	f, _, _ := benchSpec(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em := core.BuildEnable(f, core.EnableOptions{Mode: mode})
		res := ilp.Solve(em.Encoding.Model, ilp.Options{TimeLimit: benchSolveLimit})
		if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
			b.Fatalf("status %v", res.Status)
		}
	}
}

func BenchmarkTable1Original(b *testing.B) {
	for _, name := range []string{"par8-1-c", "ii8a1", "jnh1"} {
		b.Run(name, func(b *testing.B) {
			f, _, _ := benchSpec(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := encode.New(f)
				res := ilp.Solve(e.Model, ilp.Options{TimeLimit: benchSolveLimit})
				if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
					b.Fatalf("status %v", res.Status)
				}
			}
		})
	}
}

func BenchmarkTable1EnableSC(b *testing.B) {
	for _, name := range []string{"par8-1-c", "ii8a1", "jnh1"} {
		b.Run(name, func(b *testing.B) { benchTable1(b, name, core.EnableConstraints) })
	}
}

func BenchmarkTable1EnableOF(b *testing.B) {
	for _, name := range []string{"par8-1-c", "ii8a1", "jnh1"} {
		b.Run(name, func(b *testing.B) { benchTable1(b, name, core.EnableObjective) })
	}
}

// BenchmarkTable1HeuristicBlock mirrors the table's lower block: the
// heuristic ILP solver on a larger instance.
func BenchmarkTable1HeuristicBlock(b *testing.B) {
	f, _, spec := benchSpec(b, "par32-5-c")
	e := encode.New(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := heurilp.Solve(e.Model, heurilp.Options{Seed: spec.Seed, MaxFlips: 50_000})
		if !res.Feasible {
			b.Fatal("heuristic found no solution")
		}
	}
}

// ---- Table 2: fast EC --------------------------------------------------------

func BenchmarkTable2FastEC(b *testing.B) {
	for _, name := range []string{"par8-1-c", "ii8a1", "jnh1", "f600"} {
		b.Run(name, func(b *testing.B) {
			f, _, spec := benchSpec(b, name)
			p := solved(b, f)
			mut := gen.NewMutator(spec.Seed * 7)
			plan, err := mut.Table2Changes(f, p, 2, 5)
			if err != nil {
				b.Fatal(err)
			}
			fPrime, err := core.Apply(f, plan.Changes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := domain.Fast(core.CNF(), fPrime, p, domain.FastOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if !stats.AlreadyValid && stats.SubSize == 0 {
					b.Fatal("empty sub-instance")
				}
			}
		})
	}
}

// BenchmarkTable2FullResolve is the Table-2 denominator: re-solving the
// changed instance from scratch.
func BenchmarkTable2FullResolve(b *testing.B) {
	for _, name := range []string{"par8-1-c", "ii8a1", "jnh1", "f600"} {
		b.Run(name, func(b *testing.B) {
			f, _, spec := benchSpec(b, name)
			p := solved(b, f)
			mut := gen.NewMutator(spec.Seed * 7)
			plan, err := mut.Table2Changes(f, p, 2, 5)
			if err != nil {
				b.Fatal(err)
			}
			fPrime, err := core.Apply(f, plan.Changes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.PlainResolve(fPrime, ilp.Options{TimeLimit: benchSolveLimit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 3: preserving EC ---------------------------------------------------

func BenchmarkTable3Preserve(b *testing.B) {
	for _, name := range []string{"par8-1-c", "ii8a1", "jnh1"} {
		b.Run(name, func(b *testing.B) {
			f, _, spec := benchSpec(b, name)
			p := solved(b, f)
			mut := gen.NewMutator(spec.Seed * 13)
			plan, err := mut.Table3Changes(f, p, 5, 5, 5, 5)
			if err != nil {
				b.Fatal(err)
			}
			fPrime, err := core.Apply(f, plan.Changes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, _, err := domain.Preserve(core.CNF(), fPrime, p, ilp.Options{TimeLimit: benchSolveLimit})
				if err != nil {
					b.Fatal(err)
				}
				if sol.(cnf.Assignment).PreservedFraction(p) < 0 {
					b.Fatal("bogus preservation")
				}
			}
		})
	}
}

// ---- Figure 1: the generic flow -------------------------------------------------

func BenchmarkFigure1Flow(b *testing.B) {
	f, _, spec := benchSpec(b, "ii8a1")
	mut := gen.NewMutator(spec.Seed * 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl := core.NewFlow(f, core.FlowOptions{
			Enable: &core.EnableOptions{Mode: core.EnableObjective},
			Exact:  ilp.Options{TimeLimit: benchSolveLimit},
		})
		if _, err := fl.Solve(); err != nil {
			b.Fatal(err)
		}
		plan, err := mut.Table2Changes(fl.Formula(), fl.Solution(), 1, 3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fl.ApplyChange(plan.Changes, core.FastEC); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 2: the simplification closure -----------------------------------------

func BenchmarkFigure2Simplify(b *testing.B) {
	for _, name := range []string{"par8-1-c", "jnh1", "f600"} {
		b.Run(name, func(b *testing.B) {
			f, _, spec := benchSpec(b, name)
			p := solved(b, f)
			mut := gen.NewMutator(spec.Seed * 3)
			plan, err := mut.Table2Changes(f, p, 2, 5)
			if err != nil {
				b.Fatal(err)
			}
			fPrime, err := core.Apply(f, plan.Changes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				simp := core.Simplify(fPrime, p)
				if simp.AlreadySatisfied {
					b.Fatal("mutation did not invalidate p")
				}
			}
		})
	}
}

// ---- ablations -----------------------------------------------------------

func ablationModel(b *testing.B) *ilp.Model {
	b.Helper()
	f, _, _ := benchSpec(b, "ii8a1")
	return encode.New(f).Model
}

func BenchmarkAblationBounding(b *testing.B) {
	for _, mode := range []struct {
		name string
		bnd  ilp.Bounding
	}{{"comb", ilp.CombBound}, {"lp", ilp.LPBound}} {
		b.Run(mode.name, func(b *testing.B) {
			m := ablationModel(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := ilp.Solve(m, ilp.Options{Bounding: mode.bnd, TimeLimit: benchSolveLimit})
				if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
					b.Fatalf("status %v", res.Status)
				}
			}
		})
	}
}

func BenchmarkAblationBranching(b *testing.B) {
	for _, rule := range []struct {
		name string
		br   ilp.Branching
	}{
		{"cover-greedy", ilp.BranchCoverGreedy},
		{"max-obj", ilp.BranchMaxObj},
		{"most-constrained", ilp.BranchMostConstrained},
	} {
		b.Run(rule.name, func(b *testing.B) {
			f, _, _ := benchSpec(b, "par8-1-c")
			m := encode.New(f).Model
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := ilp.Solve(m, ilp.Options{Branching: rule.br, TimeLimit: benchSolveLimit, MaxNodes: 2_000_000})
				if res.Status == ilp.Infeasible {
					b.Fatal("planted instance reported infeasible")
				}
			}
		})
	}
}

func BenchmarkAblationWarmStart(b *testing.B) {
	f, _, spec := benchSpec(b, "ii8a1")
	p := solved(b, f)
	mut := gen.NewMutator(spec.Seed * 29)
	plan, err := mut.Table3Changes(f, p, 2, 2, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	fPrime, err := core.Apply(f, plan.Changes)
	if err != nil {
		b.Fatal(err)
	}
	e := encode.New(fPrime)
	warm := e.EncodeAssignment(p.Grow(fPrime.NumVars))
	for _, withWarm := range []bool{true, false} {
		name := "cold"
		if withWarm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := ilp.Options{TimeLimit: benchSolveLimit}
				if withWarm {
					opts.WarmStart = warm
				}
				res := ilp.Solve(e.Model, opts)
				if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
					b.Fatalf("status %v", res.Status)
				}
			}
		})
	}
}

func BenchmarkAblationEnableK(b *testing.B) {
	for _, k := range []int{2, 3} {
		b.Run(map[int]string{2: "k2", 3: "k3"}[k], func(b *testing.B) {
			f, _, _ := benchSpec(b, "par8-1-c")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				em := core.BuildEnable(f, core.EnableOptions{Mode: core.EnableObjective, K: k})
				res := ilp.Solve(em.Encoding.Model, ilp.Options{TimeLimit: benchSolveLimit})
				if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
					b.Fatalf("status %v", res.Status)
				}
			}
		})
	}
}

// BenchmarkAblationFastVsFull sweeps the change size to expose the
// crossover where fast EC stops paying off.
func BenchmarkAblationFastVsFull(b *testing.B) {
	for _, addClauses := range []int{2, 8, 24} {
		name := map[int]string{2: "small-change", 8: "medium-change", 24: "large-change"}[addClauses]
		b.Run("fast/"+name, func(b *testing.B) {
			f, _, spec := benchSpec(b, "f600")
			p := solved(b, f)
			plan, err := gen.NewMutator(spec.Seed*31).Table2Changes(f, p, 1, addClauses)
			if err != nil {
				b.Fatal(err)
			}
			fPrime, err := core.Apply(f, plan.Changes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := domain.Fast(core.CNF(), fPrime, p, domain.FastOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("full/"+name, func(b *testing.B) {
			f, _, spec := benchSpec(b, "f600")
			p := solved(b, f)
			plan, err := gen.NewMutator(spec.Seed*31).Table2Changes(f, p, 1, addClauses)
			if err != nil {
				b.Fatal(err)
			}
			fPrime, err := core.Apply(f, plan.Changes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.PlainResolve(fPrime, ilp.Options{TimeLimit: benchSolveLimit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationPreserveMode(b *testing.B) {
	f, _, spec := benchSpec(b, "ii8a1")
	p := solved(b, f)
	plan, err := gen.NewMutator(spec.Seed*37).Table3Changes(f, p, 2, 2, 3, 2)
	if err != nil {
		b.Fatal(err)
	}
	fPrime, err := core.Apply(f, plan.Changes)
	if err != nil {
		b.Fatal(err)
	}
	protect := []int{}
	for v := 1; v <= fPrime.NumVars && len(protect) < 5; v++ {
		if p.Get(v) != cnf.Unassigned {
			protect = append(protect, v)
		}
	}
	modes := []struct {
		name string
		opts core.PreserveOptions
	}{
		{"maximize", core.PreserveOptions{Mode: core.PreserveMaximize}},
		{"weighted", core.PreserveOptions{Mode: core.PreserveWeighted, Weight: 2}},
		{"hard", core.PreserveOptions{Mode: core.PreserveHard, Protected: protect}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			d := core.CNFWith(core.CNFOptions{Preserve: m.opts})
			for i := 0; i < b.N; i++ {
				if _, _, err := domain.Preserve(d, fPrime, p, ilp.Options{TimeLimit: benchSolveLimit}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- coloring application benches ---------------------------------------------------

func BenchmarkColoringECFast(b *testing.B) {
	g, planted := benchColoringChange(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, _, err := ilpec.FastResolveDomain(ilpec.ColoringDomain(), &ilpec.ColoringProblem{G: g, K: 5}, planted, ilp.Options{TimeLimit: benchSolveLimit})
		if err != nil {
			b.Fatal(err)
		}
		if sol.(ilpec.GraphColoring) == nil {
			b.Fatal("no coloring")
		}
	}
}

func BenchmarkColoringECPreserve(b *testing.B) {
	g, planted := benchColoringChange(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := ilpec.PreserveResolveDomain(ilpec.ColoringDomain(), &ilpec.ColoringProblem{G: g, K: 5}, planted, ilp.Options{TimeLimit: benchSolveLimit})
		if err != nil {
			b.Fatal(err)
		}
		if sol.(ilpec.GraphColoring).NumColors() > 5 {
			b.Fatal("palette overflow")
		}
	}
}

func benchColoringChange(b *testing.B) (*ilpec.Graph, ilpec.GraphColoring) {
	b.Helper()
	g, plantedInts := plantedGraph()
	planted := ilpec.GraphColoring(plantedInts)
	// Add a conflicting edge to create EC work.
	for u := 1; u <= g.N; u++ {
		for v := u + 1; v <= g.N; v++ {
			if planted[u] == planted[v] && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				return g, planted
			}
		}
	}
	b.Skip("no conflicting edge available")
	return nil, nil
}
