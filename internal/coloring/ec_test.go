package coloring

import (
	"testing"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// fastRecolor runs the §6 engine over the coloring adapter.
func fastRecolor(g *Graph, prev Coloring, k int) (Coloring, domain.FastStats, error) {
	sol, stats, err := domain.Fast(Domain(), &Problem{G: g, K: k}, prev, domain.FastOptions{})
	if err != nil {
		return nil, stats, err
	}
	return sol.(Coloring), stats, nil
}

func TestEncodingShape(t *testing.T) {
	g := triangle()
	e := NewEncoding(g, 3)
	m := e.Model
	// 3 y vars + 9 x vars.
	if m.NumVars() != 12 {
		t.Fatalf("vars = %d", m.NumVars())
	}
	// 3 one-rows + 3 edges × 3 colors + 9 link rows + 2 symmetry rows.
	if m.NumRows() != 3+9+9+2 {
		t.Fatalf("rows = %d", m.NumRows())
	}
}

func TestSolveExactTriangle(t *testing.T) {
	g := triangle()
	col, res, err := SolveExact(g, 3, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !col.Valid(g, 3) || col.NumColors() != 3 {
		t.Fatalf("coloring %v", col)
	}
	if res.Status != ilp.Optimal || res.Objective != 3 {
		t.Fatalf("objective = %v", res.Objective)
	}
	// A triangle is not 2-colorable.
	if _, _, err := SolveExact(g, 2, nil, ilp.Options{}); err == nil {
		t.Fatal("2-coloring a triangle should fail")
	}
}

func TestSolveExactMinimizesColors(t *testing.T) {
	// A path 1-2-3 is 2-colorable even with k=3 available.
	g := NewGraph(3)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	col, res, err := SolveExact(g, 3, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 2 || col.NumColors() != 2 {
		t.Fatalf("used %v colors (obj %v), want 2", col.NumColors(), res.Objective)
	}
}

func TestGreedyDSATUR(t *testing.T) {
	g, _ := PlantedColorable(25, 4, 0.5, 3)
	col := Greedy(g)
	if !col.Valid(g, 0) {
		t.Fatal("greedy coloring invalid")
	}
	if col.NumColors() > g.MaxDegree()+1 {
		t.Fatal("greedy exceeded Δ+1 colors")
	}
	// On an empty graph greedy uses one color.
	e := NewGraph(5)
	if Greedy(e).NumColors() != 1 {
		t.Fatal("empty graph should use 1 color")
	}
}

func TestWarmStartAdopted(t *testing.T) {
	g, planted := PlantedColorable(12, 3, 0.5, 5)
	col, res, err := SolveExact(g, 3, Coloring(planted), ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !col.Valid(g, 3) {
		t.Fatal("invalid")
	}
	_ = res
}

func TestSpareColors(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(1, 2)
	col := Coloring{0, 1, 2, 1}
	spares := SpareColors(g, col, 1, 3)
	if len(spares) != 1 || spares[0] != 3 {
		t.Fatalf("spares = %v", spares)
	}
	// Vertex 3 is isolated: colors 2 and 3 are spare.
	spares3 := SpareColors(g, col, 3, 3)
	if len(spares3) != 2 {
		t.Fatalf("spares3 = %v", spares3)
	}
}

func TestVerifyFlexibility(t *testing.T) {
	g := triangle()
	col := Coloring{0, 1, 2, 3}
	rep := VerifyFlexibility(g, col, 3)
	if rep.WithSpare != 0 || len(rep.Inflexible) != 3 {
		t.Fatalf("triangle with k=3 should have no spares: %+v", rep)
	}
	rep4 := VerifyFlexibility(g, col, 4)
	if rep4.WithSpare != 3 {
		t.Fatalf("k=4 should give every vertex a spare: %+v", rep4)
	}
}

func TestSolveEnableHard(t *testing.T) {
	g, _ := PlantedColorable(10, 3, 0.35, 9)
	col, _, err := SolveEnable(g, 4, true, 1, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !col.Valid(g, 4) {
		t.Fatal("enabled coloring invalid")
	}
	rep := VerifyFlexibility(g, col, 4)
	if len(rep.Inflexible) != 0 {
		t.Fatalf("hard enabling left inflexible vertices %v", rep.Inflexible)
	}
}

func TestSolveEnableHardInfeasible(t *testing.T) {
	// Triangle with k=3: every valid coloring uses all three colors and
	// leaves no spare anywhere.
	if _, _, err := SolveEnable(triangle(), 3, true, 1, nil, ilp.Options{}); err == nil {
		t.Fatal("expected infeasible enabling")
	}
}

func TestSolveEnableSoft(t *testing.T) {
	g := triangle()
	col, _, err := SolveEnable(g, 3, false, 2, nil, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !col.Valid(g, 3) {
		t.Fatal("soft-enabled coloring invalid")
	}
}

func TestFastRecolorAbsorbsEdge(t *testing.T) {
	g, planted := PlantedColorable(15, 4, 0.4, 17)
	prev := Coloring(planted)
	// Add an edge between two same-colored vertices if possible.
	var u, v int
	for a := 1; a <= g.N && u == 0; a++ {
		for b := a + 1; b <= g.N; b++ {
			if prev[a] == prev[b] && !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	if u == 0 {
		t.Skip("no monochromatic non-edge available")
	}
	g.AddEdge(u, v)
	col, stats, err := fastRecolor(g, prev, 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.AlreadyValid {
		t.Fatal("edge addition must conflict")
	}
	if !col.Valid(g, 4) {
		t.Fatal("recoloring invalid")
	}
	if stats.SubSize > g.N/2 && stats.Escalations == 0 {
		t.Fatalf("recolor region suspiciously large: %d", stats.SubSize)
	}
	// Outside the initial conflict set colors should mostly survive.
	if col.Agreement(prev) < 0.5 {
		t.Fatalf("agreement %.2f too low", col.Agreement(prev))
	}
}

func TestFastRecolorNoConflict(t *testing.T) {
	g, planted := PlantedColorable(8, 3, 0.4, 21)
	col, stats, err := fastRecolor(g, Coloring(planted), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlreadyValid || stats.SubRows != 0 {
		t.Fatalf("valid coloring should be kept without a solve: %+v", stats)
	}
	if col.Agreement(Coloring(planted)) != 1 {
		t.Fatal("kept coloring changed")
	}
}

func TestFastRecolorEscalates(t *testing.T) {
	// A 4-cycle colored 1,2,1,2 with k=2; adding the chord (1,3) makes it
	// non-2-colorable locally: recoloring vertex 1 or 3 alone fails, and
	// escalation must eventually prove infeasibility (odd cycle with k=2).
	g := NewGraph(4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(1, 4)
	prev := Coloring{0, 1, 2, 1, 2}
	if !prev.Valid(g, 2) {
		t.Fatal("setup wrong")
	}
	g.AddEdge(1, 3) // odd triangle 1-2-3
	_, stats, err := fastRecolor(g, prev, 2)
	if err == nil {
		t.Fatal("expected infeasibility for k=2 with a triangle")
	}
	if stats.Escalations == 0 {
		t.Fatal("infeasibility reported before the region grew")
	}
	// With k=3 the same change is absorbed.
	col, _, err := fastRecolor(g, prev, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !col.Valid(g, 3) {
		t.Fatal("k=3 recoloring invalid")
	}
}

func TestPreserveRecolor(t *testing.T) {
	g, planted := PlantedColorable(12, 3, 0.4, 25)
	prev := Coloring(planted)
	// Add a conflicting edge.
	var u, v int
	for a := 1; a <= g.N && u == 0; a++ {
		for b := a + 1; b <= g.N; b++ {
			if prev[a] == prev[b] && !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	if u == 0 {
		t.Skip("no monochromatic non-edge")
	}
	g.AddEdge(u, v)
	sol, _, err := domain.Preserve(Domain(), &Problem{G: g, K: 3}, prev, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := sol.(Coloring)
	if !col.Valid(g, 3) {
		t.Fatal("preserving coloring invalid")
	}
	// At most the two conflicted endpoints minus... at least all but one
	// vertex could keep colors; require ≥ N-2 agreement.
	minAgree := float64(g.N-2) / float64(g.N)
	if col.Agreement(prev) < minAgree-1e-9 {
		t.Fatalf("agreement %.2f below %v", col.Agreement(prev), minAgree)
	}
}

func TestEncodeColoringRoundTrip(t *testing.T) {
	g := triangle()
	e := NewEncoding(g, 3)
	col := Coloring{0, 1, 2, 3}
	sol := e.EncodeColoring(col)
	back := e.Decode(sol)
	for v := 1; v <= 3; v++ {
		if back[v] != col[v] {
			t.Fatalf("round trip broke vertex %d", v)
		}
	}
	if !e.Model.Feasible(sol) {
		t.Fatal("valid coloring encodes to infeasible solution")
	}
}
