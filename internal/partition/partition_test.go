package partition

import (
	"fmt"
	"testing"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// TestPartitionDomainConformance runs the shared cross-domain suite
// against the partitioning adapter.
func TestPartitionDomainConformance(t *testing.T) {
	domain.RunConformance(t, Domain())
}

// twoClusters is a netlist with two dense 4-vertex clusters joined by a
// single bridge: the optimal bipartition cuts only the bridge.
func twoClusters() *Problem {
	p := NewProblem(8, 2)
	cluster := func(vs [4]int) {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				p.AddEdge(vs[i], vs[j], 0)
			}
		}
	}
	cluster([4]int{1, 2, 3, 4})
	cluster([4]int{5, 6, 7, 8})
	p.AddEdge(4, 5, 0) // bridge
	return p
}

func TestPartitionSolveFindsMinCut(t *testing.T) {
	d := Domain()
	p := twoClusters()
	sol, _, err := domain.Solve(d, p, ilp.Options{}, Greedy(p))
	if err != nil {
		t.Fatal(err)
	}
	a := sol.(Assignment)
	if !a.Valid(p) {
		t.Fatal("invalid partition")
	}
	if cut := a.CutWeight(p); cut != 1 {
		t.Fatalf("cut weight %v, want 1 (bridge only)", cut)
	}
	sizes := a.BlockSizes(p)
	if sizes[1] != 4 || sizes[2] != 4 {
		t.Fatalf("block sizes %v, want 4/4", sizes[1:])
	}
}

func TestPartitionFastECPlacesNewVertices(t *testing.T) {
	d := Domain()
	p := twoClusters()
	prev, _, err := domain.Solve(d, p, ilp.Options{}, Greedy(p))
	if err != nil {
		t.Fatal(err)
	}
	// Grow the netlist by two vertices wired into cluster one.
	changed, err := d.ApplyChanges(p, []any{
		Change{Kind: "add-vertex"},
		Change{Kind: "add-vertex"},
		Change{Kind: "set-bounds", Max: 5},
		Change{Kind: "add-edge", U: 9, V: 1, Weight: 2},
		Change{Kind: "add-edge", U: 10, V: 2, Weight: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	next, stats, err := domain.Fast(d, changed, prev, domain.FastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(changed, next); err != nil {
		t.Fatal(err)
	}
	if stats.AlreadyValid {
		t.Fatal("new vertices reported as already placed")
	}
	// The previously placed vertices keep their blocks unless escalation
	// pulled them in.
	if !stats.FullResolve && stats.SubSize >= changed.(*Problem).N {
		t.Fatalf("region covered all %d vertices", stats.SubSize)
	}
}

func TestPartitionPreserveKeepsPlacements(t *testing.T) {
	d := Domain()
	p := twoClusters()
	prevAny, _, err := domain.Solve(d, p, ilp.Options{}, Greedy(p))
	if err != nil {
		t.Fatal(err)
	}
	changed, err := d.ApplyChanges(p, []any{
		Change{Kind: "add-edge", U: 3, V: 6, Weight: 1},
		Change{Kind: "set-bounds", Max: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := domain.Preserve(d, changed, prevAny, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(changed, next); err != nil {
		t.Fatal(err)
	}
	if ag := d.Agreement(prevAny, next); ag != 1 {
		t.Fatalf("agreement %v, want 1 (prev partition still feasible)", ag)
	}
}

func TestPartitionValidateRejectsBadShapes(t *testing.T) {
	for name, p := range map[string]*Problem{
		"zero blocks":     {N: 4, Blocks: 0},
		"overfull":        {N: 10, Blocks: 2, MaxSize: 4},
		"floor too high":  {N: 4, Blocks: 2, MinSize: 3},
		"inverted bounds": {N: 4, Blocks: 2, MinSize: 3, MaxSize: 2},
		"self loop":       {N: 4, Blocks: 2, Edges: []Edge{{U: 2, V: 2}}},
		"edge range":      {N: 4, Blocks: 2, Edges: []Edge{{U: 1, V: 9}}},
		"negative weight": {N: 4, Blocks: 2, Edges: []Edge{{U: 1, V: 2, W: -1}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestChangeRejectsNegativeWeight guards the relax fast path: a
// negative-weight add-edge must fail at ApplyChanges, because relax-only
// batches commit the changed problem without a Validate pass.
func TestChangeRejectsNegativeWeight(t *testing.T) {
	d := Domain()
	p := NewProblem(4, 2)
	if _, err := d.ApplyChanges(p, []any{Change{Kind: "add-edge", U: 1, V: 2, Weight: -1}}); err == nil {
		t.Fatal("negative-weight edge accepted")
	}
}

func TestGreedyRespectsBounds(t *testing.T) {
	p := NewProblem(9, 3)
	a := Greedy(p)
	if !a.Valid(p) {
		t.Fatalf("greedy partition invalid: %v (sizes %v)", a, a.BlockSizes(p))
	}
}

// TestFastRepartitionEscalationStaysPartial pins the neighbor-ring
// escalation: path 1-2-3-4 split {1,2,3}|{4}, then a lower bound of 2 per
// block. The seed region {4} (the underfull block) cannot fill block 2
// against the frozen rest, one ring grows it to {3,4}, and vertices 1 and
// 2 never move.
func TestFastRepartitionEscalationStaysPartial(t *testing.T) {
	p := NewProblem(4, 2)
	p.MaxSize = 3
	p.AddEdge(1, 2, 0)
	p.AddEdge(2, 3, 0)
	p.AddEdge(3, 4, 0)
	prev := Assignment{0, 1, 1, 1, 2}
	if !prev.Valid(p) {
		t.Fatal("setup assignment invalid")
	}
	changed, err := Domain().ApplyChanges(p, []any{Change{Kind: "set-bounds", Min: 2, Max: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sol, stats, err := domain.Fast(Domain(), changed, prev, domain.FastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := sol.(Assignment)
	if !a.Valid(changed.(*Problem)) {
		t.Fatalf("repartitioned invalid: %v", a)
	}
	if stats.SubSize != 2 || stats.Escalations != 1 || stats.FullResolve {
		t.Fatalf("stats %+v, want region 2 ({3,4} after one neighbor ring)", stats)
	}
	if a[1] != prev[1] || a[2] != prev[2] {
		t.Fatalf("frozen vertices moved: %v from %v", a, prev)
	}
}

// TestParseProblemSizeBound pins that a partitioning problem declaring
// more vertex-block columns than domain.MaxColumns admits is rejected at
// parse time.
func TestParseProblemSizeBound(t *testing.T) {
	for _, spec := range []string{
		fmt.Sprintf(`{"vertices": %d, "blocks": 1, "edges": []}`, domain.MaxColumns+1),
		fmt.Sprintf(`{"vertices": 0, "blocks": %d, "edges": []}`, domain.MaxColumns+1),
		`{"vertices": 1025, "blocks": 1024, "edges": []}`,
	} {
		if _, err := Domain().ParseProblem([]byte(spec)); err == nil {
			t.Errorf("ParseProblem(%s) accepted a problem over the bound", spec)
		}
	}
	for _, spec := range []string{
		fmt.Sprintf(`{"vertices": 0, "blocks": %d, "edges": []}`, domain.MaxColumns),
		`{"vertices": 1024, "blocks": 1024, "edges": []}`,
	} {
		if _, err := Domain().ParseProblem([]byte(spec)); err != nil {
			t.Errorf("problem at the bound rejected: %v", err)
		}
	}
}
