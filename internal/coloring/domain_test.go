package coloring

import (
	"fmt"
	"testing"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// TestColoringDomainConformance runs the shared cross-domain suite
// against the coloring adapter.
func TestColoringDomainConformance(t *testing.T) {
	domain.RunConformance(t, Domain())
}

// TestColoringDomainFastRecolorsLocally pins that a conflicting edge
// addition is absorbed by recoloring a sub-region, not the whole graph.
func TestColoringDomainFastRecolorsLocally(t *testing.T) {
	d := Domain()
	g := RandomGraph(10, 0.25, 7)
	k := Greedy(g).NumColors() + 1
	p := &Problem{G: g, K: k}
	col, _, err := domain.Solve(d, p, ilp.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Force a conflict between two same-colored, non-adjacent vertices.
	base := col.(Coloring)
	var u, v int
	for a := 1; a <= g.N && u == 0; a++ {
		for b := a + 1; b <= g.N; b++ {
			if base[a] == base[b] && !g.HasEdge(a, b) {
				u, v = a, b
				break
			}
		}
	}
	if u == 0 {
		t.Skip("no same-colored non-adjacent pair")
	}
	changed, err := d.ApplyChanges(p, []any{Change{Kind: "add-edge", U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	next, stats, err := domain.Fast(d, changed, base, domain.FastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(changed, next); err != nil {
		t.Fatal(err)
	}
	if stats.AlreadyValid {
		t.Fatal("conflicting edge reported as already valid")
	}
	if !stats.FullResolve && stats.SubSize >= g.N {
		t.Fatalf("region covered the whole graph (%d vertices)", stats.SubSize)
	}
}

// TestColoringEncodeDelta pins the delta encoder: edge batches replayed
// onto a live instance must build the exact model a re-encode would,
// including in-batch add-then-remove cancellation, while vertex
// additions fall back to a rebuild.
func TestColoringEncodeDelta(t *testing.T) {
	d := Domain()
	de := d.(domain.DeltaEncoder)
	g := NewGraph(5)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	p := &Problem{G: g, K: 3}

	check := func(name string, batch []any) {
		t.Helper()
		enc, err := d.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		delta, ok := de.EncodeDelta(enc, p, batch)
		if !ok {
			t.Fatalf("%s: batch not delta-expressible", name)
		}
		changed, err := d.ApplyChanges(p, batch)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := d.Encode(changed)
		if err != nil {
			t.Fatal(err)
		}
		inst := ilp.NewInstance(enc.ILP())
		delta.Apply(inst)
		if got, want := inst.Fingerprint(), ilp.ModelFingerprint(fresh.ILP()); got != want {
			t.Fatalf("%s: delta fingerprint %x, re-encode %x", name, got, want)
		}
		dres := inst.Resolve(ilp.Options{})
		fres := ilp.Solve(fresh.ILP(), ilp.Options{})
		if dres.Status != fres.Status || dres.Objective != fres.Objective {
			t.Fatalf("%s: delta solve (%v, %v) vs re-encode (%v, %v)",
				name, dres.Status, dres.Objective, fres.Status, fres.Objective)
		}
	}

	check("add-edge", []any{Change{Kind: "add-edge", U: 1, V: 3}})
	check("remove-edge", []any{Change{Kind: "remove-edge", U: 4, V: 5}})
	check("remove-vertex", []any{Change{Kind: "remove-vertex", V: 3}})
	check("mixed", []any{
		Change{Kind: "add-edge", U: 2, V: 5},
		Change{Kind: "remove-edge", U: 1, V: 2},
	})
	check("add-then-remove", []any{
		Change{Kind: "add-edge", U: 1, V: 4},
		Change{Kind: "remove-edge", U: 1, V: 4},
	})
	check("add-then-remove-vertex", []any{
		Change{Kind: "add-edge", U: 1, V: 4},
		Change{Kind: "remove-vertex", V: 4},
	})

	enc, err := d.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, batch := range map[string][]any{
		"add-vertex":    {Change{Kind: "add-vertex"}},
		"absent-remove": {Change{Kind: "remove-edge", U: 1, V: 5}},
		"bad-edge":      {Change{Kind: "add-edge", U: 0, V: 9}},
	} {
		if _, ok := de.EncodeDelta(enc, p, batch); ok {
			t.Fatalf("%s: expected rebuild fallback", name)
		}
	}
}

// TestParseProblemSizeBound pins that a coloring problem declaring more
// vertex-color columns than domain.MaxColumns admits is rejected before
// the graph is allocated.
func TestParseProblemSizeBound(t *testing.T) {
	for _, spec := range []string{
		fmt.Sprintf(`{"vertices": %d, "k": 1}`, domain.MaxColumns+1),
		fmt.Sprintf(`{"vertices": 0, "k": %d}`, domain.MaxColumns+1),
		`{"vertices": 1025, "k": 1024}`,
	} {
		if _, err := Domain().ParseProblem([]byte(spec)); err == nil {
			t.Errorf("ParseProblem(%s) accepted a problem over the bound", spec)
		}
	}
	for _, spec := range []string{
		fmt.Sprintf(`{"vertices": 0, "k": %d}`, domain.MaxColumns),
		`{"vertices": 1024, "k": 1024}`,
	} {
		if _, err := Domain().ParseProblem([]byte(spec)); err != nil {
			t.Errorf("problem at the bound rejected: %v", err)
		}
	}
}
