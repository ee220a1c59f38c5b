package coloring

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// This file adapts graph k-coloring to the generic domain.Domain
// interface through domain.Adapt: the generic engine runs its fast and
// preserving EC, and its enabling EC shares the spare-color terms of
// SolveEnable. Problem values are *coloring.Problem, solutions are
// Coloring, changes are coloring.Change.

// Problem is the EC problem value of the coloring domain: a graph plus
// the palette size K.
type Problem struct {
	G *Graph
	K int
}

// Clone deep-copies the problem.
func (p *Problem) Clone() *Problem { return &Problem{G: p.G.Clone(), K: p.K} }

// Change is one coloring specification change.
type Change struct {
	// Kind is "add-edge", "remove-edge", "add-vertex", or "remove-vertex"
	// (removal isolates the vertex, mirroring cnf variable elimination).
	Kind string `json:"kind"`
	U    int    `json:"u,omitempty"`
	V    int    `json:"v,omitempty"`
}

// Domain returns the graph-coloring domain adapter.
func Domain() domain.Domain { return domain.Adapt(colorDomain{}) }

func init() { domain.Register(Domain()) }

// colorDomain is the typed adapter behind Domain.
type colorDomain struct{}

func (colorDomain) Name() string { return "coloring" }

// Usable rejects a problem without a graph like one of the wrong type.
func (colorDomain) Usable(cp *Problem) bool { return cp.G != nil }

func (colorDomain) Validate(cp *Problem) error {
	if cp.K < 1 {
		return fmt.Errorf("coloring: palette size %d", cp.K)
	}
	if cp.G.N < 0 {
		return fmt.Errorf("coloring: negative vertex count")
	}
	return nil
}

func (colorDomain) CloneProblem(cp *Problem) *Problem { return cp.Clone() }

func (colorDomain) ProblemSize(cp *Problem) (int, int) { return cp.G.N, cp.G.NumEdges() }

// problemJSON is the coloring wire form.
type problemJSON struct {
	Vertices int      `json:"vertices"`
	K        int      `json:"k"`
	Edges    [][2]int `json:"edges"`
}

func (colorDomain) ParseProblem(spec json.RawMessage) (*Problem, error) {
	var req problemJSON
	dec := json.NewDecoder(strings.NewReader(string(spec)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("coloring: bad problem: %w", err)
	}
	if req.Vertices < 0 || req.K < 1 {
		return nil, fmt.Errorf("coloring: need vertices ≥ 0 and k ≥ 1")
	}
	if err := domain.CheckColumns("coloring", req.Vertices, req.K); err != nil {
		return nil, err
	}
	g := NewGraph(req.Vertices)
	for i, e := range req.Edges {
		u, v := e[0], e[1]
		if u == v || u < 1 || v < 1 || u > g.N || v > g.N {
			return nil, fmt.Errorf("coloring: bad edge %d (%d,%d)", i, u, v)
		}
		g.AddEdge(u, v)
	}
	return &Problem{G: g, K: req.K}, nil
}

func (colorDomain) RenderProblem(cp *Problem) any {
	return problemJSON{Vertices: cp.G.N, K: cp.K, Edges: cp.G.Edges()}
}

func (colorDomain) ParseChange(spec json.RawMessage) (Change, error) {
	var c Change
	if err := json.Unmarshal(spec, &c); err != nil {
		return Change{}, fmt.Errorf("coloring: bad change: %w", err)
	}
	switch strings.ToLower(c.Kind) {
	case "add-edge", "remove-edge", "add-vertex", "remove-vertex":
		c.Kind = strings.ToLower(c.Kind)
		return c, nil
	default:
		return Change{}, fmt.Errorf("coloring: unknown kind %q", c.Kind)
	}
}

func (colorDomain) RenderChange(c Change) any { return c }

func (colorDomain) ApplyChanges(cp *Problem, changes domain.Changes[Change]) (*Problem, error) {
	out := cp.Clone()
	for i, c := range changes.All() {
		switch c.Kind {
		case "add-edge":
			if c.U == c.V || c.U < 1 || c.V < 1 || c.U > out.G.N || c.V > out.G.N {
				return nil, fmt.Errorf("coloring: change %d: bad edge (%d,%d)", i, c.U, c.V)
			}
			out.G.AddEdge(c.U, c.V)
		case "remove-edge":
			if !out.G.RemoveEdge(c.U, c.V) {
				return nil, fmt.Errorf("coloring: change %d: edge (%d,%d) absent", i, c.U, c.V)
			}
		case "add-vertex":
			out.G.AddVertex()
		case "remove-vertex":
			if c.V < 1 || c.V > out.G.N {
				return nil, fmt.Errorf("coloring: change %d: vertex %d out of range", i, c.V)
			}
			out.G.RemoveVertex(c.V)
		default:
			return nil, fmt.Errorf("coloring: change %d has unknown kind %q", i, c.Kind)
		}
	}
	if err := domain.CheckColumns("coloring", out.G.N, out.K); err != nil {
		return nil, err
	}
	return out, nil
}

// Tightening: only new edges can invalidate a coloring; vertex
// additions are colored greedily by ExtendSolution and removals only
// isolate.
func (colorDomain) Tightening(c Change) bool { return c.Kind == "add-edge" }

func (colorDomain) CloneSolution(col Coloring) Coloring { return col.Clone() }

func (colorDomain) ExtendSolution(cp *Problem, col Coloring) (Coloring, error) {
	next := make(Coloring, cp.G.N+1)
	copy(next, col)
	for v := 1; v <= cp.G.N; v++ {
		if next[v] >= 1 && next[v] <= cp.K {
			continue
		}
		spare := SpareColors(cp.G, next, v, cp.K)
		if len(spare) == 0 {
			return nil, fmt.Errorf("coloring: cannot extend: vertex %d has no free color", v)
		}
		next[v] = spare[0]
	}
	return next, nil
}

func (colorDomain) Verify(cp *Problem, col Coloring) error {
	if !col.Valid(cp.G, cp.K) {
		return fmt.Errorf("coloring: invalid %d-coloring", cp.K)
	}
	return nil
}

func (colorDomain) Render(col Coloring) any {
	if len(col) == 0 {
		return []int{}
	}
	return []int(col[1:]) // per-vertex colors, vertex 1 first
}

func (colorDomain) ParseSolution(cp *Problem, spec json.RawMessage) (Coloring, error) {
	var colors []int
	if err := json.Unmarshal(spec, &colors); err != nil {
		return nil, fmt.Errorf("coloring: bad solution: %w", err)
	}
	if len(colors) != cp.G.N {
		return nil, fmt.Errorf("coloring: solution covers %d vertices, want %d", len(colors), cp.G.N)
	}
	col := make(Coloring, cp.G.N+1)
	copy(col[1:], colors)
	return col, nil
}

func (colorDomain) Agreement(prev, next Coloring) float64 { return next.Agreement(prev) }

func (colorDomain) DontCares(Coloring) int { return 0 }

func (colorDomain) Flex(cp *Problem, col Coloring, k int) (domain.FlexReport, error) {
	rep := VerifyFlexibility(cp.G, col, cp.K)
	return domain.FlexReport{Total: rep.Total, Flexible: rep.WithSpare}, nil
}

// colorEncoding wraps the k-coloring ILP encoding.
type colorEncoding struct {
	e *Encoding
}

func (ce *colorEncoding) ILP() *ilp.Model { return ce.e.Model }

func (ce *colorEncoding) Decode(sol ilp.Solution) (any, error) {
	return ce.e.Decode(sol), nil
}

func (ce *colorEncoding) WarmStart(sol any) (ilp.Solution, bool) {
	col, ok := sol.(Coloring)
	if !ok || col == nil {
		return nil, false
	}
	return ce.e.EncodeColoring(col), true
}

func (colorDomain) Encode(cp *Problem) (*colorEncoding, error) {
	return &colorEncoding{e: NewEncoding(cp.G, cp.K)}, nil
}

func (colorDomain) PreserveTerms(ce *colorEncoding, prev Coloring) error {
	addPreserveTerms(ce.e, prev)
	return nil
}

func (colorDomain) EnableTerms(ce *colorEncoding, opts domain.EnableOptions) error {
	addEnableTerms(ce.e, opts.Hard, opts.Weight)
	return nil
}

// edgeRowNames returns the names of the K conflict rows of edge {u,v}
// under the NewEncoding naming scheme (endpoints ordered low-high).
func edgeRowNames(u, v, k int) []string {
	if u > v {
		u, v = v, u
	}
	names := make([]string, k)
	for c := 1; c <= k; c++ {
		names[c-1] = fmt.Sprintf("e%d_%d_c%d", u, v, c)
	}
	return names
}

// EncodeDelta translates a change batch into row edits against the
// previous coloring encoding: edge additions append the K conflict rows,
// edge removals (and vertex removals, which only isolate) drop them. A
// batch containing add-vertex cannot be expressed as a delta — it grows
// the variable set — so it reports ok=false and the caller re-encodes.
func (colorDomain) EncodeDelta(ce *colorEncoding, cp *Problem, changes domain.Changes[Change]) (*domain.Delta, bool) {
	k := ce.e.K
	if cp.K != k || cp.G.N != ce.e.Graph.N {
		return nil, false // problem drifted off the encoding's variable set
	}
	g := cp.G.Clone() // working copy: validates sequential batches
	out := &domain.Delta{}
	for _, c := range changes.All() {
		switch c.Kind {
		case "add-edge":
			if c.U == c.V || c.U < 1 || c.V < 1 || c.U > g.N || c.V > g.N {
				return nil, false // invalid batch: let the rebuild path error
			}
			if !g.AddEdge(c.U, c.V) {
				continue // already present: encoding unchanged
			}
			u, v := c.U, c.V
			if u > v {
				u, v = v, u
			}
			for col := 1; col <= k; col++ {
				out.AddRows = append(out.AddRows, ilp.Row{
					Name: fmt.Sprintf("e%d_%d_c%d", u, v, col),
					Coefs: []ilp.Coef{
						{Var: ce.e.XCol(u, col), Val: 1},
						{Var: ce.e.XCol(v, col), Val: 1},
					},
					Sense: ilp.LE,
					RHS:   1,
				})
			}
		case "remove-edge":
			if !g.RemoveEdge(c.U, c.V) {
				return nil, false
			}
			for _, name := range edgeRowNames(c.U, c.V, k) {
				out.DropRow(name)
			}
		case "remove-vertex":
			if c.V < 1 || c.V > g.N {
				return nil, false
			}
			for _, u := range g.Neighbors(c.V) {
				for _, name := range edgeRowNames(u, c.V, k) {
					out.DropRow(name)
				}
			}
			g.RemoveVertex(c.V)
		default:
			// add-vertex (and anything unknown) grows or reshapes the
			// variable set: not expressible as a delta.
			return nil, false
		}
	}
	return out, true
}

// AffectedRegion recolors the conflicted, uncolored and out-of-palette
// vertices with the rest frozen, absorbing neighbor rings on escalation.
func (colorDomain) AffectedRegion(cp *Problem, col Coloring) (domain.Region, error) {
	region := map[int]bool{}
	for _, e := range cp.G.Edges() {
		if e[0] < len(col) && e[1] < len(col) && col[e[0]] != 0 && col[e[0]] == col[e[1]] {
			region[e[0]] = true
			region[e[1]] = true
		}
	}
	for v := 1; v <= cp.G.N; v++ {
		if v >= len(col) || col[v] < 1 || col[v] > cp.K {
			region[v] = true // uncolored or out-of-palette vertices join
		}
	}
	if len(region) == 0 {
		return nil, nil
	}
	grown := make(Coloring, cp.G.N+1)
	copy(grown, col)
	return &domain.FrozenRegion{
		Members: region, First: 1, N: cp.G.N, Prev: grown,
		Encode: func() (domain.Encoding, func(v, c int) (int, bool)) {
			e := NewEncoding(cp.G, cp.K)
			return &colorEncoding{e: e}, func(v, c int) (int, bool) {
				if c < 1 || c > cp.K {
					return 0, false
				}
				return e.XCol(v, c), true
			}
		},
		Grow:      domain.NeighborRing(cp.G.Neighbors),
		FrozenErr: "coloring: frozen vertex %d has no valid color",
	}, nil
}

func (colorDomain) FingerprintProblem(w io.Writer, cp *Problem) {
	edges := cp.G.Edges()
	domain.WriteInts(w, int64(cp.G.N), int64(cp.K), int64(len(edges)))
	for _, e := range edges {
		domain.WriteInts(w, int64(e[0]), int64(e[1]))
	}
}

func (colorDomain) FingerprintSolution(w io.Writer, col Coloring) {
	domain.WriteInts(w, int64(len(col)))
	for _, c := range col {
		domain.WriteInts(w, int64(c))
	}
}

// Conformance supplies the shared domain test fixture: a 5-vertex
// 3-colorable graph whose tightening batch adds edges forcing a local
// recolor.
func (colorDomain) Conformance() domain.Conformance {
	g := NewGraph(5)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	return domain.Conformance{
		Problem:     &Problem{G: g, K: 3},
		ProblemJSON: json.RawMessage(`{"vertices": 5, "k": 3, "edges": [[1,2],[2,3],[3,4],[4,5]]}`),
		Tightening: []any{
			Change{Kind: "add-edge", U: 1, V: 3},
			Change{Kind: "add-edge", U: 2, V: 4},
		},
		TighteningJSON: []json.RawMessage{
			json.RawMessage(`{"kind":"add-edge","u":1,"v":3}`),
			json.RawMessage(`{"kind":"add-edge","u":2,"v":4}`),
		},
		Relaxing: []any{
			Change{Kind: "add-vertex"},
			Change{Kind: "remove-edge", U: 4, V: 5},
		},
		Enable: domain.EnableOptions{Weight: 2},
		FlexK:  1,
	}
}
