package partition

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// Change is one netlist specification change.
type Change struct {
	// Kind is "add-edge", "remove-edge", "add-vertex", or "set-bounds".
	Kind string `json:"kind"`
	U    int    `json:"u,omitempty"`
	V    int    `json:"v,omitempty"`
	// Weight is the edge weight of add-edge (0 = unit).
	Weight float64 `json:"weight,omitempty"`
	// Min/Max are the new balance bounds of set-bounds. The change
	// REPLACES both bounds: an omitted field resets that bound to its
	// default (no floor / auto ⌈N/Blocks⌉ cap).
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
}

// Domain returns the min-cut partitioning domain adapter.
func Domain() domain.Domain { return partDomain{} }

func init() { domain.Register(Domain()) }

type partDomain struct{}

func (partDomain) Name() string { return "partition" }

func (partDomain) problem(p any) (*Problem, error) {
	pp, ok := p.(*Problem)
	if !ok || pp == nil {
		return nil, fmt.Errorf("partition: problem is %T, want *partition.Problem", p)
	}
	return pp, nil
}

func (partDomain) solution(s any) (Assignment, error) {
	a, ok := s.(Assignment)
	if !ok || a == nil {
		return nil, fmt.Errorf("partition: solution is %T, want partition.Assignment", s)
	}
	return a, nil
}

func (d partDomain) Validate(p any) error {
	pp, err := d.problem(p)
	if err != nil {
		return err
	}
	return pp.Validate()
}

func (d partDomain) CloneProblem(p any) any {
	pp, err := d.problem(p)
	if err != nil {
		panic(err)
	}
	return pp.Clone()
}

func (d partDomain) ProblemSize(p any) (int, int) {
	pp, err := d.problem(p)
	if err != nil {
		return 0, 0
	}
	return pp.N, len(pp.Edges)
}

// partProblemJSON is the partitioning wire form.
type partProblemJSON struct {
	Vertices int `json:"vertices"`
	Blocks   int `json:"blocks"`
	MinSize  int `json:"min_size,omitempty"`
	MaxSize  int `json:"max_size,omitempty"`
	// Edges are [u, v] or [u, v, weight] triples.
	Edges [][]float64 `json:"edges"`
}

func (d partDomain) ParseProblem(spec json.RawMessage) (any, error) {
	var req partProblemJSON
	dec := json.NewDecoder(strings.NewReader(string(spec)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("partition: bad problem: %w", err)
	}
	p := NewProblem(req.Vertices, req.Blocks)
	p.MinSize, p.MaxSize = req.MinSize, req.MaxSize
	for i, e := range req.Edges {
		if len(e) != 2 && len(e) != 3 {
			return nil, fmt.Errorf("partition: edge %d: want [u,v] or [u,v,w]", i)
		}
		w := 0.0
		if len(e) == 3 {
			w = e[2]
		}
		u, v := int(e[0]), int(e[1])
		if float64(u) != e[0] || float64(v) != e[1] {
			return nil, fmt.Errorf("partition: edge %d has non-integer endpoints", i)
		}
		p.AddEdge(u, v, w)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (d partDomain) RenderProblem(p any) any {
	pp, err := d.problem(p)
	if err != nil {
		return nil
	}
	edges := make([][]float64, len(pp.Edges))
	for i, e := range pp.Edges {
		edges[i] = []float64{float64(e.U), float64(e.V), e.W}
	}
	return partProblemJSON{
		Vertices: pp.N,
		Blocks:   pp.Blocks,
		MinSize:  pp.MinSize,
		MaxSize:  pp.MaxSize,
		Edges:    edges,
	}
}

func (d partDomain) ParseChange(spec json.RawMessage) (any, error) {
	var c Change
	if err := json.Unmarshal(spec, &c); err != nil {
		return nil, fmt.Errorf("partition: bad change: %w", err)
	}
	switch strings.ToLower(c.Kind) {
	case "add-edge", "remove-edge", "add-vertex", "set-bounds":
		c.Kind = strings.ToLower(c.Kind)
		return c, nil
	default:
		return nil, fmt.Errorf("partition: unknown kind %q", c.Kind)
	}
}

func (d partDomain) RenderChange(change any) any {
	c, ok := change.(Change)
	if !ok {
		return nil
	}
	return c
}

func (d partDomain) ApplyChanges(p any, changes []any) (any, error) {
	pp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	out := pp.Clone()
	for i, raw := range changes {
		c, ok := raw.(Change)
		if !ok {
			return nil, fmt.Errorf("partition: change %d is %T, want partition.Change", i, raw)
		}
		switch c.Kind {
		case "add-edge":
			if c.U == c.V || c.U < 1 || c.V < 1 || c.U > out.N || c.V > out.N {
				return nil, fmt.Errorf("partition: change %d: bad edge (%d,%d)", i, c.U, c.V)
			}
			if c.Weight < 0 {
				return nil, fmt.Errorf("partition: change %d: negative edge weight", i)
			}
			out.AddEdge(c.U, c.V, c.Weight)
		case "remove-edge":
			found := false
			for j, e := range out.Edges {
				if (e.U == c.U && e.V == c.V) || (e.U == c.V && e.V == c.U) {
					out.Edges = append(out.Edges[:j], out.Edges[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("partition: change %d: edge (%d,%d) absent", i, c.U, c.V)
			}
		case "add-vertex":
			out.N++
		case "set-bounds":
			out.MinSize, out.MaxSize = c.Min, c.Max
		default:
			return nil, fmt.Errorf("partition: change %d has unknown kind %q", i, c.Kind)
		}
	}
	return out, nil
}

func (partDomain) Tightening(change any) bool {
	c, ok := change.(Change)
	if !ok {
		return false
	}
	// Edge edits never invalidate a partition (only its cut quality);
	// new vertices need placement and bound changes can break balance.
	return c.Kind == "add-vertex" || c.Kind == "set-bounds"
}

func (d partDomain) CloneSolution(s any) any {
	a, err := d.solution(s)
	if err != nil {
		panic(err)
	}
	return a.Clone()
}

func (d partDomain) ExtendSolution(p, prev any) (any, error) {
	pp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	a, err := d.solution(prev)
	if err != nil {
		return nil, err
	}
	next := make(Assignment, pp.N+1)
	copy(next, a)
	if !next.Valid(pp) {
		return nil, fmt.Errorf("partition: cannot extend previous partition to the changed netlist")
	}
	return next, nil
}

func (d partDomain) Verify(p, s any) error {
	pp, err := d.problem(p)
	if err != nil {
		return err
	}
	a, err := d.solution(s)
	if err != nil {
		return err
	}
	if !a.Valid(pp) {
		return fmt.Errorf("partition: assignment violates placement or balance")
	}
	return nil
}

func (d partDomain) Render(p, s any) any {
	a, err := d.solution(s)
	if err != nil {
		return nil
	}
	if len(a) == 0 {
		return []int{}
	}
	return []int(a[1:]) // per-vertex blocks, vertex 1 first
}

func (d partDomain) ParseSolution(p any, spec json.RawMessage) (any, error) {
	pp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	var blocks []int
	if err := json.Unmarshal(spec, &blocks); err != nil {
		return nil, fmt.Errorf("partition: bad solution: %w", err)
	}
	if len(blocks) != pp.N {
		return nil, fmt.Errorf("partition: solution covers %d vertices, want %d", len(blocks), pp.N)
	}
	a := make(Assignment, pp.N+1)
	copy(a[1:], blocks)
	return a, nil
}

func (d partDomain) Agreement(prev, next any) float64 {
	pa, err1 := d.solution(prev)
	na, err2 := d.solution(next)
	if err1 != nil || err2 != nil {
		return 0
	}
	return pa.Agreement(na)
}

func (partDomain) DontCares(p, s any) int { return 0 }

// Flex audits move freedom: a vertex is flexible when some other block
// has size headroom and its own block stays above the lower bound after
// the move.
func (d partDomain) Flex(p, s any, k int) (domain.FlexReport, error) {
	pp, err := d.problem(p)
	if err != nil {
		return domain.FlexReport{}, err
	}
	a, err := d.solution(s)
	if err != nil {
		return domain.FlexReport{}, err
	}
	sizes := a.BlockSizes(pp)
	rep := domain.FlexReport{Total: pp.N}
	for v := 1; v <= pp.N; v++ {
		cur := 0
		if v < len(a) {
			cur = a[v]
		}
		if cur < 1 || sizes[cur] <= pp.MinSize {
			continue
		}
		for b := 1; b <= pp.Blocks; b++ {
			if b != cur && sizes[b] < pp.maxSize() {
				rep.Flexible++
				break
			}
		}
	}
	return rep, nil
}

// partEncoding wraps the min-cut ILP.
type partEncoding struct {
	e *Encoding
}

func (pe *partEncoding) ILP() *ilp.Model { return pe.e.Model }

func (pe *partEncoding) Decode(sol ilp.Solution) (any, error) {
	return pe.e.Decode(sol), nil
}

func (pe *partEncoding) WarmStart(sol any) (ilp.Solution, bool) {
	a, ok := sol.(Assignment)
	if !ok || a == nil {
		return nil, false
	}
	return pe.e.EncodeAssignment(a), true
}

func (d partDomain) Encode(p any) (domain.Encoding, error) {
	pp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	return &partEncoding{e: NewEncoding(pp)}, nil
}

func (d partDomain) PreserveTerms(enc domain.Encoding, p, prev any) error {
	pe, ok := enc.(*partEncoding)
	if !ok {
		return fmt.Errorf("partition: encoding is %T", enc)
	}
	a, err := d.solution(prev)
	if err != nil {
		return err
	}
	e, pp := pe.e, pe.e.Problem
	// Preservation replaces the cut objective entirely (§7 analogue).
	for i := range pp.Edges {
		e.Model.SetObj(e.yCol[i], 0)
	}
	for v := 1; v <= pp.N && v < len(a); v++ {
		if b := a[v]; b >= 1 && b <= pp.Blocks {
			e.Model.SetObj(e.XCol(v, b), -1) // maximize kept placements
		}
	}
	return nil
}

// EnableTerms rewards vertices that keep a spare block: s_{v,b} may be 1
// only when v is not in b and block b retains headroom even with v added;
// flex_v ≤ Σ_b s_{v,b} earns weight w.
func (d partDomain) EnableTerms(enc domain.Encoding, p any, opts domain.EnableOptions) error {
	pe, ok := enc.(*partEncoding)
	if !ok {
		return fmt.Errorf("partition: encoding is %T", enc)
	}
	w := opts.Weight
	if w <= 0 {
		w = 1
	}
	e, pp, m := pe.e, pe.e.Problem, pe.e.Model
	for v := 1; v <= pp.N; v++ {
		var spares []ilp.Coef
		for b := 1; b <= pp.Blocks; b++ {
			s := m.AddVar(fmt.Sprintf("s%d_%d", v, b), 0)
			// Spare only where v does not already live.
			m.AddRow("", []ilp.Coef{{Var: s, Val: 1}, {Var: e.XCol(v, b), Val: 1}}, ilp.LE, 1)
			// Headroom: occupancy of b by other vertices + s ≤ U, so when
			// s = 1, v could move in without breaking the cap.
			coefs := []ilp.Coef{{Var: s, Val: 1}}
			for u := 1; u <= pp.N; u++ {
				if u != v {
					coefs = append(coefs, ilp.Coef{Var: e.XCol(u, b), Val: 1})
				}
			}
			m.AddRow("", coefs, ilp.LE, float64(pp.maxSize()))
			spares = append(spares, ilp.Coef{Var: s, Val: 1})
		}
		flex := m.AddVar(fmt.Sprintf("flex_%d", v), -w)
		terms := append(append([]ilp.Coef(nil), spares...), ilp.Coef{Var: flex, Val: -1})
		m.AddRow(fmt.Sprintf("flexdef_%d", v), terms, ilp.GE, 0)
	}
	return nil
}

// AffectedRegion re-places unbalanced and unplaced vertices with the
// rest frozen, absorbing netlist neighbor rings on escalation.
func (d partDomain) AffectedRegion(p, prev any) (domain.Region, error) {
	pp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	a, err := d.solution(prev)
	if err != nil {
		return nil, err
	}
	grown := make(Assignment, pp.N+1)
	copy(grown, a)
	region := map[int]bool{}
	for v := 1; v <= pp.N; v++ {
		if grown[v] < 1 || grown[v] > pp.Blocks {
			region[v] = true // unplaced vertices (netlist growth)
		}
	}
	sizes := grown.BlockSizes(pp)
	for b := 1; b <= pp.Blocks; b++ {
		if sizes[b] > pp.maxSize() || sizes[b] < pp.MinSize {
			// Balance violation: every vertex of the block may move.
			for v := 1; v <= pp.N; v++ {
				if grown[v] == b {
					region[v] = true
				}
			}
		}
	}
	if len(region) == 0 {
		return nil, nil
	}
	return &domain.FrozenRegion{
		Members: region, First: 1, N: pp.N, Prev: grown,
		Encode: func() (domain.Encoding, func(v, b int) (int, bool)) {
			e := NewEncoding(pp)
			return &partEncoding{e: e}, func(v, b int) (int, bool) {
				if b < 1 || b > pp.Blocks {
					return 0, false
				}
				return e.XCol(v, b), true
			}
		},
		Grow:      domain.NeighborRing(pp.Neighbors),
		FrozenErr: "partition: frozen vertex %d has no block",
	}, nil
}

func (d partDomain) FingerprintProblem(w io.Writer, p any) {
	pp, err := d.problem(p)
	if err != nil {
		domain.WriteString(w, "partition-bad-problem")
		return
	}
	domain.WriteInts(w, int64(pp.N), int64(pp.Blocks), int64(pp.MinSize), int64(pp.MaxSize), int64(len(pp.Edges)))
	for _, e := range pp.Edges {
		domain.WriteInts(w, int64(e.U), int64(e.V))
		domain.WriteFloats(w, e.W)
	}
}

func (d partDomain) FingerprintSolution(w io.Writer, s any) {
	a, err := d.solution(s)
	if err != nil {
		domain.WriteString(w, "partition-bad-solution")
		return
	}
	domain.WriteInts(w, int64(len(a)))
	for _, b := range a {
		domain.WriteInts(w, int64(b))
	}
}

// Conformance supplies the shared domain test fixture: a 6-vertex
// two-block netlist whose tightening batch grows the netlist and loosens
// the bounds to absorb it.
func (partDomain) Conformance() domain.Conformance {
	p := NewProblem(6, 2)
	p.AddEdge(1, 2, 0)
	p.AddEdge(2, 3, 0)
	p.AddEdge(4, 5, 0)
	p.AddEdge(5, 6, 0)
	p.AddEdge(3, 4, 2)
	return domain.Conformance{
		Problem:     p,
		ProblemJSON: json.RawMessage(`{"vertices": 6, "blocks": 2, "edges": [[1,2],[2,3],[4,5],[5,6],[3,4,2]]}`),
		Tightening: []any{
			Change{Kind: "add-vertex"},
			Change{Kind: "set-bounds", Min: 0, Max: 4},
			Change{Kind: "add-edge", U: 1, V: 6, Weight: 3},
		},
		TighteningJSON: []json.RawMessage{
			json.RawMessage(`{"kind":"add-vertex"}`),
			json.RawMessage(`{"kind":"set-bounds","max":4}`),
			json.RawMessage(`{"kind":"add-edge","u":1,"v":6,"weight":3}`),
		},
		Relaxing: []any{Change{Kind: "remove-edge", U: 5, V: 6}},
		Enable:   domain.EnableOptions{Weight: 1},
		FlexK:    1,
	}
}
