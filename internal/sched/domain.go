package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// This file adapts resource-constrained scheduling to the generic
// domain.Domain interface: the generic engine runs its fast and
// preserving EC, and its enabling EC shares the spare-slot terms of
// SolveEnabled. Problem values are *sched.Problem, solutions are
// Schedule, changes are sched.Change.

// Change is one scheduling specification change.
type Change struct {
	// Kind is "add-op", "add-dep", "remove-dep", or "set-capacity".
	Kind string `json:"kind"`
	// Type is the resource type of add-op and set-capacity.
	Type int `json:"type,omitempty"`
	// From/To identify a dependency edge.
	From int `json:"from,omitempty"`
	To   int `json:"to,omitempty"`
	// Capacity is the new instance count of set-capacity.
	Capacity int `json:"capacity,omitempty"`
}

// Domain returns the scheduling domain adapter.
func Domain() domain.Domain { return schedDomain{} }

func init() { domain.Register(Domain()) }

type schedDomain struct{}

func (schedDomain) Name() string { return "sched" }

func (schedDomain) problem(p any) (*Problem, error) {
	sp, ok := p.(*Problem)
	if !ok || sp == nil {
		return nil, fmt.Errorf("sched: problem is %T, want *sched.Problem", p)
	}
	return sp, nil
}

func (schedDomain) solution(s any) (Schedule, error) {
	sc, ok := s.(Schedule)
	if !ok || sc == nil {
		return nil, fmt.Errorf("sched: solution is %T, want sched.Schedule", s)
	}
	return sc, nil
}

func (d schedDomain) Validate(p any) error {
	sp, err := d.problem(p)
	if err != nil {
		return err
	}
	return sp.Validate()
}

func (d schedDomain) CloneProblem(p any) any {
	sp, err := d.problem(p)
	if err != nil {
		panic(err)
	}
	return sp.Clone()
}

func (d schedDomain) ProblemSize(p any) (int, int) {
	sp, err := d.problem(p)
	if err != nil {
		return 0, 0
	}
	return sp.NumOps, len(sp.Deps)
}

// schedProblemJSON is the scheduling wire form.
type schedProblemJSON struct {
	Capacity []int    `json:"capacity"`
	Steps    int      `json:"steps"`
	Types    []int    `json:"types"`
	Deps     [][2]int `json:"deps"`
}

func (d schedDomain) ParseProblem(spec json.RawMessage) (any, error) {
	var req schedProblemJSON
	dec := json.NewDecoder(strings.NewReader(string(spec)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("sched: bad problem: %w", err)
	}
	if len(req.Capacity) == 0 || req.Steps < 1 {
		return nil, fmt.Errorf("sched: need capacity and steps ≥ 1")
	}
	p := NewProblem(req.Capacity, req.Steps)
	for i, r := range req.Types {
		if r < 0 || r >= len(req.Capacity) {
			return nil, fmt.Errorf("sched: op %d has bad type %d", i, r)
		}
		p.AddOp(r)
	}
	for i, dep := range req.Deps {
		if dep[0] < 0 || dep[0] >= p.NumOps || dep[1] < 0 || dep[1] >= p.NumOps || dep[0] == dep[1] {
			return nil, fmt.Errorf("sched: bad dep %d (%d,%d)", i, dep[0], dep[1])
		}
		p.AddDep(dep[0], dep[1])
	}
	return p, nil
}

func (d schedDomain) RenderProblem(p any) any {
	sp, err := d.problem(p)
	if err != nil {
		return nil
	}
	return schedProblemJSON{
		Capacity: append([]int(nil), sp.Capacity...),
		Steps:    sp.Steps,
		Types:    append([]int(nil), sp.Type...),
		Deps:     append([][2]int(nil), sp.Deps...),
	}
}

func (d schedDomain) ParseChange(spec json.RawMessage) (any, error) {
	var c Change
	if err := json.Unmarshal(spec, &c); err != nil {
		return nil, fmt.Errorf("sched: bad change: %w", err)
	}
	switch strings.ToLower(c.Kind) {
	case "add-op", "add-dep", "remove-dep", "set-capacity":
		c.Kind = strings.ToLower(c.Kind)
		return c, nil
	default:
		return nil, fmt.Errorf("sched: unknown kind %q", c.Kind)
	}
}

func (d schedDomain) RenderChange(change any) any {
	c, ok := change.(Change)
	if !ok {
		return nil
	}
	return c
}

func (d schedDomain) ApplyChanges(p any, changes []any) (any, error) {
	sp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	out := sp.Clone()
	for i, raw := range changes {
		c, ok := raw.(Change)
		if !ok {
			return nil, fmt.Errorf("sched: change %d is %T, want sched.Change", i, raw)
		}
		switch c.Kind {
		case "add-op":
			if c.Type < 0 || c.Type >= len(out.Capacity) {
				return nil, fmt.Errorf("sched: change %d: bad type %d", i, c.Type)
			}
			out.AddOp(c.Type)
		case "add-dep":
			if c.From < 0 || c.From >= out.NumOps || c.To < 0 || c.To >= out.NumOps || c.From == c.To {
				return nil, fmt.Errorf("sched: change %d: bad dep (%d,%d)", i, c.From, c.To)
			}
			out.AddDep(c.From, c.To)
		case "remove-dep":
			if !out.RemoveDep(c.From, c.To) {
				return nil, fmt.Errorf("sched: change %d: dep (%d,%d) absent", i, c.From, c.To)
			}
		case "set-capacity":
			if c.Type < 0 || c.Type >= len(out.Capacity) || c.Capacity < 1 {
				return nil, fmt.Errorf("sched: change %d: bad capacity %d for type %d", i, c.Capacity, c.Type)
			}
			out.Capacity[c.Type] = c.Capacity
		default:
			return nil, fmt.Errorf("sched: change %d has unknown kind %q", i, c.Kind)
		}
	}
	return out, nil
}

func (schedDomain) Tightening(change any) bool {
	c, ok := change.(Change)
	if !ok {
		return false
	}
	// Removing a dependency never invalidates a schedule; everything else
	// can (set-capacity is conservatively tightening — the new capacity
	// may be lower).
	return c.Kind != "remove-dep"
}

func (d schedDomain) CloneSolution(s any) any {
	sc, err := d.solution(s)
	if err != nil {
		panic(err)
	}
	return sc.Clone()
}

func (d schedDomain) ExtendSolution(p, prev any) (any, error) {
	sp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	sc, err := d.solution(prev)
	if err != nil {
		return nil, err
	}
	if len(sc) != sp.NumOps {
		return nil, fmt.Errorf("sched: cannot extend schedule of %d ops to %d", len(sc), sp.NumOps)
	}
	return sc.Clone(), nil
}

func (d schedDomain) Verify(p, s any) error {
	sp, err := d.problem(p)
	if err != nil {
		return err
	}
	sc, err := d.solution(s)
	if err != nil {
		return err
	}
	if !sc.Valid(sp) {
		return fmt.Errorf("sched: invalid schedule")
	}
	return nil
}

func (d schedDomain) Render(p, s any) any {
	sc, err := d.solution(s)
	if err != nil {
		return nil
	}
	return []int(sc)
}

func (d schedDomain) ParseSolution(p any, spec json.RawMessage) (any, error) {
	sp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	var steps []int
	if err := json.Unmarshal(spec, &steps); err != nil {
		return nil, fmt.Errorf("sched: bad solution: %w", err)
	}
	if len(steps) != sp.NumOps {
		return nil, fmt.Errorf("sched: solution covers %d ops, want %d", len(steps), sp.NumOps)
	}
	return Schedule(append([]int(nil), steps...)), nil
}

func (d schedDomain) Agreement(prev, next any) float64 {
	ps, err1 := d.solution(prev)
	ns, err2 := d.solution(next)
	if err1 != nil || err2 != nil {
		return 0
	}
	return ps.Agreement(ns)
}

func (schedDomain) DontCares(p, s any) int { return 0 }

func (d schedDomain) Flex(p, s any, k int) (domain.FlexReport, error) {
	sp, err := d.problem(p)
	if err != nil {
		return domain.FlexReport{}, err
	}
	sc, err := d.solution(s)
	if err != nil {
		return domain.FlexReport{}, err
	}
	if !sc.Valid(sp) {
		return domain.FlexReport{}, fmt.Errorf("sched: flex audit needs a valid schedule")
	}
	rep := VerifySlack(sp, sc)
	return domain.FlexReport{Total: rep.Total, Flexible: rep.Flexible}, nil
}

// schedEncoding wraps the time-indexed scheduling ILP.
type schedEncoding struct {
	e *Encoding
}

func (se *schedEncoding) ILP() *ilp.Model { return se.e.Model }

func (se *schedEncoding) Decode(sol ilp.Solution) (any, error) {
	return se.e.Decode(sol), nil
}

func (se *schedEncoding) WarmStart(sol any) (ilp.Solution, bool) {
	sc, ok := sol.(Schedule)
	if !ok || sc == nil {
		return nil, false
	}
	return se.e.EncodeSchedule(sc), true
}

func (d schedDomain) Encode(p any) (domain.Encoding, error) {
	sp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	return &schedEncoding{e: NewEncoding(sp)}, nil
}

func (d schedDomain) PreserveTerms(enc domain.Encoding, p, prev any) error {
	se, ok := enc.(*schedEncoding)
	if !ok {
		return fmt.Errorf("sched: encoding is %T", enc)
	}
	sc, err := d.solution(prev)
	if err != nil {
		return err
	}
	addPreserveTerms(se.e, sc)
	return nil
}

func (d schedDomain) EnableTerms(enc domain.Encoding, p any, opts domain.EnableOptions) error {
	se, ok := enc.(*schedEncoding)
	if !ok {
		return fmt.Errorf("sched: encoding is %T", enc)
	}
	w := opts.Weight
	if w <= 0 {
		w = 1
	}
	addEnableTerms(se.e, w)
	return nil
}

// EncodeDelta translates a change batch into row edits against the
// previous scheduling encoding: dependency additions append one
// endpoint-named precedence row, dependency removals drop it, and
// capacity changes rewrite the RHS of every cap_{type}_{step} row (which
// exist only when some operation uses the type — a vacuous capacity
// change edits nothing). add-op grows the variable set and duplicate
// dependencies would collide by row name; both report ok=false so the
// caller falls back to a full re-encode.
func (d schedDomain) EncodeDelta(prev domain.Encoding, prevProblem any, changes []any) (*domain.Delta, bool) {
	se, ok := prev.(*schedEncoding)
	if !ok {
		return nil, false
	}
	sp, ok := prevProblem.(*Problem)
	if !ok || sp == nil {
		return nil, false
	}
	if sp.NumOps != se.e.Problem.NumOps || sp.Steps != se.e.Problem.Steps ||
		len(sp.Capacity) != len(se.e.Problem.Capacity) {
		return nil, false // problem drifted off the encoding's variable set
	}
	work := sp.Clone() // working copy: validates sequential batches
	out := &domain.Delta{}
	for _, raw := range changes {
		c, ok := raw.(Change)
		if !ok {
			return nil, false
		}
		switch c.Kind {
		case "add-dep":
			if c.From < 0 || c.From >= work.NumOps || c.To < 0 || c.To >= work.NumOps || c.From == c.To {
				return nil, false // invalid batch: let the rebuild path error
			}
			if hasDep(work, c.From, c.To) {
				return nil, false // duplicate dep: rows would collide by name
			}
			work.AddDep(c.From, c.To)
			out.AddRows = append(out.AddRows, ilp.Row{
				Name:  depRowName(c.From, c.To),
				Coefs: se.e.depCoefs(c.From, c.To),
				Sense: ilp.GE,
				RHS:   1,
			})
		case "remove-dep":
			if !work.RemoveDep(c.From, c.To) {
				return nil, false
			}
			if hasDep(work, c.From, c.To) {
				return nil, false // duplicated dep: removing by name drops both rows
			}
			out.DropRow(depRowName(c.From, c.To))
		case "set-capacity":
			if c.Type < 0 || c.Type >= len(work.Capacity) || c.Capacity < 1 {
				return nil, false
			}
			work.Capacity[c.Type] = c.Capacity
			for o := 0; o < work.NumOps; o++ {
				if work.Type[o] != c.Type {
					continue
				}
				for t := 0; t < work.Steps; t++ {
					out.SetRHS = append(out.SetRHS, domain.RHSEdit{
						Name: capRowName(c.Type, t), RHS: float64(c.Capacity),
					})
				}
				break
			}
		default:
			// add-op (and anything unknown) grows the variable set: not
			// expressible as a delta.
			return nil, false
		}
	}
	return out, true
}

// hasDep reports whether the dependency pair is present.
func hasDep(p *Problem, from, to int) bool {
	for _, dep := range p.Deps {
		if dep[0] == from && dep[1] == to {
			return true
		}
	}
	return false
}

// schedRegion re-places the disturbed cone with the rest frozen,
// absorbing dependency neighborhoods on escalation.
type schedRegion struct {
	p      *Problem
	prev   Schedule
	region map[int]bool
	full   bool
}

func (d schedDomain) AffectedRegion(p, prev any) (domain.Region, error) {
	sp, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	sc, err := d.solution(prev)
	if err != nil {
		return nil, err
	}
	grown := sc.Clone()
	for len(grown) < sp.NumOps {
		grown = append(grown, -1) // newly added operations join the region
	}
	grown = grown[:sp.NumOps]
	region := map[int]bool{}
	for o := 0; o < sp.NumOps; o++ {
		if grown[o] < 0 || grown[o] >= sp.Steps {
			region[o] = true
		}
	}
	for _, dep := range sp.Deps {
		if !region[dep[0]] && !region[dep[1]] && grown[dep[0]] >= grown[dep[1]] {
			region[dep[0]] = true
			region[dep[1]] = true
		}
	}
	// Capacity violations join too.
	use := make(map[[2]int][]int)
	for o := 0; o < sp.NumOps; o++ {
		if !region[o] {
			key := [2]int{sp.Type[o], grown[o]}
			use[key] = append(use[key], o)
		}
	}
	for key, ops := range use {
		if len(ops) > sp.Capacity[key[0]] {
			for _, o := range ops {
				region[o] = true
			}
		}
	}
	if len(region) == 0 {
		return nil, nil
	}
	return &schedRegion{p: sp, prev: grown, region: region}, nil
}

func (r *schedRegion) Size() int {
	if r.full {
		return r.p.NumOps
	}
	return len(r.region)
}

func (r *schedRegion) Full() bool { return r.full || len(r.region) >= r.p.NumOps }

func (r *schedRegion) Encoding() (domain.Encoding, error) {
	e := NewEncoding(r.p)
	if !r.Full() {
		for o := 0; o < r.p.NumOps; o++ {
			if r.region[o] {
				continue
			}
			t := r.prev[o]
			if t < 0 || t >= r.p.Steps {
				return nil, fmt.Errorf("sched: frozen op %d has no valid step", o)
			}
			e.Model.AddRow(fmt.Sprintf("freeze_%d", o),
				[]ilp.Coef{{Var: e.XCol(o, t), Val: 1}}, ilp.GE, 1)
		}
	}
	return &schedEncoding{e: e}, nil
}

func (r *schedRegion) Merge(sub any) (any, error) {
	sc, ok := sub.(Schedule)
	if !ok {
		return nil, fmt.Errorf("sched: sub-solution is %T", sub)
	}
	return sc, nil // the region model decodes the full schedule
}

func (r *schedRegion) Escalate() bool {
	if r.Full() {
		return false
	}
	grew := false
	for _, dep := range r.p.Deps {
		if r.region[dep[0]] != r.region[dep[1]] {
			r.region[dep[0]] = true
			r.region[dep[1]] = true
			grew = true
		}
	}
	return grew
}

func (r *schedRegion) EscalateToFull() { r.full = true }

func (d schedDomain) FingerprintProblem(w io.Writer, p any) {
	sp, err := d.problem(p)
	if err != nil {
		domain.WriteString(w, "sched-bad-problem")
		return
	}
	domain.WriteInts(w, int64(sp.NumOps), int64(sp.Steps), int64(len(sp.Capacity)), int64(len(sp.Deps)))
	for _, c := range sp.Capacity {
		domain.WriteInts(w, int64(c))
	}
	for _, r := range sp.Type {
		domain.WriteInts(w, int64(r))
	}
	for _, dep := range sp.Deps {
		domain.WriteInts(w, int64(dep[0]), int64(dep[1]))
	}
}

func (d schedDomain) FingerprintSolution(w io.Writer, s any) {
	sc, err := d.solution(s)
	if err != nil {
		domain.WriteString(w, "sched-bad-solution")
		return
	}
	domain.WriteInts(w, int64(len(sc)))
	for _, t := range sc {
		domain.WriteInts(w, int64(t))
	}
}

// Conformance supplies the shared domain test fixture: a 5-op two-type
// pipeline whose tightening batch adds an op and a dependency.
func (schedDomain) Conformance() domain.Conformance {
	p := NewProblem([]int{2, 1}, 4)
	p.AddOp(0) // 0
	p.AddOp(0) // 1
	p.AddOp(1) // 2
	p.AddOp(0) // 3
	p.AddOp(1) // 4
	p.AddDep(0, 2)
	p.AddDep(1, 3)
	return domain.Conformance{
		Problem:     p,
		ProblemJSON: json.RawMessage(`{"capacity": [2,1], "steps": 4, "types": [0,0,1,0,1], "deps": [[0,2],[1,3]]}`),
		Tightening: []any{
			Change{Kind: "add-op", Type: 1},
			Change{Kind: "add-dep", From: 2, To: 4},
		},
		TighteningJSON: []json.RawMessage{
			json.RawMessage(`{"kind":"add-op","type":1}`),
			json.RawMessage(`{"kind":"add-dep","from":2,"to":4}`),
		},
		Relaxing: []any{Change{Kind: "remove-dep", From: 1, To: 3}},
		Enable:   domain.EnableOptions{Weight: 1},
		FlexK:    1,
	}
}
