package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ilpec/internal/cnf"
	"ilpec/internal/domain"
	"ilpec/internal/encode"
	"ilpec/internal/ilp"
)

// This file adapts the paper's primary SAT/set-cover instantiation to the
// generic domain.Domain interface. Problem values are *cnf.Formula,
// solutions are cnf.Assignment, and changes are core.Change; the EC triad
// is carried by the Simplify/escalation machinery of this package.

// CNFOptions tunes the CNF adapter beyond the generic engine knobs.
type CNFOptions struct {
	// Fast carries the fast-EC policy. Only Minimal is read: the solver
	// options and the escalation bound come from the engine's
	// domain.FastOptions on each call.
	Fast FastOptions
	// Preserve carries the preservation flavor (Mode, Weight, Protected).
	Preserve PreserveOptions
	// Enable carries the enabling defaults merged under generic
	// EnableOptions (notably MaxComplementOccurrences).
	Enable EnableOptions
	// FlexOnRelax runs the §6 flexibility increase after relax-only
	// batches.
	FlexOnRelax bool
}

// CNF returns the SAT/set-cover domain adapter with default options.
func CNF() domain.Domain { return CNFWith(CNFOptions{}) }

// CNFWith returns a CNF adapter with explicit EC policies.
func CNFWith(opts CNFOptions) domain.Domain { return &cnfDomain{opts: opts} }

func init() { domain.Register(CNF()) }

type cnfDomain struct {
	opts CNFOptions
}

func (d *cnfDomain) Name() string { return "cnf" }

func (d *cnfDomain) problem(p any) (*cnf.Formula, error) {
	f, ok := p.(*cnf.Formula)
	if !ok || f == nil {
		return nil, fmt.Errorf("cnf: problem is %T, want *cnf.Formula", p)
	}
	return f, nil
}

func (d *cnfDomain) solution(s any) (cnf.Assignment, error) {
	a, ok := s.(cnf.Assignment)
	if !ok || a == nil {
		return nil, fmt.Errorf("cnf: solution is %T, want cnf.Assignment", s)
	}
	return a, nil
}

func (d *cnfDomain) Validate(p any) error {
	f, err := d.problem(p)
	if err != nil {
		return err
	}
	if err := f.Validate(); err != nil {
		return err
	}
	if f.HasEmptyClause() {
		return fmt.Errorf("cnf: formula has an empty clause (unsatisfiable)")
	}
	return nil
}

func (d *cnfDomain) CloneProblem(p any) any {
	f, err := d.problem(p)
	if err != nil {
		panic(err)
	}
	return f.Clone()
}

func (d *cnfDomain) ProblemSize(p any) (int, int) {
	f, err := d.problem(p)
	if err != nil {
		return 0, 0
	}
	return f.NumVars, f.NumClauses()
}

// cnfProblemJSON is the wire form of a CNF problem: a DIMACS string or a
// clause list (plus an optional variable count for trailing unused
// variables).
type cnfProblemJSON struct {
	DIMACS  string  `json:"dimacs,omitempty"`
	Vars    int     `json:"vars,omitempty"`
	Clauses [][]int `json:"clauses,omitempty"`
}

func (d *cnfDomain) ParseProblem(spec json.RawMessage) (any, error) {
	var req cnfProblemJSON
	dec := json.NewDecoder(strings.NewReader(string(spec)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("cnf: bad problem: %w", err)
	}
	return FormulaFromWire(req.DIMACS, req.Vars, req.Clauses)
}

// FormulaFromWire builds a formula from the fields of the CNF problem wire
// form (a DIMACS string, or a clause list with an optional variable
// count); ParseProblem decodes the JSON object and delegates here.
func FormulaFromWire(dimacs string, vars int, clauses [][]int) (*cnf.Formula, error) {
	if dimacs != "" {
		if len(clauses) > 0 {
			return nil, fmt.Errorf("give dimacs or clauses, not both")
		}
		f, err := cnf.ParseDIMACS(strings.NewReader(dimacs))
		if err != nil {
			return nil, fmt.Errorf("bad dimacs: %w", err)
		}
		return f, nil
	}
	if len(clauses) == 0 {
		if vars > 0 {
			// A clause-free formula over an explicit universe is valid (all
			// clauses may have been removed by changes); the wire form must
			// round-trip it.
			return cnf.New(vars), nil
		}
		return nil, fmt.Errorf("missing formula: give dimacs or clauses")
	}
	f := cnf.New(vars)
	for i, raw := range clauses {
		if len(raw) == 0 {
			return nil, fmt.Errorf("clause %d is empty", i)
		}
		cl := make(cnf.Clause, len(raw))
		for j, l := range raw {
			if l == 0 {
				return nil, fmt.Errorf("clause %d has a zero literal", i)
			}
			cl[j] = cnf.Lit(l)
		}
		f.AddClause(cl)
	}
	return f, nil
}

func (d *cnfDomain) RenderProblem(p any) any {
	f, err := d.problem(p)
	if err != nil {
		return nil
	}
	if f.NumVars == 0 && len(f.Clauses) == 0 {
		// Both wire fields are omitempty, so the empty formula would render
		// as {} — which ParseProblem rejects as "missing formula". Explicit
		// DIMACS is the one wire form that can carry it.
		return cnfProblemJSON{DIMACS: "p cnf 0 0\n"}
	}
	clauses := make([][]int, len(f.Clauses))
	for i, cl := range f.Clauses {
		lits := make([]int, len(cl))
		for j, l := range cl {
			lits[j] = int(l)
		}
		clauses[i] = lits
	}
	return cnfProblemJSON{Vars: f.NumVars, Clauses: clauses}
}

// cnfChangeJSON is the wire form of a core.Change.
type cnfChangeJSON struct {
	// Kind is "add-clause", "remove-clause", "add-variable", or
	// "remove-variable".
	Kind  string `json:"kind"`
	Lits  []int  `json:"lits,omitempty"`
	Index int    `json:"index,omitempty"`
	Var   int    `json:"var,omitempty"`
}

func (d *cnfDomain) ParseChange(spec json.RawMessage) (any, error) {
	var cj cnfChangeJSON
	if err := json.Unmarshal(spec, &cj); err != nil {
		return nil, fmt.Errorf("cnf: bad change: %w", err)
	}
	switch strings.ToLower(cj.Kind) {
	case "add-clause":
		if len(cj.Lits) == 0 {
			return nil, fmt.Errorf("add-clause needs lits")
		}
		for _, l := range cj.Lits {
			if l == 0 {
				return nil, fmt.Errorf("add-clause has a zero literal")
			}
		}
		return NewClause(cj.Lits...), nil
	case "remove-clause":
		return DropClause(cj.Index), nil
	case "add-variable":
		return GrowVariable(), nil
	case "remove-variable":
		return EliminateVariable(cj.Var), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", cj.Kind)
	}
}

func (d *cnfDomain) RenderChange(change any) any {
	c, ok := change.(Change)
	if !ok {
		return nil
	}
	cj := cnfChangeJSON{Kind: c.Kind.String()}
	switch c.Kind {
	case AddClause:
		cj.Lits = make([]int, len(c.Clause))
		for i, l := range c.Clause {
			cj.Lits[i] = int(l)
		}
	case RemoveClause:
		cj.Index = c.Index
	case RemoveVariable:
		cj.Var = c.Var
	}
	return cj
}

func (d *cnfDomain) ApplyChanges(p any, changes []any) (any, error) {
	f, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	typed := make([]Change, len(changes))
	for i, c := range changes {
		ch, ok := c.(Change)
		if !ok {
			return nil, fmt.Errorf("cnf: change %d is %T, want core.Change", i, c)
		}
		typed[i] = ch
	}
	return Apply(f, typed)
}

func (d *cnfDomain) Tightening(change any) bool {
	c, ok := change.(Change)
	return ok && c.Tightening()
}

func (d *cnfDomain) CloneSolution(s any) any {
	a, err := d.solution(s)
	if err != nil {
		panic(err)
	}
	return a.Clone()
}

func (d *cnfDomain) ExtendSolution(p, prev any) (any, error) {
	f, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	a, err := d.solution(prev)
	if err != nil {
		return nil, err
	}
	next := a.Clone().Grow(f.NumVars)
	if d.opts.FlexOnRelax {
		next = IncreaseFlexibility(f, next).Assignment
	}
	return next, nil
}

func (d *cnfDomain) Verify(p, s any) error {
	f, err := d.problem(p)
	if err != nil {
		return err
	}
	a, err := d.solution(s)
	if err != nil {
		return err
	}
	if !a.Satisfies(f) {
		return fmt.Errorf("cnf: assignment does not satisfy the formula")
	}
	return nil
}

func (d *cnfDomain) Render(p, s any) any {
	a, err := d.solution(s)
	if err != nil {
		return nil
	}
	lits := make([]int, 0, a.AssignedCount())
	for v := 1; v <= a.NumVars(); v++ {
		switch a.Get(v) {
		case cnf.True:
			lits = append(lits, v)
		case cnf.False:
			lits = append(lits, -v)
		}
	}
	return lits
}

func (d *cnfDomain) ParseSolution(p any, spec json.RawMessage) (any, error) {
	f, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	var lits []int
	if err := json.Unmarshal(spec, &lits); err != nil {
		return nil, fmt.Errorf("cnf: bad solution: %w", err)
	}
	a := cnf.NewAssignment(f.NumVars)
	for _, l := range lits {
		v := l
		val := cnf.True
		if l < 0 {
			v, val = -l, cnf.False
		}
		if v < 1 || v > f.NumVars {
			return nil, fmt.Errorf("cnf: solution literal %d out of range [1,%d]", l, f.NumVars)
		}
		a.Set(v, val)
	}
	return a, nil
}

func (d *cnfDomain) Agreement(prev, next any) float64 {
	pa, err1 := d.solution(prev)
	na, err2 := d.solution(next)
	if err1 != nil || err2 != nil {
		return 0
	}
	return na.PreservedFraction(pa)
}

func (d *cnfDomain) DontCares(p, s any) int {
	a, err := d.solution(s)
	if err != nil {
		return 0
	}
	return a.DontCareCount()
}

func (d *cnfDomain) Flex(p, s any, k int) (domain.FlexReport, error) {
	f, err := d.problem(p)
	if err != nil {
		return domain.FlexReport{}, err
	}
	a, err := d.solution(s)
	if err != nil {
		return domain.FlexReport{}, err
	}
	if k <= 0 {
		k = 2
	}
	rep := VerifyFlexibility(f, a, k)
	return domain.FlexReport{
		Total:    rep.Total,
		Flexible: rep.Flexible(),
		Detail: map[string]int{
			"k_satisfied": rep.KSatisfied,
			"supported":   rep.Supported,
		},
	}, nil
}

// cnfEncoding wraps the §3 set-cover encoding.
type cnfEncoding struct {
	e *encode.Encoding
}

func (ce *cnfEncoding) ILP() *ilp.Model { return ce.e.Model }

func (ce *cnfEncoding) Decode(sol ilp.Solution) (any, error) {
	return ce.e.Decode(sol), nil
}

func (ce *cnfEncoding) WarmStart(sol any) (ilp.Solution, bool) {
	a, ok := sol.(cnf.Assignment)
	if !ok || a == nil {
		return nil, false
	}
	return ce.e.EncodeAssignment(a.Clone().Grow(ce.e.NumVars)), true
}

func (d *cnfDomain) Encode(p any) (domain.Encoding, error) {
	f, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	return &cnfEncoding{e: encode.New(f)}, nil
}

func (d *cnfDomain) PreserveTerms(enc domain.Encoding, p, prev any) error {
	ce, ok := enc.(*cnfEncoding)
	if !ok {
		return fmt.Errorf("cnf: encoding is %T", enc)
	}
	f, err := d.problem(p)
	if err != nil {
		return err
	}
	a, err := d.solution(prev)
	if err != nil {
		return err
	}
	return applyPreserveTerms(ce.e, f, a.Clone(), d.opts.Preserve)
}

func (d *cnfDomain) EnableTerms(enc domain.Encoding, p any, opts domain.EnableOptions) error {
	ce, ok := enc.(*cnfEncoding)
	if !ok {
		return fmt.Errorf("cnf: encoding is %T", enc)
	}
	eopts := d.opts.Enable
	if opts.Hard {
		eopts.Mode = EnableConstraints
	} else {
		eopts.Mode = EnableObjective
	}
	if opts.K > 0 {
		eopts.K = opts.K
	}
	if opts.Weight > 0 {
		eopts.Weight = opts.Weight
	}
	buildEnableOn(ce.e, eopts)
	return nil
}

// cnfRegion is the fast-EC region: the Figure-2 closure with its
// escalation ladder (minimal closure → full closure → occurrence rings →
// full re-solve).
type cnfRegion struct {
	fPrime           *cnf.Formula
	p                cnf.Assignment
	simp             SimplifyResult
	triedFullClosure bool
	full             bool
	// varOf maps compact sub-variables back to originals for the most
	// recent Encoding call (nil in full mode).
	varOf []int
}

func (d *cnfDomain) AffectedRegion(p, prev any) (domain.Region, error) {
	f, err := d.problem(p)
	if err != nil {
		return nil, err
	}
	a, err := d.solution(prev)
	if err != nil {
		return nil, err
	}
	if f.HasEmptyClause() {
		return nil, fmt.Errorf("cnf: changed formula has an empty clause (unsatisfiable)")
	}
	grown := a.Clone().Grow(f.NumVars)
	var simp SimplifyResult
	if d.opts.Fast.Minimal {
		simp = SimplifyMinimal(f, grown)
	} else {
		simp = Simplify(f, grown)
	}
	if simp.AlreadySatisfied {
		return nil, nil
	}
	return &cnfRegion{
		fPrime:           f,
		p:                grown,
		simp:             simp,
		triedFullClosure: !d.opts.Fast.Minimal,
	}, nil
}

func (r *cnfRegion) Size() int {
	if r.full {
		return r.fPrime.NumVars
	}
	return len(r.simp.Vars)
}

func (r *cnfRegion) Full() bool { return r.full }

func (r *cnfRegion) Encoding() (domain.Encoding, error) {
	if r.full {
		r.varOf = nil
		return &cnfEncoding{e: encode.New(r.fPrime)}, nil
	}
	sub, varOf := SubFormula(r.fPrime, r.p, r.simp)
	r.varOf = varOf
	return &cnfSubEncoding{e: encode.New(sub), varOf: varOf}, nil
}

func (r *cnfRegion) Merge(sub any) (any, error) {
	subAsg, ok := sub.(cnf.Assignment)
	if !ok {
		return nil, fmt.Errorf("cnf: sub-solution is %T", sub)
	}
	if r.full {
		return subAsg, nil
	}
	merged := r.p.Clone()
	for v, val := range r.simp.Reserved {
		merged.Set(v, val) // §6 recovered don't-cares
	}
	for cv := 1; cv < len(r.varOf); cv++ {
		merged.Set(r.varOf[cv], subAsg.Get(cv))
	}
	return merged, nil
}

func (r *cnfRegion) Escalate() bool {
	if r.full {
		return false
	}
	if !r.triedFullClosure {
		r.triedFullClosure = true
		r.simp = Simplify(r.fPrime, r.p)
		return true
	}
	grown := escalate(r.fPrime, r.p, r.simp)
	if len(grown.Vars) == len(r.simp.Vars) {
		return false
	}
	r.simp = grown
	return true
}

func (r *cnfRegion) EscalateToFull() { r.full = true }

// cnfSubEncoding encodes the compact sub-formula over the region
// variables; warm starts project the full previous solution onto it.
type cnfSubEncoding struct {
	e     *encode.Encoding
	varOf []int
}

func (se *cnfSubEncoding) ILP() *ilp.Model { return se.e.Model }

func (se *cnfSubEncoding) Decode(sol ilp.Solution) (any, error) {
	return se.e.Decode(sol), nil
}

func (se *cnfSubEncoding) WarmStart(sol any) (ilp.Solution, bool) {
	p, ok := sol.(cnf.Assignment)
	if !ok || p == nil {
		return nil, false
	}
	return warmFromOriginal(se.e, p, se.varOf), true
}

func (d *cnfDomain) FingerprintProblem(w io.Writer, p any) {
	f, err := d.problem(p)
	if err != nil {
		domain.WriteString(w, "cnf-bad-problem")
		return
	}
	domain.WriteInts(w, int64(f.NumVars), int64(len(f.Clauses)))
	for _, cl := range f.Clauses {
		domain.WriteInts(w, int64(len(cl)))
		for _, l := range cl {
			domain.WriteInts(w, int64(l))
		}
	}
}

func (d *cnfDomain) FingerprintSolution(w io.Writer, s any) {
	a, err := d.solution(s)
	if err != nil {
		domain.WriteString(w, "cnf-bad-solution")
		return
	}
	n := a.NumVars()
	domain.WriteInts(w, int64(n))
	for v := 1; v <= n; v++ {
		domain.WriteInts(w, int64(a.Get(v)))
	}
}

// Conformance supplies the shared domain test fixture.
func (d *cnfDomain) Conformance() domain.Conformance {
	return domain.Conformance{
		Problem: cnf.FromClauses(
			[]int{1, 2}, []int{-1, 3}, []int{2, 4}, []int{-3, -4, 5}, []int{5, 6},
		),
		ProblemJSON: json.RawMessage(`{"clauses": [[1,2],[-1,3],[2,4],[-3,-4,5],[5,6]]}`),
		Tightening:  []any{NewClause(-2, 3), NewClause(1, 4)},
		TighteningJSON: []json.RawMessage{
			json.RawMessage(`{"kind":"add-clause","lits":[-2,3]}`),
			json.RawMessage(`{"kind":"add-clause","lits":[1,4]}`),
		},
		Relaxing: []any{GrowVariable(), DropClause(0)},
		Enable:   domain.EnableOptions{K: 2, Weight: 2},
		FlexK:    2,
	}
}
