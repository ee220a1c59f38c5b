package core

import (
	"encoding/binary"
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
// generic domain.Domain interface through domain.Adapt. Problem values
// are *cnf.Formula, solutions are cnf.Assignment, and changes are
// core.Change; the EC triad is carried by the Simplify/escalation
// machinery of this package.

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
func CNFWith(opts CNFOptions) domain.Domain { return domain.Adapt(&cnfDomain{opts: opts}) }

func init() { domain.Register(CNF()) }

// cnfDomain is the typed adapter behind CNFWith.
type cnfDomain struct {
	opts CNFOptions
}

func (d *cnfDomain) Name() string { return "cnf" }

func (d *cnfDomain) Validate(f *cnf.Formula) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.HasEmptyClause() {
		return fmt.Errorf("cnf: formula has an empty clause (unsatisfiable)")
	}
	return nil
}

func (d *cnfDomain) CloneProblem(f *cnf.Formula) *cnf.Formula { return f.Clone() }

func (d *cnfDomain) ProblemSize(f *cnf.Formula) (int, int) { return f.NumVars, f.NumClauses() }

// cnfProblemJSON is the wire form of a CNF problem: a DIMACS string or a
// clause list (plus an optional variable count for trailing unused
// variables).
type cnfProblemJSON struct {
	DIMACS  string  `json:"dimacs,omitempty"`
	Vars    int     `json:"vars,omitempty"`
	Clauses [][]int `json:"clauses,omitempty"`
}

func (d *cnfDomain) ParseProblem(spec json.RawMessage) (*cnf.Formula, error) {
	var req cnfProblemJSON
	dec := json.NewDecoder(strings.NewReader(string(spec)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("cnf: bad problem: %w", err)
	}
	f, err := FormulaFromWire(req.DIMACS, req.Vars, req.Clauses)
	if err != nil {
		return nil, err
	}
	// cnf.New does not allocate per variable: the encoding's two literal
	// columns per variable are what the bound protects.
	if err := domain.CheckColumns("cnf", f.NumVars, 2); err != nil {
		return nil, err
	}
	return f, nil
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

func (d *cnfDomain) RenderProblem(f *cnf.Formula) any {
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

func (d *cnfDomain) ParseChange(spec json.RawMessage) (Change, error) {
	var cj cnfChangeJSON
	if err := json.Unmarshal(spec, &cj); err != nil {
		return Change{}, fmt.Errorf("cnf: bad change: %w", err)
	}
	switch strings.ToLower(cj.Kind) {
	case "add-clause":
		if len(cj.Lits) == 0 {
			return Change{}, fmt.Errorf("add-clause needs lits")
		}
		for _, l := range cj.Lits {
			if l == 0 {
				return Change{}, fmt.Errorf("add-clause has a zero literal")
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
		return Change{}, fmt.Errorf("unknown kind %q", cj.Kind)
	}
}

func (d *cnfDomain) RenderChange(c Change) any {
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

func (d *cnfDomain) ApplyChanges(f *cnf.Formula, changes domain.Changes[Change]) (*cnf.Formula, error) {
	out, err := Apply(f, changes.Slice())
	if err != nil {
		return nil, err
	}
	if err := domain.CheckColumns("cnf", out.NumVars, 2); err != nil {
		return nil, err
	}
	return out, nil
}

func (d *cnfDomain) Tightening(c Change) bool { return c.Tightening() }

func (d *cnfDomain) CloneSolution(a cnf.Assignment) cnf.Assignment { return a.Clone() }

func (d *cnfDomain) ExtendSolution(f *cnf.Formula, a cnf.Assignment) (cnf.Assignment, error) {
	next := a.Clone().Grow(f.NumVars)
	if d.opts.FlexOnRelax {
		next = IncreaseFlexibility(f, next).Assignment
	}
	return next, nil
}

func (d *cnfDomain) Verify(f *cnf.Formula, a cnf.Assignment) error {
	if !a.Satisfies(f) {
		return fmt.Errorf("cnf: assignment does not satisfy the formula")
	}
	return nil
}

func (d *cnfDomain) Render(a cnf.Assignment) any {
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

func (d *cnfDomain) ParseSolution(f *cnf.Formula, spec json.RawMessage) (cnf.Assignment, error) {
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

func (d *cnfDomain) Agreement(prev, next cnf.Assignment) float64 {
	return next.PreservedFraction(prev)
}

func (d *cnfDomain) DontCares(a cnf.Assignment) int { return a.DontCareCount() }

func (d *cnfDomain) Flex(f *cnf.Formula, a cnf.Assignment, k int) (domain.FlexReport, error) {
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

func (d *cnfDomain) Encode(f *cnf.Formula) (*cnfEncoding, error) {
	return &cnfEncoding{e: encode.New(f)}, nil
}

// PreserveTerms reads the formula from the encoding, which Encode built
// from the same problem.
func (d *cnfDomain) PreserveTerms(ce *cnfEncoding, prev cnf.Assignment) error {
	return applyPreserveTerms(ce.e, ce.e.Formula, prev.Clone(), d.opts.Preserve)
}

func (d *cnfDomain) EnableTerms(ce *cnfEncoding, opts domain.EnableOptions) error {
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

func (d *cnfDomain) AffectedRegion(f *cnf.Formula, a cnf.Assignment) (domain.Region, error) {
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

// FingerprintProblem and FingerprintSolution append every varint into one
// buffer and write it once: the bytes are those of a domain.WriteInts per
// value, without a hash-writer call per literal.
func (d *cnfDomain) FingerprintProblem(w io.Writer, f *cnf.Formula) {
	size := 2 * binary.MaxVarintLen64
	for _, cl := range f.Clauses {
		size += 1 + 2*len(cl)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendVarint(buf, int64(f.NumVars))
	buf = binary.AppendVarint(buf, int64(len(f.Clauses)))
	for _, cl := range f.Clauses {
		buf = binary.AppendVarint(buf, int64(len(cl)))
		for _, l := range cl {
			buf = binary.AppendVarint(buf, int64(l))
		}
	}
	w.Write(buf) //nolint:errcheck // hash writers never fail
}

func (d *cnfDomain) FingerprintSolution(w io.Writer, a cnf.Assignment) {
	n := a.NumVars()
	buf := make([]byte, 0, binary.MaxVarintLen64+n)
	buf = binary.AppendVarint(buf, int64(n))
	for v := 1; v <= n; v++ {
		buf = binary.AppendVarint(buf, int64(a.Get(v)))
	}
	w.Write(buf) //nolint:errcheck // hash writers never fail
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
