// Package ilp provides 0-1 integer linear programming: a model type, an
// exact branch-and-bound solver with pseudo-Boolean propagation and
// optional LP-relaxation bounding, warm starts, an exhaustive reference
// optimizer, and a small text format.
//
// It stands in for CPLEX in the paper's flow (§4, §8): every engineering-
// change formulation — the set-cover SAT encoding, the enabling-EC
// constraints, the preserving-EC objective — is solved through this
// package.
package ilp

import (
	"fmt"
	"math"
	"strings"
)

// Sense is a row comparison sense.
type Sense int8

const (
	// LE is Σ a_j x_j ≤ b.
	LE Sense = iota
	// GE is Σ a_j x_j ≥ b.
	GE
	// EQ is Σ a_j x_j = b.
	EQ
)

// String renders the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Coef is a sparse row coefficient: 0-based variable index and value.
type Coef struct {
	Var int
	Val float64
}

// Row is a linear constraint.
type Row struct {
	Name  string
	Coefs []Coef
	Sense Sense
	RHS   float64
}

// Model is a 0-1 ILP: all variables are binary. The zero value is unusable;
// create models with NewModel.
type Model struct {
	// Maximize selects the objective direction.
	Maximize bool

	names []string
	obj   []float64
	rows  []Row
}

// NewModel returns an empty model with the given objective direction.
func NewModel(maximize bool) *Model {
	return &Model{Maximize: maximize}
}

// AddVar appends a binary variable with the given name (may be empty) and
// objective coefficient, returning its index.
func (m *Model) AddVar(name string, objCoef float64) int {
	if name == "" {
		name = fmt.Sprintf("x%d", len(m.names))
	}
	m.names = append(m.names, name)
	m.obj = append(m.obj, objCoef)
	return len(m.names) - 1
}

// AddVars appends n unnamed zero-objective variables and returns the index
// of the first.
func (m *Model) AddVars(n int) int {
	first := len(m.names)
	for i := 0; i < n; i++ {
		m.AddVar("", 0)
	}
	return first
}

// SetObj sets the objective coefficient of variable j.
func (m *Model) SetObj(j int, c float64) {
	m.checkVar(j)
	m.obj[j] = c
}

// Obj returns the objective coefficient of variable j.
func (m *Model) Obj(j int) float64 {
	m.checkVar(j)
	return m.obj[j]
}

// VarName returns the name of variable j.
func (m *Model) VarName(j int) string {
	m.checkVar(j)
	return m.names[j]
}

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.names) }

// NumRows returns the number of rows.
func (m *Model) NumRows() int { return len(m.rows) }

// RowAt returns the i-th row (shared storage; treat as read-only).
func (m *Model) RowAt(i int) Row { return m.rows[i] }

func (m *Model) checkVar(j int) {
	if j < 0 || j >= len(m.names) {
		panic(fmt.Sprintf("ilp: variable %d out of range [0,%d)", j, len(m.names)))
	}
}

// AddRow appends a constraint and returns its index. Coefficients are
// merged per variable; zero-merged coefficients are kept (harmless).
func (m *Model) AddRow(name string, coefs []Coef, sense Sense, rhs float64) int {
	for _, c := range coefs {
		m.checkVar(c.Var)
	}
	cp := make([]Coef, len(coefs))
	copy(cp, coefs)
	m.rows = append(m.rows, Row{Name: name, Coefs: cp, Sense: sense, RHS: rhs})
	return len(m.rows) - 1
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	out := NewModel(m.Maximize)
	out.names = append([]string(nil), m.names...)
	out.obj = append([]float64(nil), m.obj...)
	out.rows = make([]Row, len(m.rows))
	for i, r := range m.rows {
		out.rows[i] = Row{Name: r.Name, Coefs: append([]Coef(nil), r.Coefs...), Sense: r.Sense, RHS: r.RHS}
	}
	return out
}

// Solution is a 0/1 value per variable.
type Solution []int8

// Clone returns an independent copy.
func (s Solution) Clone() Solution {
	out := make(Solution, len(s))
	copy(out, s)
	return out
}

// Activity returns Σ a_j x_j for the row under solution s.
func (r Row) Activity(s Solution) float64 {
	a := 0.0
	for _, c := range r.Coefs {
		if s[c.Var] != 0 {
			a += c.Val
		}
	}
	return a
}

// Satisfied reports whether solution s satisfies the row (with tolerance).
func (r Row) Satisfied(s Solution) bool {
	a := r.Activity(s)
	switch r.Sense {
	case LE:
		return a <= r.RHS+1e-9
	case GE:
		return a >= r.RHS-1e-9
	default:
		return math.Abs(a-r.RHS) <= 1e-9
	}
}

// Violation returns how far solution s is from satisfying the row
// (0 when satisfied) — used by the heuristic solver's scoring.
func (r Row) Violation(s Solution) float64 {
	a := r.Activity(s)
	switch r.Sense {
	case LE:
		if a > r.RHS {
			return a - r.RHS
		}
	case GE:
		if a < r.RHS {
			return r.RHS - a
		}
	default:
		return math.Abs(a - r.RHS)
	}
	return 0
}

// Feasible reports whether s satisfies every row of the model.
func (m *Model) Feasible(s Solution) bool {
	if len(s) != len(m.names) {
		return false
	}
	for i := range m.rows {
		if !m.rows[i].Satisfied(s) {
			return false
		}
	}
	return true
}

// NumViolated counts the rows violated by s.
func (m *Model) NumViolated(s Solution) int {
	n := 0
	for i := range m.rows {
		if !m.rows[i].Satisfied(s) {
			n++
		}
	}
	return n
}

// Objective evaluates the objective at s.
func (m *Model) Objective(s Solution) float64 {
	z := 0.0
	for j, v := range s {
		if v != 0 && j < len(m.obj) {
			z += m.obj[j]
		}
	}
	return z
}

// Better reports whether objective value a is strictly better than b under
// the model's direction.
func (m *Model) Better(a, b float64) bool {
	if m.Maximize {
		return a > b+1e-9
	}
	return a < b-1e-9
}

// WorstObjective returns the sentinel objective value that any feasible
// solution improves on.
func (m *Model) WorstObjective() float64 {
	if m.Maximize {
		return math.Inf(-1)
	}
	return math.Inf(1)
}

// Validate checks internal consistency.
func (m *Model) Validate() error {
	if len(m.obj) != len(m.names) {
		return fmt.Errorf("ilp: obj/name length mismatch")
	}
	for i, r := range m.rows {
		for _, c := range r.Coefs {
			if c.Var < 0 || c.Var >= len(m.names) {
				return fmt.Errorf("ilp: row %d references unknown variable %d", i, c.Var)
			}
			if math.IsNaN(c.Val) || math.IsInf(c.Val, 0) {
				return fmt.Errorf("ilp: row %d has non-finite coefficient", i)
			}
		}
		if math.IsNaN(r.RHS) || math.IsInf(r.RHS, 0) {
			return fmt.Errorf("ilp: row %d has non-finite rhs", i)
		}
	}
	return nil
}

// Stats summarizes model dimensions.
type Stats struct {
	Vars, Rows, NonZeros int
}

// ComputeStats returns model dimension statistics.
func (m *Model) ComputeStats() Stats {
	nz := 0
	for _, r := range m.rows {
		nz += len(r.Coefs)
	}
	return Stats{Vars: len(m.names), Rows: len(m.rows), NonZeros: nz}
}

// String renders a compact description ("max 12 vars / 30 rows / 80 nz").
func (m *Model) String() string {
	st := m.ComputeStats()
	dir := "min"
	if m.Maximize {
		dir = "max"
	}
	return fmt.Sprintf("%s %d vars / %d rows / %d nz", dir, st.Vars, st.Rows, st.NonZeros)
}

// RowString renders row i in text-format syntax, e.g. "r0: x0 + 2 x1 <= 3".
func (m *Model) RowString(i int) string {
	r := m.rows[i]
	var b strings.Builder
	if r.Name != "" {
		fmt.Fprintf(&b, "%s: ", r.Name)
	}
	coefs := append([]Coef(nil), r.Coefs...)
	sortFunc(coefs, byVar)
	for k, c := range coefs {
		v := c.Val
		switch {
		case k == 0 && v == 1:
			b.WriteString(m.names[c.Var])
		case k == 0 && v == -1:
			b.WriteString("- " + m.names[c.Var])
		case k == 0:
			fmt.Fprintf(&b, "%g %s", v, m.names[c.Var])
		case v == 1:
			b.WriteString(" + " + m.names[c.Var])
		case v == -1:
			b.WriteString(" - " + m.names[c.Var])
		case v >= 0:
			fmt.Fprintf(&b, " + %g %s", v, m.names[c.Var])
		default:
			fmt.Fprintf(&b, " - %g %s", -v, m.names[c.Var])
		}
	}
	if len(coefs) == 0 {
		b.WriteString("0")
	}
	fmt.Fprintf(&b, " %s %g", r.Sense, r.RHS)
	return b.String()
}
