// Package encode translates SAT instances into 0-1 ILP models through the
// set-cover formulation of §3 of the paper, and decodes ILP solutions back
// into (partial) truth assignments.
//
// The encoding uses 2n literal-selection variables for an n-variable
// formula: column i (0-based i = v-1) selects the positive literal of
// variable v, column n+i selects the negative literal. Each clause yields a
// cover row (at least one of its literals' columns must be selected) and
// each variable a consistency row (both polarities cannot be selected).
// The objective minimizes the number of selected literals, which maximizes
// don't-care variables — the property fast EC exploits (§6).
package encode

import (
	"fmt"
	"strconv"

	"ilpec/internal/cnf"
	"ilpec/internal/ilp"
)

// Encoding ties an ILP model to the SAT instance it encodes.
type Encoding struct {
	// Model is the set-cover ILP.
	Model *ilp.Model
	// Formula is the encoded SAT instance (not copied; do not mutate while
	// the encoding is in use).
	Formula *cnf.Formula
	// NumVars is the number of SAT variables n; ILP columns 0..n-1 are
	// positive literals, n..2n-1 negative literals.
	NumVars int
	// CoverRow maps clause index -> ILP row index of its cover row.
	CoverRow []int
	// ConsistencyRow maps variable v (1-based) -> ILP row index of
	// x_pos + x_neg ≤ 1; index 0 unused.
	ConsistencyRow []int
}

// PosCol returns the ILP column of variable v's positive literal.
func (e *Encoding) PosCol(v int) int { return v - 1 }

// NegCol returns the ILP column of variable v's negative literal.
func (e *Encoding) NegCol(v int) int { return e.NumVars + v - 1 }

// LitCol returns the ILP column selecting literal l.
func (e *Encoding) LitCol(l cnf.Lit) int {
	if l.Pos() {
		return e.PosCol(l.Var())
	}
	return e.NegCol(l.Var())
}

// ColLit is the inverse of LitCol.
func (e *Encoding) ColLit(col int) cnf.Lit {
	if col < e.NumVars {
		return cnf.Lit(col + 1)
	}
	return cnf.Lit(-(col - e.NumVars + 1))
}

// New builds the set-cover encoding of f.
func New(f *cnf.Formula) *Encoding {
	n := f.NumVars
	m := ilp.NewModel(false) // minimize selected literals
	e := &Encoding{
		Model:          m,
		Formula:        f,
		NumVars:        n,
		CoverRow:       make([]int, len(f.Clauses)),
		ConsistencyRow: make([]int, n+1),
	}
	cols, coverNames, consNames := names(n, len(f.Clauses))
	for _, name := range cols {
		m.AddVar(name, 1)
	}
	// AddRow copies its coefficients, so one buffer serves every row;
	// seen[col] == ci+1 marks the columns clause ci already selected.
	var coefs []ilp.Coef
	seen := make([]int, 2*n)
	for ci, cl := range f.Clauses {
		coefs = coefs[:0]
		for _, l := range cl {
			col := e.LitCol(l)
			if seen[col] != ci+1 {
				seen[col] = ci + 1
				coefs = append(coefs, ilp.Coef{Var: col, Val: 1})
			}
		}
		e.CoverRow[ci] = m.AddRow(coverNames[ci], coefs, ilp.GE, 1)
	}
	for v := 1; v <= n; v++ {
		coefs = append(coefs[:0], ilp.Coef{Var: e.PosCol(v), Val: 1}, ilp.Coef{Var: e.NegCol(v), Val: 1})
		e.ConsistencyRow[v] = m.AddRow(consNames[v-1], coefs, ilp.LE, 1)
	}
	return e
}

// names returns the encoding's names for n variables and m clauses: the
// columns p1..pn n1..nn, the cover rows c0..c(m-1) and the consistency
// rows v1..vn. They are the strings fmt.Sprintf("%c%d") gives, cut from
// one string instead of allocated one by one.
func names(n, m int) (cols, cover, consistency []string) {
	total := 3*n + m
	buf := make([]byte, 0, total*(1+len(strconv.Itoa(max(n, m)))))
	ends := make([]int, 0, total)
	add := func(prefix byte, from, to int) {
		for i := from; i < to; i++ {
			buf = append(buf, prefix)
			buf = strconv.AppendInt(buf, int64(i), 10)
			ends = append(ends, len(buf))
		}
	}
	add('p', 1, n+1)
	add('n', 1, n+1)
	add('c', 0, m)
	add('v', 1, n+1)
	all := string(buf)
	out := make([]string, total)
	start := 0
	for k, end := range ends {
		out[k] = all[start:end]
		start = end
	}
	return out[:2*n], out[2*n : 2*n+m], out[2*n+m:]
}

// Decode converts an ILP solution into a partial truth assignment:
// selected positive column → True, selected negative column → False,
// neither → don't-care.
func (e *Encoding) Decode(sol ilp.Solution) cnf.Assignment {
	a := cnf.NewAssignment(e.NumVars)
	for v := 1; v <= e.NumVars; v++ {
		switch {
		case sol[e.PosCol(v)] == 1:
			a.Set(v, cnf.True)
		case sol[e.NegCol(v)] == 1:
			a.Set(v, cnf.False)
		}
	}
	return a
}

// EncodeAssignment converts a (partial) truth assignment into an ILP
// solution vector: committed variables select the matching literal column.
func (e *Encoding) EncodeAssignment(a cnf.Assignment) ilp.Solution {
	sol := make(ilp.Solution, e.Model.NumVars())
	for v := 1; v <= e.NumVars; v++ {
		switch a.Get(v) {
		case cnf.True:
			sol[e.PosCol(v)] = 1
		case cnf.False:
			sol[e.NegCol(v)] = 1
		}
	}
	return sol
}

// Verify checks the encoding invariant on a solved model: a feasible ILP
// solution decodes to an assignment satisfying the formula.
func (e *Encoding) Verify(sol ilp.Solution) error {
	if !e.Model.Feasible(sol) {
		return fmt.Errorf("encode: solution infeasible for the ILP")
	}
	a := e.Decode(sol)
	if !a.Satisfies(e.Formula) {
		return fmt.Errorf("encode: decoded assignment does not satisfy the formula")
	}
	return nil
}
