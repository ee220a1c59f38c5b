package ilp

import (
	"math"
	"testing"
)

// fuzzModel decodes bytes into a model of at most 8 variables. The first
// byte picks the variable count and direction, the next n bytes the
// objective, then each row takes a header byte (sense, term count, and a
// flag forcing rhs 0), an rhs byte and one byte per term. Terms may
// repeat a variable and carry zero or negative coefficients.
func fuzzModel(data []byte) *Model {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0]%8)
	m := NewModel(data[0]&0x80 != 0)
	data = data[1:]
	for j := 0; j < n; j++ {
		c := 0.0
		if j < len(data) {
			c = float64(int(data[j]%7) - 3)
		}
		m.AddVar("", c)
	}
	if len(data) > n {
		data = data[n:]
	} else {
		data = nil
	}
	for rows := 0; len(data) >= 2 && rows < 12; rows++ {
		h, r := data[0], data[1]
		data = data[2:]
		k := 1 + int(h>>2)%4
		rhs := float64(int(r%9) - 4)
		if h&0x80 != 0 {
			rhs = 0
		}
		var coefs []Coef
		for t := 0; t < k && len(data) > 0; t++ {
			coefs = append(coefs, Coef{Var: int(data[0]) % n, Val: float64(int(data[0]>>3)%7 - 3)})
			data = data[1:]
		}
		m.AddRow("", coefs, Sense(h%3), rhs)
	}
	return m
}

// FuzzPresolveCuts checks the kernel's reductions against exhaustive
// enumeration: with presolve and cuts on, through a fresh and through a
// retained cut pool, Solve must agree with Enumerate on status and
// objective and return a feasible solution of that objective. It also
// checks that presolve ends at a fixpoint, which a worklist that misses
// a row to re-reduce breaks.
func FuzzPresolveCuts(f *testing.F) {
	f.Add([]byte{0x03, 3, 4, 5, 6, 0x05, 6, 0x08, 0x10, 0x18})
	f.Add([]byte{0x87, 0, 1, 2, 3, 4, 5, 6, 0, 0x0c, 7, 0x21, 0x2a, 0x33, 0x3c, 0x82, 4, 0x08, 0x31, 0x0d, 5, 0x19, 0x19})
	f.Add([]byte{0x05, 6, 6, 6, 6, 6, 6, 0x04, 5, 0x20, 0x29, 0x04, 5, 0x22, 0x2b, 0x04, 5, 0x21, 0x2a, 0x01, 3, 0x28, 0x29})
	f.Add([]byte{0x02, 1, 5, 2, 0x0e, 8, 0x30, 0x31, 0x32, 0x33, 0x80, 0, 0x08, 0x09})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzModel(data)
		if m == nil {
			return
		}
		// Presolve stops at a fixpoint: presolving its reduced model
		// again fixes and drops nothing.
		if p := presolveModel(m); !p.infeasible && p.reduced.NumVars() > 0 {
			if q := presolveModel(p.reduced); q.infeasible || q.nFixed != 0 || q.nRowsDropped != 0 {
				t.Fatalf("presolve is not at a fixpoint: again fixes %d, drops %d, infeasible %v\n%s",
					q.nFixed, q.nRowsDropped, q.infeasible, modelString(m))
			}
		}
		want := Enumerate(m)
		pool := NewCutPool()
		for pass, opts := range []Options{
			{Presolve: true, Cuts: true},
			{Presolve: true, Cuts: true, CutPool: pool},
			{Presolve: true, Cuts: true, CutPool: pool},
		} {
			got := Solve(m, opts)
			if got.Status != want.Status {
				t.Fatalf("pass %d: status %s, enumeration %s\n%s", pass, got.Status, want.Status, modelString(m))
			}
			if want.Status != Optimal {
				continue
			}
			if math.Abs(got.Objective-want.Objective) > 1e-9 {
				t.Fatalf("pass %d: objective %v, enumeration %v\n%s", pass, got.Objective, want.Objective, modelString(m))
			}
			if !m.Feasible(got.Solution) || math.Abs(m.Objective(got.Solution)-got.Objective) > 1e-9 {
				t.Fatalf("pass %d: solution %v infeasible or off its objective\n%s", pass, got.Solution, modelString(m))
			}
		}
	})
}

func modelString(m *Model) string {
	s := ""
	for i := 0; i < m.NumRows(); i++ {
		s += m.RowString(i) + "\n"
	}
	return s
}
