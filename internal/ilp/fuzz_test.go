package ilp

import (
	"fmt"
	"math"
	"slices"
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

// FuzzInstanceDeltas drives one Instance through a decoded delta script
// on a fuzzModel model and checks every exact resolve against Solve of an
// identically edited scratch model (status and objective) and against
// Feasible. The script runs once under the combinatorial bound and once
// under the LP bound; with presolve and cuts off, those resolves run on
// the retained kernel, patched for RHS edits or rebuilt for structural
// ones.
//
// Each script op takes an op byte and two argument bytes. The op byte's
// low three bits pick the delta: 0 SetRHS on a named row (the new
// right-hand side may move a row onto or off the cover boundary, RHS 1),
// 1 AddRows (a row that is a unit cover row when the first argument's
// high bit is set), 2 RemoveRows, 3 SetObj, 4 PinVar, 5 UnpinVar, 6 a
// MaxNodes: 1 resolve, 7 no edit. Unless the op byte's high bit is set,
// an exact resolve follows the op, so several deltas can pile up between
// resolves.
func FuzzInstanceDeltas(f *testing.F) {
	f.Add([]byte{0x03, 3, 4, 5, 6, 0x05, 6, 0x08, 0x10, 0x18}, []byte{0, 0, 5, 7, 0, 0, 0, 1, 3, 6, 0, 0, 0x80, 1, 4})
	f.Add([]byte{0x87, 0, 1, 2, 3, 4, 5, 6, 0, 0x0c, 7, 0x21, 0x2a, 0x33, 0x3c, 0x82, 4, 0x08, 0x31, 0x0d, 5, 0x19, 0x19},
		[]byte{1, 0x93, 0x41, 4, 2, 1, 0, 1, 5, 4, 2, 0, 0x83, 3, 3, 5, 2, 0, 2, 0, 0, 6, 0, 0, 0, 0, 0})
	f.Add([]byte{0x05, 6, 6, 6, 6, 6, 6, 0x04, 5, 0x20, 0x29, 0x04, 5, 0x22, 0x2b, 0x04, 5, 0x21, 0x2a, 0x01, 3, 0x28, 0x29},
		[]byte{0x80, 0, 5, 0x80, 1, 5, 0, 2, 3, 7, 0, 0, 4, 3, 0, 4, 3, 1, 6, 0, 0, 0, 0, 2, 5, 3, 0})
	f.Fuzz(func(t *testing.T, model, script []byte) {
		base := fuzzModel(model)
		if base == nil {
			return
		}
		for i := range base.rows {
			base.rows[i].Name = fmt.Sprintf("r%d", i)
		}
		for _, opts := range []Options{{}, {Bounding: LPBound}} {
			runDeltaScript(t, base, script, opts)
		}
	})
}

// runDeltaScript applies script (see FuzzInstanceDeltas) to an Instance
// over a clone of base and to a scratch clone, resolving as it goes.
func runDeltaScript(t *testing.T, base *Model, script []byte, opts Options) {
	t.Helper()
	inst := NewInstance(base.Clone())
	scratch := base.Clone()
	var names []string
	for _, r := range base.rows {
		names = append(names, r.Name)
	}
	n := scratch.NumVars()
	check := func(step int, got Result, exact bool) {
		t.Helper()
		tag := fmt.Sprintf("bounding %d step %d", opts.Bounding, step)
		if got.Solution != nil && (!scratch.Feasible(got.Solution) || math.Abs(scratch.Objective(got.Solution)-got.Objective) > 1e-9) {
			t.Fatalf("%s: solution %v infeasible or off its objective %v\n%s", tag, got.Solution, got.Objective, modelString(scratch))
		}
		if !exact && got.Status != Optimal && got.Status != Infeasible {
			return // a truncated resolve proves nothing
		}
		want := Solve(scratch, opts)
		if got.Status != want.Status {
			t.Fatalf("%s: status %s, scratch %s\n%s", tag, got.Status, want.Status, modelString(scratch))
		}
		if want.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("%s: objective %v, scratch %v\n%s", tag, got.Objective, want.Objective, modelString(scratch))
		}
	}
	check(-1, inst.Resolve(opts), true)
	for step := 0; len(script) >= 3 && step < 24; step++ {
		op, a, b := script[0], script[1], script[2]
		script = script[3:]
		switch op % 8 {
		case 0:
			if len(names) == 0 {
				break
			}
			name := names[int(a)%len(names)]
			rhs := float64(int(b%6) - 2)
			inst.SetRHS(name, rhs)
			for i := range scratch.rows {
				if scratch.rows[i].Name == name {
					scratch.rows[i].RHS = rhs
				}
			}
		case 1:
			name := fmt.Sprintf("a%d", step)
			coefs := []Coef{{Var: int(a) % n, Val: 1}, {Var: int(b) % n, Val: 1}}
			row := Row{Name: name, Coefs: coefs, Sense: GE, RHS: 1}
			if a&0x80 == 0 {
				coefs[1].Val = float64(int(b>>3)%7 - 3)
				row.Sense, row.RHS = Sense((a>>4)%3), float64(int(b%9)-4)
			}
			inst.AddRows([]Row{row})
			scratch.AddRow(row.Name, row.Coefs, row.Sense, row.RHS)
			names = append(names, name)
		case 2:
			if len(names) == 0 {
				break
			}
			k := int(a) % len(names)
			name := names[k]
			names = slices.Delete(names, k, k+1)
			inst.RemoveRows([]string{name})
			scratch.rows = slices.DeleteFunc(scratch.rows, func(r Row) bool { return r.Name == name })
		case 3:
			c := float64(int(b%7) - 3)
			inst.SetObj(int(a)%n, c)
			scratch.SetObj(int(a)%n, c)
		case 4:
			inst.PinVar(int(a)%n, int8(b&1))
			upsertPin(scratch, int(a)%n, int8(b&1))
		case 5:
			inst.UnpinVar(int(a) % n)
			dropPin(scratch, int(a)%n)
		case 6:
			limited := opts
			limited.MaxNodes = 1
			check(step, inst.Resolve(limited), false)
			continue
		}
		if op&0x80 == 0 {
			check(step, inst.Resolve(opts), true)
		}
	}
}

func modelString(m *Model) string {
	s := ""
	for i := 0; i < m.NumRows(); i++ {
		s += m.RowString(i) + "\n"
	}
	return s
}
