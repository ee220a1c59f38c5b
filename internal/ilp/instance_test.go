package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// knapsackModel builds a small mixed model: a knapsack row, a cover row,
// and a capacity row — the EC re-solve shape in miniature.
func knapsackModel() *Model {
	m := NewModel(false)
	for j := 0; j < 8; j++ {
		m.AddVar("", float64(1+j%4))
	}
	m.AddRow("kn", []Coef{{0, 5}, {1, 4}, {2, 3}, {3, 2}}, LE, 8)
	m.AddRow("cov", []Coef{{2, 1}, {3, 1}, {4, 1}, {5, 1}}, GE, 1)
	m.AddRow("cap", []Coef{{4, 2}, {5, 2}, {6, 2}, {7, 2}}, LE, 6)
	return m
}

func assertSameAnswer(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", tag, got.Status, want.Status)
	}
	if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("%s: objective %v, want %v", tag, got.Objective, want.Objective)
	}
}

// TestInstanceRHSDeltaMatchesScratch drives a sequence of RHS edits
// through one Instance and checks every resolve against a scratch solve
// of an identical model, including the new counters.
func TestInstanceRHSDeltaMatchesScratch(t *testing.T) {
	inst := NewInstance(knapsackModel())
	res := inst.Resolve(Options{})
	assertSameAnswer(t, "initial", res, Solve(knapsackModel(), Options{}))
	if res.InstanceReused != 0 || res.RowsDelta != 0 {
		t.Fatalf("first resolve counters: reused=%d delta=%d, want 0/0", res.InstanceReused, res.RowsDelta)
	}

	rhs := []float64{7, 5, 9, 8, 6}
	for step, b := range rhs {
		if !inst.SetRHS("kn", b) {
			t.Fatalf("SetRHS kn failed")
		}
		scratch := knapsackModel()
		scratch.rows[0].RHS = b
		want := Solve(scratch, Options{})
		got := inst.Resolve(Options{})
		assertSameAnswer(t, fmt.Sprintf("step %d rhs=%g", step, b), got, want)
		if got.InstanceReused != int64(step+1) {
			t.Fatalf("step %d: InstanceReused=%d, want %d", step, got.InstanceReused, step+1)
		}
		if got.RowsDelta != 1 {
			t.Fatalf("step %d: RowsDelta=%d, want 1", step, got.RowsDelta)
		}
	}
}

// TestInstanceNoopResolve: a second resolve of an unchanged model re-runs
// the retained kernel with nothing to patch and answers the same.
func TestInstanceNoopResolve(t *testing.T) {
	inst := NewInstance(knapsackModel())
	first := inst.Resolve(Options{})
	if first.Status != Optimal {
		t.Fatalf("status %v", first.Status)
	}
	second := inst.Resolve(Options{})
	assertSameAnswer(t, "noop", second, first)
	if second.InstanceReused != 1 || second.RowsDelta != 0 {
		t.Fatalf("noop counters: reused=%d delta=%d", second.InstanceReused, second.RowsDelta)
	}
	// A node-limited resolve may stop short, but must never claim a wrong
	// optimum.
	third := inst.Resolve(Options{MaxNodes: 1})
	if third.Status == Optimal && math.Abs(third.Objective-first.Objective) > 1e-9 {
		t.Fatalf("limited resolve returned a wrong 'optimal': %+v", third)
	}
}

// TestInstanceAddRemoveRows: row adds and removes rebuild correctly and
// match scratch solves; removal by name also covers compaction.
func TestInstanceAddRemoveRows(t *testing.T) {
	inst := NewInstance(knapsackModel())
	inst.Resolve(Options{})

	inst.AddRows([]Row{
		{Name: "extra", Coefs: []Coef{{0, 1}, {7, 1}}, Sense: LE, RHS: 1},
		{Name: "force", Coefs: []Coef{{6, 1}, {7, 1}}, Sense: GE, RHS: 1},
	})
	scratch := knapsackModel()
	scratch.AddRow("extra", []Coef{{0, 1}, {7, 1}}, LE, 1)
	scratch.AddRow("force", []Coef{{6, 1}, {7, 1}}, GE, 1)
	got := inst.Resolve(Options{})
	assertSameAnswer(t, "after add", got, Solve(scratch, Options{}))
	if got.RowsDelta != 2 {
		t.Fatalf("RowsDelta=%d, want 2", got.RowsDelta)
	}

	if n := inst.RemoveRows([]string{"extra", "nosuch"}); n != 1 {
		t.Fatalf("RemoveRows removed %d, want 1", n)
	}
	scratch2 := knapsackModel()
	scratch2.AddRow("force", []Coef{{6, 1}, {7, 1}}, GE, 1)
	assertSameAnswer(t, "after remove", inst.Resolve(Options{}), Solve(scratch2, Options{}))
	if fp := inst.Fingerprint(); fp != ModelFingerprint(scratch2) {
		t.Fatalf("fingerprint after remove diverged from scratch model")
	}
}

// TestInstancePinVar: pins force values through resolves and unpin
// restores the original optimum.
func TestInstancePinVar(t *testing.T) {
	inst := NewInstance(knapsackModel())
	base := inst.Resolve(Options{})

	inst.PinVar(4, 1)
	res := inst.Resolve(Options{})
	if res.Status != Optimal || res.Solution[4] != 1 {
		t.Fatalf("pin to 1 not honored: %+v", res)
	}
	inst.PinVar(4, 0)
	res = inst.Resolve(Options{})
	if res.Status != Optimal || res.Solution[4] != 0 {
		t.Fatalf("re-pin to 0 not honored: %+v", res)
	}
	if !inst.UnpinVar(4) {
		t.Fatal("UnpinVar found no pin")
	}
	if inst.UnpinVar(4) {
		t.Fatal("double unpin succeeded")
	}
	assertSameAnswer(t, "after unpin", inst.Resolve(Options{}), base)
}

// TestInstanceCoverGuardRebuild: an RHS edit that moves a GE row onto or
// off RHS 1 crosses the cover-structure boundary and must still answer
// exactly (the instance rebuilds the kernel under the hood).
func TestInstanceCoverGuardRebuild(t *testing.T) {
	inst := NewInstance(knapsackModel())
	inst.Resolve(Options{})
	for _, b := range []float64{2, 1, 3} {
		inst.SetRHS("cov", b)
		scratch := knapsackModel()
		scratch.rows[1].RHS = b
		assertSameAnswer(t, fmt.Sprintf("cov rhs=%g", b), inst.Resolve(Options{}), Solve(scratch, Options{}))
	}
}

// TestInstanceCutsReseparation: with cuts on, an instance re-solve after
// one row edit only re-separates that row.
func TestInstanceCutsReseparation(t *testing.T) {
	inst := NewInstance(knapsackModel())
	pool := NewCutPool()
	first := inst.Resolve(Options{Cuts: true, CutPool: pool})
	if first.ReseparatedRows == 0 {
		t.Fatalf("first cut solve separated no rows: %+v", first)
	}
	inst.SetRHS("kn", 7)
	second := inst.Resolve(Options{Cuts: true, CutPool: pool})
	if second.ReseparatedRows >= first.ReseparatedRows {
		t.Fatalf("re-solve re-separated %d rows (first %d), want fewer",
			second.ReseparatedRows, first.ReseparatedRows)
	}
	assertSameAnswer(t, "cuts delta", second, func() Result {
		m := knapsackModel()
		m.rows[0].RHS = 7
		return Solve(m, Options{})
	}())
}

// TestInstancePresolveCacheReuse: resolving an unchanged model twice with
// presolve on under different node budgets answers exactly both times.
func TestInstancePresolveCacheReuse(t *testing.T) {
	inst := NewInstance(knapsackModel())
	want := Solve(knapsackModel(), Options{})
	a := inst.Resolve(Options{Presolve: true, MaxNodes: 1 << 20})
	b := inst.Resolve(Options{Presolve: true, MaxNodes: 1 << 21})
	assertSameAnswer(t, "presolve a", a, want)
	assertSameAnswer(t, "presolve b", b, want)
}

// TestInstanceCompaction: removing many rows triggers tombstone
// compaction without changing answers or addressability.
func TestInstanceCompaction(t *testing.T) {
	m := NewModel(false)
	for j := 0; j < 10; j++ {
		m.AddVar("", 1)
	}
	var names []string
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("r%d", i)
		names = append(names, name)
		m.AddRow(name, []Coef{{i % 10, 1}, {(i + 1) % 10, 1}}, LE, 1)
	}
	m.AddRow("keep", []Coef{{0, 1}, {5, 1}}, GE, 1)
	inst := NewInstance(m)
	inst.Resolve(Options{})
	if n := inst.RemoveRows(names); n != 40 {
		t.Fatalf("removed %d, want 40", n)
	}
	if inst.m.NumRows() != 1 {
		t.Fatalf("compaction left %d rows, want 1", inst.m.NumRows())
	}
	scratch := NewModel(false)
	for j := 0; j < 10; j++ {
		scratch.AddVar("", 1)
	}
	scratch.AddRow("keep", []Coef{{0, 1}, {5, 1}}, GE, 1)
	assertSameAnswer(t, "after compaction", inst.Resolve(Options{}), Solve(scratch, Options{}))
	if !inst.SetRHS("keep", 2) {
		t.Fatal("surviving row lost addressability after compaction")
	}
}

// TestInstanceRandomDifferential: random delta scripts through an
// Instance must answer exactly like scratch solves of an identically
// mutated model, under every options shape.
func TestInstanceRandomDifferential(t *testing.T) {
	optsList := []Options{
		{},
		{Bounding: LPBound},
		{Presolve: true, Cuts: true},
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := optsList[seed%int64(len(optsList))]
		build := func() *Model {
			m := NewModel(rng.Intn(2) == 0)
			n := 6 + rng.Intn(5)
			for j := 0; j < n; j++ {
				m.AddVar("", float64(rng.Intn(7)-3))
			}
			for i := 0; i < 4+rng.Intn(4); i++ {
				var coefs []Coef
				for j := 0; j < n; j++ {
					if rng.Intn(3) == 0 {
						coefs = append(coefs, Coef{j, float64(1 + rng.Intn(4))})
					}
				}
				if len(coefs) == 0 {
					coefs = []Coef{{rng.Intn(n), 1}}
				}
				m.AddRow(fmt.Sprintf("r%d", i), coefs, Sense(rng.Intn(3)), float64(rng.Intn(6)))
			}
			return m
		}
		base := build()
		inst := NewInstance(base.Clone())
		scratch := base.Clone()
		assertSameAnswer(t, fmt.Sprintf("seed %d initial", seed), inst.Resolve(opts), Solve(scratch, opts))

		for step := 0; step < 8; step++ {
			switch rng.Intn(4) {
			case 0: // RHS edit on a random live named row
				i := rng.Intn(scratch.NumRows())
				name := scratch.RowAt(i).Name
				if name == "" {
					continue
				}
				b := float64(rng.Intn(7))
				inst.SetRHS(name, b)
				for k := 0; k < scratch.NumRows(); k++ {
					if scratch.rows[k].Name == name {
						scratch.rows[k].RHS = b
					}
				}
			case 1: // add a row
				var coefs []Coef
				for j := 0; j < scratch.NumVars(); j++ {
					if rng.Intn(4) == 0 {
						coefs = append(coefs, Coef{j, float64(1 + rng.Intn(3))})
					}
				}
				if len(coefs) == 0 {
					coefs = []Coef{{0, 1}}
				}
				name := fmt.Sprintf("a%d_%d", seed, step)
				sense := Sense(rng.Intn(3))
				rhs := float64(rng.Intn(6))
				inst.AddRows([]Row{{Name: name, Coefs: coefs, Sense: sense, RHS: rhs}})
				scratch.AddRow(name, coefs, sense, rhs)
			case 2: // objective edit
				j := rng.Intn(scratch.NumVars())
				c := float64(rng.Intn(7) - 3)
				inst.SetObj(j, c)
				scratch.SetObj(j, c)
			case 3: // pin / unpin
				j := rng.Intn(scratch.NumVars())
				if rng.Intn(2) == 0 {
					v := int8(rng.Intn(2))
					inst.PinVar(j, v)
					upsertPin(scratch, j, v)
				} else {
					inst.UnpinVar(j)
					dropPin(scratch, j)
				}
			}
			got := inst.Resolve(opts)
			want := Solve(scratch, opts)
			assertSameAnswer(t, fmt.Sprintf("seed %d step %d", seed, step), got, want)
			if got.Status == Optimal && !scratch.Feasible(got.Solution) {
				t.Fatalf("seed %d step %d: instance solution infeasible on scratch model", seed, step)
			}
		}
	}
}

// upsertPin mirrors Instance.PinVar on a scratch model.
func upsertPin(m *Model, j int, v int8) {
	name := pinName(j)
	for i := range m.rows {
		if m.rows[i].Name == name {
			m.rows[i].RHS = float64(v)
			return
		}
	}
	m.AddRow(name, []Coef{{j, 1}}, EQ, float64(v))
}

// dropPin mirrors Instance.UnpinVar on a scratch model.
func dropPin(m *Model, j int) {
	name := pinName(j)
	kept := m.rows[:0]
	for _, r := range m.rows {
		if r.Name != name {
			kept = append(kept, r)
		}
	}
	m.rows = kept
}
