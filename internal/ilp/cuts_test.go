package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestCoverCutSeparation: a knapsack row yields a lifted minimal-cover
// cut that is valid for every feasible 0-1 point.
func TestCoverCutSeparation(t *testing.T) {
	m := NewModel(true)
	w := []float64{5, 4, 3, 2}
	for j, wj := range w {
		m.AddVar("", float64(j+1))
		_ = wj
	}
	m.AddRow("", []Coef{{0, 5}, {1, 4}, {2, 3}, {3, 2}}, LE, 8)
	pool := NewCutPool()
	cuts, added, reused, _ := pool.separate(m)
	if len(cuts) == 0 || added != len(cuts) || reused != 0 {
		t.Fatalf("cuts=%d added=%d reused=%d, want fresh cuts", len(cuts), added, reused)
	}
	// Every cut must hold at every feasible point of the model.
	for mask := 0; mask < 1<<4; mask++ {
		sol := make(Solution, 4)
		act := 0.0
		for j := 0; j < 4; j++ {
			if mask>>j&1 == 1 {
				sol[j] = 1
				act += w[j]
			}
		}
		if act > 8 {
			continue
		}
		for _, c := range cuts {
			sum := 0.0
			for _, cf := range c.Coefs {
				if sol[cf.Var] == 1 {
					sum += cf.Val
				}
			}
			if sum > c.RHS+1e-9 {
				t.Fatalf("cut %+v violated by feasible point %v", c, sol)
			}
		}
	}
	// Re-separating the unchanged model serves everything from the pool.
	_, added2, reused2, _ := pool.separate(m)
	if added2 != 0 || reused2 != added {
		t.Fatalf("re-separate: added=%d reused=%d, want 0/%d", added2, reused2, added)
	}
}

// TestCliqueCutSeparation: pairwise-conflict rows merge into one clique
// cut, and the clique survives re-separation but dies with its edges.
func TestCliqueCutSeparation(t *testing.T) {
	m := NewModel(true)
	for j := 0; j < 3; j++ {
		m.AddVar("", 1)
	}
	m.AddRow("", []Coef{{0, 1}, {1, 1}}, LE, 1)
	m.AddRow("", []Coef{{1, 1}, {2, 1}}, LE, 1)
	m.AddRow("", []Coef{{0, 1}, {2, 1}}, LE, 1)
	pool := NewCutPool()
	cuts, added, _, _ := pool.separate(m)
	var cliqueCut *Cut
	for i := range cuts {
		if len(cuts[i].Coefs) == 3 && cuts[i].RHS == 1 {
			cliqueCut = &cuts[i]
		}
	}
	if cliqueCut == nil || added == 0 {
		t.Fatalf("no 3-clique cut in %+v", cuts)
	}
	// Unchanged model: the clique is reused, not re-grown.
	_, added2, reused2, _ := pool.separate(m)
	if added2 != 0 || reused2 == 0 {
		t.Fatalf("re-separate: added=%d reused=%d", added2, reused2)
	}
	// Removing one conflict row invalidates the clique.
	m2 := NewModel(true)
	for j := 0; j < 3; j++ {
		m2.AddVar("", 1)
	}
	m2.AddRow("", []Coef{{0, 1}, {1, 1}}, LE, 1)
	m2.AddRow("", []Coef{{1, 1}, {2, 1}}, LE, 1)
	cuts3, _, _, _ := pool.separate(m2)
	for _, c := range cuts3 {
		if len(c.Coefs) == 3 {
			t.Fatalf("stale clique cut survived edge removal: %+v", c)
		}
	}
}

// TestCutsPreserveAnswer: cuts alone (no presolve) never change status or
// objective, and the solver reports the counters.
func TestCutsPreserveAnswer(t *testing.T) {
	m := NewModel(false)
	for j := 0; j < 6; j++ {
		m.AddVar("", float64(j%3)-1)
	}
	m.AddRow("", []Coef{{0, 3}, {1, 4}, {2, 5}, {3, 2}}, LE, 7)
	m.AddRow("", []Coef{{2, 1}, {3, 1}, {4, 1}, {5, 1}}, GE, 2)
	want := Solve(m, Options{})
	got := Solve(m, Options{Cuts: true})
	if got.Status != want.Status || math.Abs(got.Objective-want.Objective) > 1e-9 {
		t.Fatalf("cuts changed the answer: %v/%v vs %v/%v", got.Status, got.Objective, want.Status, want.Objective)
	}
	if got.CutsAdded == 0 {
		t.Fatalf("expected cuts on a conflict-heavy knapsack, got %+v", got)
	}
}

// TestCutPoolRetention: an EC-style re-solve with one changed row only
// re-separates that row.
func TestCutPoolRetention(t *testing.T) {
	build := func(extraRHS float64) *Model {
		m := NewModel(false)
		for j := 0; j < 8; j++ {
			m.AddVar("", 1)
		}
		m.AddRow("r0", []Coef{{0, 5}, {1, 4}, {2, 3}}, LE, 7)
		m.AddRow("r1", []Coef{{3, 6}, {4, 5}, {5, 4}}, LE, 9)
		m.AddRow("r2", []Coef{{5, 3}, {6, 3}, {7, 3}}, LE, extraRHS)
		return m
	}
	pool := NewCutPool()
	_, added1, _, fresh1 := pool.separate(build(5))
	if added1 == 0 {
		t.Fatal("no cuts separated")
	}
	if fresh1 != 3 {
		t.Fatalf("first separation touched %d rows, want 3", fresh1)
	}
	// Change only r2's rhs: r0/r1 cuts must be reused.
	_, added2, reused2, fresh2 := pool.separate(build(4))
	if reused2 == 0 {
		t.Fatalf("expected reuse of unchanged-row cuts, added=%d reused=%d", added2, reused2)
	}
	if added2 >= added1 {
		t.Fatalf("re-separation was not incremental: added %d then %d", added1, added2)
	}
	if fresh2 != 1 {
		t.Fatalf("re-solve re-separated %d rows, want only the changed one", fresh2)
	}
}

// TestCutPoolEvictionAge: a row entry is evicted on exactly the call at
// which it has gone poolRetainGens calls untouched — no earlier, no later —
// however the separations interleave.
func TestCutPoolEvictionAge(t *testing.T) {
	build := func(rhs float64) *Model {
		m := NewModel(false)
		for j := 0; j < 6; j++ {
			m.AddVar("", 1)
		}
		m.AddRow("r0", []Coef{{0, 5}, {1, 4}, {2, 3}}, LE, 7)
		m.AddRow("r1", []Coef{{3, 3}, {4, 3}, {5, 3}}, LE, rhs)
		return m
	}
	rng := rand.New(rand.NewSource(113))
	pool := NewCutPool()
	lastUse := map[int]int{} // r1 variant → call that last separated it
	v := 0
	for call := 1; call <= 400; call++ {
		if rng.Intn(10) == 0 {
			v = rng.Intn(4)
		}
		pool.separate(build(float64(3 + v)))
		lastUse[v] = call
		want := 1 // r0
		for _, last := range lastUse {
			if call-last < poolRetainGens {
				want++
			}
		}
		if got := len(pool.rows); got != want {
			t.Fatalf("call %d: pool holds %d row entries, want %d", call, got, want)
		}
	}
}

// TestGlobalNodeBudget: MaxNodes bounds the TOTAL node count of a
// parallel search, not the per-worker count.
func TestGlobalNodeBudget(t *testing.T) {
	m := benchSetCover(60, 120, 3, 7)
	const budget = 500
	res := Solve(m, Options{MaxNodes: budget, Workers: 4})
	if res.Status == Optimal || res.Status == Infeasible {
		t.Fatalf("instance solved within %d nodes (status %v); budget test needs a harder model", budget, res.Status)
	}
	// Each searcher can overshoot by the one node it was expanding when
	// the shared counter crossed the limit.
	if res.Nodes > budget+16 {
		t.Fatalf("nodes = %d, want <= %d (+slack): budget multiplied across workers", res.Nodes, budget)
	}
	// Serial runs respect the same global semantics.
	ser := Solve(m, Options{MaxNodes: budget})
	if ser.Nodes > budget {
		t.Fatalf("serial nodes = %d, want <= %d", ser.Nodes, budget)
	}
}

// TestContextCancelAborts: a cancelled context stops the kernel like a
// time limit, serial and parallel.
func TestContextCancelAborts(t *testing.T) {
	m := benchSetCover(70, 140, 3, 11)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: the solver must notice at node 0
		start := time.Now()
		res := Solve(m, Options{Context: ctx, Workers: workers})
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("workers=%d: cancelled solve ran %v", workers, el)
		}
		if res.Status == Optimal || res.Status == Infeasible {
			t.Fatalf("workers=%d: cancelled solve claims proof (%v)", workers, res.Status)
		}
	}
	// Cancellation mid-search.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := Solve(m, Options{Context: ctx})
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("mid-search cancel took %v", el)
	}
	if res.Status == Optimal || res.Status == Infeasible {
		t.Fatalf("mid-search cancel claims proof (%v)", res.Status)
	}
}
