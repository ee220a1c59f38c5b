package service

import (
	"math/rand"
	"testing"

	"ilpec/internal/domain"
	"ilpec/internal/sched"
)

// BenchmarkSessionReplan measures the session layer's Replan path under
// serving options: each op queues one tightening batch on a sched session
// and solves it. A batch slides a window of added dependencies — it drops
// the oldest and adds a new one consistent with a planted schedule — so
// every batch tightens, stays feasible, and syncs onto the session's
// instance as row deltas.
func BenchmarkSessionReplan(b *testing.B) {
	p, batches := replanBenchScript(rand.New(rand.NewSource(1)), b.N)
	svc := New(Options{Solve: servingSolve})
	defer svc.Close()
	replan := domain.Replan
	sess, err := svc.CreateDomainSession("sched", p, SessionConfig{Strategy: &replan})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		if _, err := sess.QueueChanges(batch...); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// replanBenchScript plants a feasible schedule of 10 operations over 5
// steps and returns a problem carrying 5 forward dependencies plus n
// batches, each sliding a window of 3 added forward dependencies.
func replanBenchScript(rng *rand.Rand, n int) (*sched.Problem, [][]any) {
	const ops, horizon, window = 10, 5, 3
	capacity := []int{2, 2}
	p := sched.NewProblem(capacity, horizon)
	plant := make([]int, ops)
	used := make([][]int, len(capacity))
	for r := range used {
		used[r] = make([]int, horizon)
	}
	for o := 0; o < ops; o++ {
		r := rng.Intn(len(capacity))
		p.AddOp(r)
		for {
			t := rng.Intn(horizon)
			if used[r][t] < capacity[r] {
				used[r][t]++
				plant[o] = t
				break
			}
		}
	}
	has := map[[2]int]bool{}
	forward := func() [2]int {
		for {
			a, b := rng.Intn(ops), rng.Intn(ops)
			if plant[a] < plant[b] && !has[[2]int{a, b}] {
				has[[2]int{a, b}] = true
				return [2]int{a, b}
			}
		}
	}
	for i := 0; i < ops/2; i++ {
		d := forward()
		p.AddDep(d[0], d[1])
	}
	var live [][2]int
	batches := make([][]any, n)
	for i := range batches {
		if len(live) == window {
			old := live[0]
			live = live[1:]
			delete(has, old)
			batches[i] = append(batches[i], sched.Change{Kind: "remove-dep", From: old[0], To: old[1]})
		}
		d := forward()
		live = append(live, d)
		batches[i] = append(batches[i], sched.Change{Kind: "add-dep", From: d[0], To: d[1]})
	}
	return p, batches
}
