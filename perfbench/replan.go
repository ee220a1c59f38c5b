package main

import (
	"fmt"
	"math/rand"

	"ilpec/internal/coloring"
	"ilpec/internal/domain"
	"ilpec/internal/partition"
	"ilpec/internal/sched"
	"ilpec/internal/service"
)

// replanDelta is the replan-delta workload: in-process sched, partition
// and coloring sessions under the Replan strategy, each fed a long run of
// small tightening batches. Every batch forces a real branch-and-bound
// re-solve on the session's persistent ilp.Instance (row deltas, warm
// basis, cut pool), so the kernel and the instance delta-sync do the work
// and the fast-EC engine does none.
type replanDelta struct {
	sets  [][]*domScript // [script set][session]
	steps int
}

// domScript is one non-CNF session's problem and change script.
type domScript struct {
	name   string
	domain string
	base   any
	steps  [][]any
}

// replanMix is the session mix: how many sessions of each domain.
var replanMix = []struct {
	domain string
	n      int
	gen    func(design, script *rand.Rand, steps int) (any, [][]any)
}{
	{"sched", 10, schedScript},
	{"coloring", 10, coloringScript},
	{"partition", 5, partitionScript},
}

func (w *replanDelta) prepare(seed int64, sets int, tiny bool) error {
	steps := 48
	if tiny {
		steps = 6
	}
	w.steps = steps
	for set := 0; set < sets; set++ {
		var scripts []*domScript
		for mi, m := range replanMix {
			n := m.n
			if tiny {
				n = 1
			}
			for k := 0; k < n; k++ {
				// Fixed designs, seeded changes (see newCNFScript).
				design := rand.New(rand.NewSource(int64(1_000_037 + mi*100 + k)))
				script := rand.New(rand.NewSource(scriptSeed(seed, set, sets)*1_000_039 + int64(mi*100+k)))
				base, st := m.gen(design, script, steps)
				scripts = append(scripts, &domScript{
					name: fmt.Sprintf("%s#%d", m.domain, k), domain: m.domain, base: base, steps: st,
				})
			}
		}
		w.sets = append(w.sets, scripts)
	}
	return nil
}

// schedScript plants a feasible schedule, derives forward dependencies
// from it, and slides a window of added dependencies: each batch drops
// the oldest added dependency and adds a new one consistent with the
// planted schedule, so every batch tightens and stays feasible.
func schedScript(rng, script *rand.Rand, steps int) (any, [][]any) {
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
	forward := func(rng *rand.Rand) [2]int {
		for {
			a, b := rng.Intn(ops), rng.Intn(ops)
			if plant[a] < plant[b] && !has[[2]int{a, b}] {
				return [2]int{a, b}
			}
		}
	}
	for i := 0; i < ops/2; i++ {
		d := forward(rng)
		has[d] = true
		p.AddDep(d[0], d[1])
	}
	var live [][2]int
	var out [][]any
	for j := 0; j < steps; j++ {
		var batch []any
		if len(live) == window {
			old := live[0]
			live = live[1:]
			delete(has, old)
			batch = append(batch, sched.Change{Kind: "remove-dep", From: old[0], To: old[1]})
		}
		d := forward(script)
		has[d] = true
		live = append(live, d)
		batch = append(batch, sched.Change{Kind: "add-dep", From: d[0], To: d[1]})
		out = append(out, batch)
	}
	return p, out
}

// coloringScript plants a k-coloring and slides a window of added
// cross-class edges: each batch removes the oldest added edge and adds a
// new edge between differently planted vertices.
func coloringScript(rng, script *rand.Rand, steps int) (any, [][]any) {
	const n, k, window = 12, 3, 3
	g, plant := coloring.PlantedColorable(n, k, 0.35, rng.Int63())
	fresh := func() [2]int {
		for {
			u, v := 1+script.Intn(n), 1+script.Intn(n)
			if u != v && plant[u] != plant[v] && !g.HasEdge(u, v) {
				return [2]int{u, v}
			}
		}
	}
	p := &coloring.Problem{G: g.Clone(), K: k + 1}
	var live [][2]int
	var out [][]any
	for j := 0; j < steps; j++ {
		var batch []any
		if len(live) == window {
			old := live[0]
			live = live[1:]
			g.RemoveEdge(old[0], old[1])
			batch = append(batch, coloring.Change{Kind: "remove-edge", U: old[0], V: old[1]})
		}
		e := fresh()
		g.AddEdge(e[0], e[1])
		live = append(live, e)
		batch = append(batch, coloring.Change{Kind: "add-edge", U: e[0], V: e[1]})
		out = append(out, batch)
	}
	return p, out
}

// partitionScript rewires one weighted edge per batch and resets the
// balance bounds, alternating the block cap between perfect balance and
// one vertex of slack, so every batch needs a fresh min-cut solve.
func partitionScript(rng, script *rand.Rand, steps int) (any, [][]any) {
	const n, blocks, edges = 10, 2, 16
	p := partition.NewProblem(n, blocks)
	type edge struct {
		u, v int
		w    float64
	}
	has := map[[2]int]bool{}
	fresh := func(rng *rand.Rand) edge {
		for {
			u, v := 1+rng.Intn(n), 1+rng.Intn(n)
			if u > v {
				u, v = v, u
			}
			if u != v && !has[[2]int{u, v}] {
				has[[2]int{u, v}] = true
				return edge{u, v, float64(1 + rng.Intn(4))}
			}
		}
	}
	var live []edge
	for i := 0; i < edges; i++ {
		e := fresh(rng)
		live = append(live, e)
		p.AddEdge(e.u, e.v, e.w)
	}
	var out [][]any
	for j := 0; j < steps; j++ {
		i := script.Intn(len(live))
		old := live[i]
		delete(has, [2]int{old.u, old.v})
		e := fresh(script)
		live[i] = e
		maxSize := n/blocks + j%2
		out = append(out, []any{
			partition.Change{Kind: "remove-edge", U: old.u, V: old.v},
			partition.Change{Kind: "add-edge", U: e.u, V: e.v, Weight: e.w},
			partition.Change{Kind: "set-bounds", Max: maxSize},
		})
	}
	return p, out
}

// checkDomainAnswers replays each script on an independent copy of its
// problem and checks every answer with the domain's Verify.
func checkDomainAnswers(scripts []*domScript, order []sessionStep, rs []cycleResult) []error {
	errs := make([]error, len(rs))
	cur := make([]any, len(scripts))
	next := make([]int, len(scripts))
	for i, sc := range scripts {
		d, _ := domain.Get(sc.domain)
		cur[i] = d.CloneProblem(sc.base)
	}
	for i, r := range rs {
		o := order[i]
		sc := scripts[o.sess]
		d, _ := domain.Get(sc.domain)
		if o.step != next[o.sess] {
			errs[i] = fmt.Errorf("%s served step %d out of order", sc.name, o.step)
			continue
		}
		p, err := d.ApplyChanges(cur[o.sess], sc.steps[o.step])
		if err != nil {
			errs[i] = err
			continue
		}
		cur[o.sess] = p
		next[o.sess]++
		if err := d.Verify(p, r.sol); err != nil {
			errs[i] = fmt.Errorf("%s step %d: %w", sc.name, o.step, err)
		}
	}
	return errs
}

func (w *replanDelta) newEpoch(tr *tracer, set int) (epoch, error) {
	scripts := w.sets[set]
	return &replanEpoch{scripts: scripts, tr: tr, order: roundRobin(len(scripts), w.steps)}, nil
}

type replanEpoch struct {
	scripts  []*domScript
	tr       *tracer
	order    []sessionStep
	svc      *service.Service
	sessions []*service.Session
}

func (e *replanEpoch) setup() error {
	e.svc = service.New(e.tr.serviceOptions(service.Options{Solve: servingSolve}))
	replan := domain.Replan
	for _, sc := range e.scripts {
		sess, err := e.svc.CreateDomainSession(sc.domain, sc.base, service.SessionConfig{Strategy: &replan})
		if err != nil {
			return err
		}
		if _, err := sess.Solve(); err != nil {
			return fmt.Errorf("%s initial solve: %w", sc.name, err)
		}
		e.sessions = append(e.sessions, sess)
	}
	return nil
}

func (e *replanEpoch) cycles() int { return len(e.order) }

func (e *replanEpoch) cycle(i int) (cycleResult, error) {
	o := e.order[i]
	return inProcessCycle(e.tr, e.sessions[o.sess], e.scripts[o.sess].steps[o.step])
}

func (e *replanEpoch) check(rs []cycleResult) []error {
	return checkDomainAnswers(e.scripts, e.order, rs)
}

func (e *replanEpoch) counters() counters { return serviceCounters(e.svc.Metrics()) }

func (e *replanEpoch) close() {
	if e.svc != nil {
		e.svc.Close()
	}
}
