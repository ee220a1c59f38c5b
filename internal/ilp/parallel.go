package ilp

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// sharedInc is the incumbent shared by parallel root searchers. The bound
// is read lock-free on every node; updates (rare — only on improving
// leaves) take the mutex.
type sharedInc struct {
	bits atomic.Uint64 // Float64bits of the best internal objective
	has  atomic.Bool
	mu   sync.Mutex
	sol  Solution
}

func newSharedInc() *sharedInc {
	g := &sharedInc{}
	g.bits.Store(math.Float64bits(math.Inf(1)))
	return g
}

func (g *sharedInc) best() (float64, bool) {
	if !g.has.Load() {
		return 0, false
	}
	return math.Float64frombits(g.bits.Load()), true
}

// tryUpdate installs z (internal minimization sense) with the assignment in
// fixed if it strictly improves on the shared incumbent.
func (g *sharedInc) tryUpdate(z float64, fixed []int8) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.has.Load() && z >= math.Float64frombits(g.bits.Load())-solveEps {
		return false
	}
	if g.sol == nil {
		g.sol = make(Solution, len(fixed))
	}
	for j, v := range fixed {
		if v == 1 {
			g.sol[j] = 1
		} else {
			g.sol[j] = 0
		}
	}
	g.bits.Store(math.Float64bits(z))
	g.has.Store(true)
	return true
}

func (g *sharedInc) solution() Solution {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sol.Clone()
}

// splitScore ranks root variables for the subproblem split under the
// active branching rule.
func (s *solver) splitScore(j int) float64 {
	switch s.branching {
	case BranchCoverGreedy:
		return float64(len(s.coverOfVar[j]))
	case BranchMostConstrained:
		return float64(len(s.varOccs[j]))
	default:
		return math.Abs(s.obj[j])
	}
}

// applyTask fixes the split variables per mask on top of the root
// propagation. Returns false when the combination conflicts (that part of
// the space is covered by other masks).
func (s *solver) applyTask(split []int32, mask uint32) bool {
	for i, j := range split {
		v := int8(mask >> i & 1)
		if s.fixed[j] != -1 {
			if s.fixed[j] != v {
				return false
			}
			continue
		}
		if !(s.assign(int(j), v) && s.propagate()) {
			return false
		}
	}
	return true
}

// solveParallel implements Options.Workers > 1: the root is propagated
// once, the top k branching variables are fixed to every combination, and
// the resulting subproblems are searched by a worker pool sharing an
// incumbent bound. Each worker keeps one solver and rewinds its trail
// between subproblems, so per-task setup is O(change), not O(model).
func solveParallel(m *Model, opts Options) Result {
	workers := opts.Workers
	probe := newSolver(m, opts)

	// One shared node counter enforces Options.MaxNodes globally: the
	// dive, the fallback, and every worker draw from the same budget, so
	// Workers never multiplies it.
	var budget *atomic.Int64
	if opts.MaxNodes > 0 {
		budget = new(atomic.Int64)
		probe.budget = budget
	}

	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	// Root propagation on the probe: a conflict proves infeasibility, and
	// the surviving unfixed variables drive the split.
	if !probe.rootPropagate() {
		res := probe.result()
		res.Status = Infeasible
		return res
	}

	// Bounded serial dive before splitting: the greedy/warm-start branch
	// order finds a strong first incumbent cheaply, and every parallel
	// subproblem then prunes against it from node one instead of
	// rediscovering it. A dive that finishes inside its budget has proven
	// the whole tree; return its answer outright.
	probe.deadline = deadline
	if ws := opts.WarmStart; ws != nil && len(ws) == m.NumVars() && m.Feasible(ws) {
		probe.incumbent = ws.Clone()
		probe.incumbentObj = probe.internalObj(ws)
		probe.hasIncumbent = true
	}
	const diveNodes = 4096
	probe.localCap = diveNodes // the global MaxNodes budget still applies
	rootMark := len(probe.trail)
	complete := probe.search()
	probe.clearQueue()
	probe.undoTo(rootMark)
	if complete && !probe.timedOut {
		// The dive proved the whole tree serially; report Workers: 1 so the
		// stats reflect how the answer was actually produced.
		res := probe.result()
		if probe.hasIncumbent {
			res.Status = Optimal
			res.Solution = probe.incumbent.Clone()
			res.Objective = m.Objective(res.Solution)
		} else {
			res.Status = Infeasible
		}
		return res
	}

	var unfixed []int32
	for j, v := range probe.fixed {
		if v == -1 {
			unfixed = append(unfixed, int32(j))
		}
	}
	if len(unfixed) < 2 {
		// Nothing meaningful to split; the serial engine finishes the job,
		// inheriting the original deadline and the dive's incumbent (its
		// counters are merged below so no explored node goes unreported).
		fbOpts := opts
		if probe.hasIncumbent {
			fbOpts.WarmStart = probe.incumbent
		}
		fb := newSolver(m, fbOpts)
		fb.deadline = deadline
		fb.budget = budget
		res := fb.run()
		pr := probe.result()
		res.Nodes += pr.Nodes
		res.LPSolves += pr.LPSolves
		res.Propagations += pr.Propagations
		res.RowScansSaved += pr.RowScansSaved
		res.LPWarmHits += pr.LPWarmHits
		res.CutTightenings += pr.CutTightenings
		return res
	}
	slices.SortFunc(unfixed, func(a, b int32) int {
		if c := cmp.Compare(probe.splitScore(int(b)), probe.splitScore(int(a))); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	k := 1
	for 1<<k < 4*workers && k < len(unfixed) && k < 10 {
		k++
	}
	split := unfixed[:k]

	shared := newSharedInc()
	if probe.hasIncumbent {
		shared.tryUpdate(probe.incumbentObj, probe.incumbent)
	}

	// Enumerate subproblems nearest the greedy/warm-start branch order
	// first, so early tasks tighten the shared bound for the rest.
	pref := uint32(0)
	for i, j := range split {
		if probe.firstValue(int(j)) == 1 {
			pref |= 1 << i
		}
	}
	masks := make([]uint32, 1<<k)
	for i := range masks {
		masks[i] = uint32(i)
	}
	slices.SortFunc(masks, func(a, b uint32) int {
		if c := cmp.Compare(bits.OnesCount32(a^pref), bits.OnesCount32(b^pref)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	tasks := make(chan uint32, len(masks))
	for _, mask := range masks {
		tasks <- mask
	}
	close(tasks)

	pr := probe.result()
	nodes, lpSolves := pr.Nodes, pr.LPSolves
	props, scansSaved, lpWarmHits := pr.Propagations, pr.RowScansSaved, pr.LPWarmHits
	cutTight := pr.CutTightenings
	var incomplete atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := newSolver(m, opts)
			sub.shared = shared
			sub.deadline = deadline
			sub.budget = budget
			if sub.rootPropagate() {
				rootMark := len(sub.trail)
				for mask := range tasks {
					if sub.applyTask(split, mask) {
						if !sub.search() {
							incomplete.Store(true)
						}
					}
					sub.clearQueue()
					sub.undoTo(rootMark)
					if sub.timedOut || sub.aborted || sub.nodeLimited() {
						incomplete.Store(true)
						break
					}
				}
			}
			r := sub.result()
			atomic.AddInt64(&nodes, r.Nodes)
			atomic.AddInt64(&lpSolves, r.LPSolves)
			atomic.AddInt64(&props, r.Propagations)
			atomic.AddInt64(&scansSaved, r.RowScansSaved)
			atomic.AddInt64(&lpWarmHits, r.LPWarmHits)
			atomic.AddInt64(&cutTight, r.CutTightenings)
		}()
	}
	wg.Wait()

	res := Result{
		Nodes:          nodes,
		LPSolves:       lpSolves,
		Propagations:   props,
		RowScansSaved:  scansSaved,
		LPWarmHits:     lpWarmHits,
		CutTightenings: cutTight,
		Workers:        workers,
	}
	_, has := shared.best()
	switch {
	case has && !incomplete.Load():
		res.Status = Optimal
	case has:
		res.Status = Feasible
	case !incomplete.Load():
		res.Status = Infeasible
	default:
		res.Status = Unknown
	}
	if has {
		res.Solution = shared.solution()
		res.Objective = m.Objective(res.Solution)
	}
	return res
}
