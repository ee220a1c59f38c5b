package ilp

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"ilpec/internal/lp"
)

const solveEps = 1e-9

// normRow is a row normalized to Σ a_j x_j ≤ b form.
type normRow struct {
	coefs  []Coef
	rhs    float64
	maxAbs float64 // largest |coef| — the watched-slack early-exit threshold
}

// occ is one occurrence of a variable in a normalized row. The column index
// varOccs[j] carries the coefficient alongside the row id so assign and
// unassign touch each affected row in O(1) instead of rescanning its
// coefficient list.
type occ struct {
	row int32
	val float64
}

// solver is the branch-and-bound engine. All rows are normalized to ≤ so
// that pseudo-Boolean propagation has a single shape: a row is infeasible
// when its minimum activity exceeds the right-hand side, and an unfixed
// variable is forced when one of its values would make that happen.
//
// The kernel is incremental and allocation-free on the hot path: a column
// index drives assign/unassign, a worklist revisits only rows whose slack
// shrank, covering-row counts are maintained on the trail, the objective
// bound terms are updated in O(1) per assignment, and the LP relaxation is
// built once and re-solved per node by mutating variable bounds with a
// warm-started simplex.
type solver struct {
	m    *Model
	opts Options

	maximize bool
	obj      []float64 // internal minimization objective
	rows     []normRow
	varOccs  [][]occ // column index: each variable's (row, coef) pairs

	fixed  []int8 // -1 unfixed, else 0/1
	minAct []float64
	trail  []int32 // fixed variable indices in order

	curObj  float64 // Σ obj[j] over variables fixed to 1
	negFree float64 // Σ obj[j] over unfixed variables with obj[j] < 0

	queue   []int32 // worklist: rows whose slack shrank since last scan
	inQueue []bool

	incumbent    Solution // reusable buffer; cloned on return
	incumbentObj float64  // internal (minimization) value
	hasIncumbent bool
	shared       *sharedInc // non-nil when part of a parallel root search

	// Covering structure (detected from the original rows): coverRows[i]
	// lists the columns of a Σ x_j ≥ 1 unit-coefficient row. Used for the
	// counting bound and greedy branching that make set-cover-shaped
	// models (the SAT encoding of §3) tractable. coverCnt and coverNeg are
	// maintained incrementally on the trail.
	coverRows  [][]int32
	coverOfVar [][]int32 // cover rows containing each variable
	coverCnt   []int32   // variables fixed to 1 per cover row
	coverNeg   []int32   // unfixed negative-cost columns per cover row
	branching  Branching

	// fusedPick is set when no cover row holds a negative-cost column:
	// coverBound's needed rows are then exactly the uncovered rows, so its
	// sweep also yields the greedy branching choice. coverPick is that
	// choice (-1: no unfixed column covers an uncovered row), valid while
	// coverPickOK, which bound clears before pricing each node.
	fusedPick   bool
	coverPick   int
	coverPickOK bool

	neededMark []int64   // epoch-stamped scratch for coverBound
	rowShare   []float64 // per needed row: min c_j/cov_j over its columns
	markEpoch  int64

	nodes      int64
	lpSolves   int64
	props      int64
	scansSaved int64
	cutTight   int64 // propagation fixings forced by cut rows
	deadline   time.Time
	timedOut   bool

	// budget, when non-nil, is the node counter shared by every searcher
	// of one Solve call; Options.MaxNodes is checked against it so the
	// budget stays global regardless of Workers. Nil (serial solves)
	// checks the local node count instead.
	budget *atomic.Int64
	// localCap additionally bounds this solver's own nodes (the parallel
	// root search's bounded serial dive); 0 means no local cap.
	localCap int64
	ctx      context.Context // non-nil: abort when cancelled
	aborted  bool

	// cutNormStart is the first normalized-row index belonging to a cut
	// row (cut rows are the model's trailing opts.cutRows rows);
	// math.MaxInt when the model carries no cuts.
	cutNormStart int

	lpBase     *lp.Problem // base relaxation, built once per solve
	lpSolver   *lp.Solver  // warm-started simplex over lpBase
	lpRes      lp.Result   // node relaxation shared by bound and branching
	lpResTrail int         // trail length at which lpRes was computed
	lpResOK    bool
}

func newSolver(m *Model, opts Options) *solver {
	s := &solver{
		m:            m,
		opts:         opts,
		maximize:     m.Maximize,
		obj:          make([]float64, m.NumVars()),
		fixed:        make([]int8, m.NumVars()),
		varOccs:      make([][]occ, m.NumVars()),
		ctx:          opts.Context,
		cutNormStart: math.MaxInt,
	}
	if opts.cutRows > 0 {
		// Cut rows are the trailing opts.cutRows model rows; count the
		// normalized rows the non-cut prefix expands to (EQ becomes two).
		start := 0
		for _, r := range m.rows[:len(m.rows)-opts.cutRows] {
			if r.Sense == EQ {
				start += 2
			} else {
				start++
			}
		}
		s.cutNormStart = start
	}
	for j := range s.fixed {
		s.fixed[j] = -1
	}
	for j := 0; j < m.NumVars(); j++ {
		c := m.obj[j]
		if s.maximize {
			c = -c
		}
		s.obj[j] = c
		if c < 0 {
			s.negFree += c
		}
	}
	// Normalize rows to ≤ form; EQ becomes a ≤ and a ≥(negated ≤) pair.
	// Row coefficients and the column index live in flat backing arrays
	// sized up front, so model ingestion costs a fixed handful of
	// allocations instead of per-row/per-variable append growth.
	nRows, nz := 0, 0
	for _, r := range m.rows {
		if r.Sense == EQ {
			nRows += 2
			nz += 2 * len(r.Coefs)
		} else {
			nRows++
			nz += len(r.Coefs)
		}
	}
	s.rows = make([]normRow, 0, nRows)
	flat := make([]Coef, 0, nz)
	addLE := func(coefs []Coef, negate bool, rhs float64) {
		start := len(flat)
		maxAbs := 0.0
		for _, c := range coefs {
			v := c.Val
			if negate {
				v = -v
			}
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
			flat = append(flat, Coef{c.Var, v})
		}
		s.rows = append(s.rows, normRow{coefs: flat[start:len(flat):len(flat)], rhs: rhs, maxAbs: maxAbs})
	}
	for _, r := range m.rows {
		switch r.Sense {
		case LE:
			addLE(r.Coefs, false, r.RHS)
		case GE:
			addLE(r.Coefs, true, -r.RHS)
		case EQ:
			addLE(r.Coefs, false, r.RHS)
			addLE(r.Coefs, true, -r.RHS)
		}
	}
	s.minAct = make([]float64, len(s.rows))
	for i, r := range s.rows {
		a := 0.0
		for _, c := range r.coefs {
			if c.Val < 0 {
				a += c.Val
			}
		}
		s.minAct[i] = a
	}
	// Column index: count occurrences, carve per-variable slices out of one
	// flat array, then fill.
	counts := make([]int32, m.NumVars())
	for _, r := range s.rows {
		for _, c := range r.coefs {
			counts[c.Var]++
		}
	}
	occFlat := make([]occ, nz)
	pos := 0
	for j := range s.varOccs {
		n := int(counts[j])
		s.varOccs[j] = occFlat[pos : pos : pos+n]
		pos += n
	}
	for ri, r := range s.rows {
		for _, c := range r.coefs {
			s.varOccs[c.Var] = append(s.varOccs[c.Var], occ{int32(ri), c.Val})
		}
	}
	s.inQueue = make([]bool, len(s.rows))
	s.queue = make([]int32, 0, len(s.rows))
	s.trail = make([]int32, 0, m.NumVars())
	// Detect covering rows (Σ x ≥ 1 or Σ x = 1, unit coefficients) in the
	// original model for the counting bound and greedy branching. An
	// equality row's ≥ direction is a valid cover.
	s.coverOfVar = make([][]int32, m.NumVars())
	for _, r := range m.rows {
		if (r.Sense != GE && r.Sense != EQ) || r.RHS != 1 {
			continue
		}
		ok := true
		for _, c := range r.Coefs {
			if c.Val != 1 {
				ok = false
				break
			}
		}
		if !ok || len(r.Coefs) == 0 {
			continue
		}
		idx := int32(len(s.coverRows))
		cols := make([]int32, len(r.Coefs))
		neg := int32(0)
		for i, c := range r.Coefs {
			cols[i] = int32(c.Var)
			s.coverOfVar[c.Var] = append(s.coverOfVar[c.Var], idx)
			if s.obj[c.Var] < 0 {
				neg++
			}
		}
		s.coverRows = append(s.coverRows, cols)
		s.coverNeg = append(s.coverNeg, neg)
	}
	s.coverCnt = make([]int32, len(s.coverRows))
	s.fusedPick = !slices.ContainsFunc(s.coverNeg, func(n int32) bool { return n > 0 })
	s.neededMark = make([]int64, len(s.coverRows))
	s.rowShare = make([]float64, len(s.coverRows))
	s.branching = opts.Branching
	if s.branching == BranchMaxObj && len(s.coverRows) > 0 {
		// The default rule degenerates on uniform objectives; covering
		// structure admits a much better greedy choice.
		s.branching = BranchCoverGreedy
	}
	return s
}

func (s *solver) internalObj(sol Solution) float64 {
	z := 0.0
	for j, v := range sol {
		if v != 0 {
			z += s.obj[j]
		}
	}
	return z
}

func (s *solver) run() Result {
	if s.opts.TimeLimit > 0 && s.deadline.IsZero() {
		s.deadline = time.Now().Add(s.opts.TimeLimit)
	}
	// Warm start: adopt as incumbent when feasible.
	if ws := s.opts.WarmStart; ws != nil && len(ws) == s.m.NumVars() && s.m.Feasible(ws) {
		s.incumbent = ws.Clone()
		s.incumbentObj = s.internalObj(ws)
		s.hasIncumbent = true
	}

	// Root propagation, then depth-first search with explicit undo.
	mark := len(s.trail)
	if s.rootPropagate() {
		s.search()
	}
	s.undoTo(mark)

	res := s.result()
	switch {
	case s.hasIncumbent && !s.truncated():
		res.Status = Optimal
	case s.hasIncumbent:
		res.Status = Feasible
	case !s.truncated():
		res.Status = Infeasible
	default:
		res.Status = Unknown
	}
	if s.hasIncumbent {
		res.Solution = s.incumbent.Clone()
		res.Objective = s.m.Objective(s.incumbent)
	}
	return res
}

// result collects the node counters (status and solution are filled by the
// caller).
func (s *solver) result() Result {
	res := Result{
		Nodes:          s.nodes,
		LPSolves:       s.lpSolves,
		Propagations:   s.props,
		RowScansSaved:  s.scansSaved,
		CutTightenings: s.cutTight,
		Workers:        1,
	}
	if s.lpSolver != nil {
		res.LPWarmHits = s.lpSolver.WarmHits
	}
	return res
}

// rootPropagate seeds the worklist with every row (the only moment a full
// pass is needed) and runs propagation to fixpoint.
func (s *solver) rootPropagate() bool {
	for ri := range s.rows {
		s.enqueue(int32(ri))
	}
	if !s.propagate() {
		s.clearQueue()
		return false
	}
	return true
}

// nodeLimited reports budget exhaustion: the global MaxNodes budget
// (drawn from the shared counter when this searcher is part of a parallel
// solve) or this searcher's own localCap (the parallel root search's
// bounded serial dive).
func (s *solver) nodeLimited() bool {
	if s.localCap > 0 && s.nodes >= s.localCap {
		return true
	}
	if s.opts.MaxNodes <= 0 {
		return false
	}
	if s.budget != nil {
		return s.budget.Load() >= s.opts.MaxNodes
	}
	return s.nodes >= s.opts.MaxNodes
}

// truncated reports whether any limit (nodes, time, context) stopped this
// searcher from proving its subtree.
func (s *solver) truncated() bool {
	return s.timedOut || s.aborted || s.nodeLimited()
}

func (s *solver) limitHit() bool {
	if s.nodeLimited() {
		return true
	}
	if s.nodes%256 == 0 {
		if !s.deadline.IsZero() && time.Now().After(s.deadline) {
			s.timedOut = true
		}
		if s.ctx != nil && s.ctx.Err() != nil {
			s.aborted = true
		}
	}
	return s.timedOut || s.aborted
}

// search explores the subtree under the current trail. It returns false if
// a limit stopped the search (so optimality cannot be claimed).
func (s *solver) search() bool {
	if s.limitHit() {
		return false
	}
	if s.nodes%4096 == 0 {
		s.resyncBoundTerms()
	}
	if s.shared != nil {
		s.syncIncumbent()
	}
	// Bounding.
	bound := s.bound()
	if math.IsInf(bound, 1) {
		return true // no feasible completion exists
	}
	if s.hasIncumbent && bound >= s.incumbentObj-solveEps {
		return true // pruned; subtree fully accounted for
	}
	j := s.pickVar()
	if j < 0 {
		// All variables fixed: feasible by propagation invariant.
		s.record()
		return true
	}
	s.nodes++
	if s.budget != nil {
		s.budget.Add(1)
	}
	first := s.firstValue(j)
	complete := true
	for _, v := range [2]int8{first, 1 - first} {
		mark := len(s.trail)
		if s.assign(j, v) && s.propagate() {
			if !s.search() {
				complete = false
			}
		}
		s.clearQueue()
		s.undoTo(mark)
		if s.limitHit() {
			return false
		}
	}
	return complete
}

// syncIncumbent adopts the parallel search's shared bound when it is
// tighter than the local one.
func (s *solver) syncIncumbent() {
	if b, ok := s.shared.best(); ok && (!s.hasIncumbent || b < s.incumbentObj) {
		s.incumbentObj = b
		s.hasIncumbent = true
	}
}

// firstValue returns the branch value to try first for variable j: the warm
// start's value when present, otherwise greedy-1 for covering picks, else
// the objective-improving value.
func (s *solver) firstValue(j int) int8 {
	if ws := s.opts.WarmStart; ws != nil && j < len(ws) {
		return ws[j]
	}
	if s.branching == BranchCoverGreedy && len(s.coverOfVar[j]) > 0 {
		return 1 // dive greedily toward a covering incumbent
	}
	if s.obj[j] > 0 {
		return 0
	}
	return 1
}

// record stores the current complete assignment as incumbent if better.
// The objective is recomputed exactly here (leaves are rare relative to
// nodes) so incremental float drift in curObj can never corrupt the answer.
func (s *solver) record() {
	z := 0.0
	for j, v := range s.fixed {
		if v == 1 {
			z += s.obj[j]
		}
	}
	if s.hasIncumbent && z >= s.incumbentObj-solveEps {
		return
	}
	if s.shared != nil {
		if s.shared.tryUpdate(z, s.fixed) {
			s.incumbentObj = z
			s.hasIncumbent = true
		} else {
			s.syncIncumbent()
		}
		return
	}
	if s.incumbent == nil {
		s.incumbent = make(Solution, len(s.fixed))
	}
	for j, v := range s.fixed {
		if v == 1 {
			s.incumbent[j] = 1
		} else {
			s.incumbent[j] = 0
		}
	}
	s.incumbentObj = z
	s.hasIncumbent = true
}

func (s *solver) enqueue(ri int32) {
	if !s.inQueue[ri] {
		s.inQueue[ri] = true
		s.queue = append(s.queue, ri)
	}
}

// clearQueue drops pending worklist entries (after a conflict, before the
// trail rewinds). Idempotent.
func (s *solver) clearQueue() {
	for _, ri := range s.queue {
		s.inQueue[ri] = false
	}
	s.queue = s.queue[:0]
}

// assign fixes variable j to v, updating row activities, cover counts, and
// the incremental bound terms through the column index, and enqueues every
// row whose slack shrank. Returns false when a row becomes infeasible
// immediately (the caller must clearQueue before undoing).
func (s *solver) assign(j int, v int8) bool {
	s.fixed[j] = v
	s.trail = append(s.trail, int32(j))
	c := s.obj[j]
	if v == 1 {
		s.curObj += c
	}
	if c < 0 {
		s.negFree -= c
		for _, ri := range s.coverOfVar[j] {
			s.coverNeg[ri]--
			if v == 1 {
				s.coverCnt[ri]++
			}
		}
	} else if v == 1 {
		for _, ri := range s.coverOfVar[j] {
			s.coverCnt[ri]++
		}
	}
	ok := true
	for _, o := range s.varOccs[j] {
		// Min contribution was min(0, val); now val·v. The delta is ≥ 0, so
		// an assignment can only shrink slack.
		var delta float64
		if v == 1 {
			if o.val > 0 {
				delta = o.val
			}
		} else {
			if o.val < 0 {
				delta = -o.val
			}
		}
		if delta != 0 {
			s.minAct[o.row] += delta
			if s.minAct[o.row] > s.rows[o.row].rhs+solveEps {
				ok = false
			}
			s.enqueue(o.row)
		}
	}
	return ok
}

func (s *solver) unassign(j int) {
	v := s.fixed[j]
	c := s.obj[j]
	if v == 1 {
		s.curObj -= c
	}
	if c < 0 {
		s.negFree += c
		for _, ri := range s.coverOfVar[j] {
			s.coverNeg[ri]++
			if v == 1 {
				s.coverCnt[ri]--
			}
		}
	} else if v == 1 {
		for _, ri := range s.coverOfVar[j] {
			s.coverCnt[ri]--
		}
	}
	for _, o := range s.varOccs[j] {
		if v == 1 {
			if o.val > 0 {
				s.minAct[o.row] -= o.val
			}
		} else {
			if o.val < 0 {
				s.minAct[o.row] += o.val
			}
		}
	}
	s.fixed[j] = -1
}

func (s *solver) undoTo(mark int) {
	if len(s.trail) > mark {
		// Different assignments can later reproduce the same trail length,
		// so the cached node relaxation must die with the backtrack.
		s.lpResOK = false
	}
	for len(s.trail) > mark {
		j := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.unassign(int(j))
	}
}

// propagate drains the worklist: only rows whose slack shrank since their
// last scan are revisited, and a row whose slack still exceeds its largest
// coefficient magnitude cannot force anything and is skipped outright.
// Returns false on conflict (the queue is cleared in that case).
func (s *solver) propagate() bool {
	for len(s.queue) > 0 {
		ri := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQueue[ri] = false
		r := &s.rows[ri]
		slack := r.rhs - s.minAct[ri]
		if slack < -solveEps {
			s.clearQueue()
			return false
		}
		if r.maxAbs <= slack+solveEps {
			// Watched-slack early exit: no coefficient can overflow.
			s.scansSaved++
			continue
		}
		for _, c := range r.coefs {
			if s.fixed[c.Var] != -1 {
				continue
			}
			if c.Val > slack+solveEps {
				// x=1 would overflow the row → force 0.
				s.props++
				if int(ri) >= s.cutNormStart {
					s.cutTight++
				}
				if !s.assign(c.Var, 0) {
					s.clearQueue()
					return false
				}
			} else if c.Val < 0 && -c.Val > slack+solveEps {
				// x=0 removes the negative min contribution → force 1.
				s.props++
				if int(ri) >= s.cutNormStart {
					s.cutTight++
				}
				if !s.assign(c.Var, 1) {
					s.clearQueue()
					return false
				}
			}
			// Forcing a variable at its min-contribution value leaves this
			// row's slack unchanged, so the scan stays valid.
		}
	}
	return true
}

// bound returns a lower bound (internal minimization sense) on the best
// completion of the current partial assignment.
func (s *solver) bound() float64 {
	s.coverPickOK = false
	switch s.opts.Bounding {
	case LPBound:
		if b, ok := s.lpBound(); ok {
			return b
		}
		return s.combBound()
	default:
		return s.combBound()
	}
}

// combBound is the O(cover) combinatorial bound: the objective of the
// variables fixed to 1 plus every negative-cost unfixed variable — both
// maintained incrementally on the trail — plus the covering counting bound.
func (s *solver) combBound() float64 {
	return s.curObj + s.negFree + s.coverBound()
}

// resyncBoundTerms recomputes curObj and negFree exactly. The incremental
// +=/-= pairs in assign/unassign leave floating-point residue on non-dyadic
// objectives; a periodic exact rebuild keeps the accumulated drift far
// below solveEps so the bound can never prune the true optimum.
func (s *solver) resyncBoundTerms() {
	cur, neg := 0.0, 0.0
	for j, v := range s.fixed {
		switch v {
		case 1:
			cur += s.obj[j]
		case -1:
			if s.obj[j] < 0 {
				neg += s.obj[j]
			}
		}
	}
	s.curObj, s.negFree = cur, neg
}

// coverBound prices the still-uncovered covering rows. A row is needed
// when no column covers it yet and none of its unfixed columns has
// negative cost (combBound already charges those), so some non-negative
// unfixed column must still be paid for it. Two lower bounds on that extra
// cost are computed and the larger is returned:
//
//   - counting: a single selection covers at most maxCov needed rows and
//     costs at least minC, so ceil(N/maxCov)·minC is unavoidable;
//   - cost share: a selected column j covering cov_j needed rows can split
//     its cost evenly over them, so each needed row costs at least
//     min_{unfixed j ∈ row} c_j/cov_j, and the sum over needed rows is
//     unavoidable. Unlike the counting term it prices each row by its own
//     columns, so one cheap column elsewhere does not zero the bound.
//
// Coverage state comes from the trail-maintained counters; the needed-row
// marks and per-row shares live in epoch-stamped scratch buffers, so the
// bound allocates nothing.
func (s *solver) coverBound() float64 {
	if len(s.coverRows) == 0 {
		return 0
	}
	needed := 0
	s.markEpoch++
	for ri := range s.coverRows {
		if s.coverCnt[ri] == 0 && s.coverNeg[ri] == 0 {
			s.neededMark[ri] = s.markEpoch
			s.rowShare[ri] = math.Inf(1)
			needed++
		}
	}
	pick := s.branching == BranchCoverGreedy && s.fusedPick
	if needed == 0 {
		s.coverPick, s.coverPickOK = -1, pick
		return 0
	}
	maxCov, best := 0, -1
	minC := math.Inf(1)
	for j := range s.fixed {
		if s.fixed[j] != -1 || s.obj[j] < 0 {
			continue
		}
		rows := s.coverOfVar[j]
		cov := 0
		for _, ri := range rows {
			if s.neededMark[ri] == s.markEpoch {
				cov++
			}
		}
		if cov == 0 {
			continue
		}
		if cov > maxCov {
			maxCov, best = cov, j
		}
		c := s.obj[j]
		if c < minC {
			minC = c
		}
		share := c / float64(cov)
		for _, ri := range rows {
			if s.neededMark[ri] == s.markEpoch && share < s.rowShare[ri] {
				s.rowShare[ri] = share
			}
		}
	}
	if maxCov == 0 {
		// No unfixed column can cover a needed row: the node is infeasible;
		// report an infinite bound so it prunes immediately.
		return math.Inf(1)
	}
	s.coverPick, s.coverPickOK = best, pick
	shares := 0.0
	for ri := range s.coverRows {
		if s.neededMark[ri] == s.markEpoch {
			shares += s.rowShare[ri] // +Inf when the row has no unfixed column
		}
	}
	// The shares are non-negative; each carries one division rounding and
	// the sum at most needed-1 addition roundings, so shrinking by
	// (needed+2)·2⁻⁵² keeps the float result at or below the exact sum.
	shares *= 1 - float64(needed+2)*0x1p-52
	count := float64((needed+maxCov-1)/maxCov) * minC
	return max(count, shares)
}

// ensureLP builds the base LP relaxation once per solve. Nodes differ only
// in variable bounds, which SetBounds mutates in place.
func (s *solver) ensureLP() {
	if s.lpBase != nil {
		return
	}
	p := lp.NewProblem(false)
	for j := range s.fixed {
		p.AddVariable(s.obj[j], 0, 1)
	}
	buf := make([]lp.Coef, 0, 16)
	for _, r := range s.rows {
		buf = buf[:0]
		for _, c := range r.coefs {
			buf = append(buf, lp.Coef{Var: c.Var, Val: c.Val})
		}
		p.AddRow(buf, lp.LE, r.rhs)
	}
	s.lpBase = p
	s.lpSolver = lp.NewSolver(p)
}

// nodeLP solves the relaxation of the current node, warm-starting the
// simplex from the previous node's basis. The result is cached so the
// bound and the fractional branching rule share one solve per node.
func (s *solver) nodeLP() *lp.Result {
	if s.lpResOK && s.lpResTrail == len(s.trail) {
		return &s.lpRes
	}
	s.ensureLP()
	for j, v := range s.fixed {
		lo, hi := 0.0, 1.0
		switch v {
		case 0:
			hi = 0
		case 1:
			lo = 1
		}
		s.lpBase.SetBounds(j, lo, hi)
	}
	s.lpSolves++
	s.lpRes = s.lpSolver.Solve()
	s.lpResTrail = len(s.trail)
	s.lpResOK = true
	return &s.lpRes
}

// lpBound prices the node by its LP relaxation.
func (s *solver) lpBound() (float64, bool) {
	res := s.nodeLP()
	switch res.Status {
	case lp.Optimal:
		return res.Objective, true
	case lp.Infeasible:
		return math.Inf(1), true // prune: no completion exists
	default:
		return 0, false
	}
}

// pickVar selects the next branching variable, or -1 when all are fixed.
func (s *solver) pickVar() int {
	switch s.branching {
	case BranchCoverGreedy:
		// Greedy set-cover choice: the unfixed variable covering the most
		// still-uncovered covering rows (read off the trail-maintained
		// counts; the first such index wins); falls through to
		// max-objective when every row is covered. coverBound's sweep
		// already made this choice when coverPickOK.
		if s.coverPickOK {
			if s.coverPick >= 0 {
				return s.coverPick
			}
			return s.pickMaxObj()
		}
		best, bestCov := -1, 0
		for j, v := range s.fixed {
			if v != -1 {
				continue
			}
			cov := 0
			for _, ri := range s.coverOfVar[j] {
				if s.coverCnt[ri] == 0 {
					cov++
				}
			}
			if cov > bestCov {
				best, bestCov = j, cov
			}
		}
		if best >= 0 {
			return best
		}
		return s.pickMaxObj()
	case BranchMostConstrained:
		best, bestOcc := -1, -1
		for j, v := range s.fixed {
			if v == -1 && len(s.varOccs[j]) > bestOcc {
				best, bestOcc = j, len(s.varOccs[j])
			}
		}
		return best
	case BranchLPFractional:
		if s.opts.Bounding == LPBound {
			if j := s.lpFractionalVar(); j >= 0 {
				return j
			}
		}
		return s.pickMaxObj()
	default:
		return s.pickMaxObj()
	}
}

func (s *solver) pickMaxObj() int {
	best, bestAbs := -1, -1.0
	for j, v := range s.fixed {
		if v == -1 && math.Abs(s.obj[j]) > bestAbs {
			best, bestAbs = j, math.Abs(s.obj[j])
		}
	}
	return best
}

// lpFractionalVar returns the unfixed variable with the most fractional
// value in the node relaxation (shared with the bound — no second solve),
// or -1.
func (s *solver) lpFractionalVar() int {
	res := s.nodeLP()
	if res.Status != lp.Optimal {
		return -1
	}
	best, bestDist := -1, 2.0
	for j, x := range res.X {
		if s.fixed[j] != -1 {
			continue
		}
		d := math.Abs(x - 0.5)
		if d < bestDist {
			best, bestDist = j, d
		}
	}
	return best
}
