package ilp

import (
	"context"
	"encoding/binary"
	"io"
	"time"
)

// Status is the outcome of a solve.
type Status int

const (
	// Optimal: the returned solution is proven optimal.
	Optimal Status = iota
	// Infeasible: the model has no feasible 0-1 point (proven).
	Infeasible
	// Feasible: a feasible solution was found but limits stopped the proof.
	Feasible
	// Unknown: limits stopped the search before any feasible solution.
	Unknown
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "OPTIMAL"
	case Infeasible:
		return "INFEASIBLE"
	case Feasible:
		return "FEASIBLE"
	default:
		return "UNKNOWN"
	}
}

// Bounding selects the relaxation used to prune branch-and-bound nodes.
type Bounding int

const (
	// CombBound uses the O(n) combinatorial bound: objective of fixed
	// variables plus the best-case completion of unfixed ones, ignoring
	// constraints. Cheap; the default.
	CombBound Bounding = iota
	// LPBound solves the LP relaxation at each node via internal/lp.
	// Tighter but far more expensive per node.
	LPBound
)

// Branching selects the variable-choice rule.
type Branching int

const (
	// BranchMaxObj picks the unfixed variable with the largest absolute
	// objective coefficient (ties to the lowest index). The default.
	BranchMaxObj Branching = iota
	// BranchMostConstrained picks the unfixed variable occurring in the
	// most rows.
	BranchMostConstrained
	// BranchLPFractional picks the variable whose LP-relaxation value is
	// closest to ½ (requires LPBound; falls back to BranchMaxObj).
	BranchLPFractional
	// BranchCoverGreedy picks the unfixed variable covering the most
	// still-uncovered Σx ≥ 1 rows, diving on value 1 first — the greedy
	// set-cover order. Selected automatically instead of BranchMaxObj when
	// the model contains covering rows.
	BranchCoverGreedy
)

// Options configures Solve. The zero value gives an exact solve with
// combinatorial bounding and max-objective branching.
type Options struct {
	Bounding  Bounding
	Branching Branching
	// WarmStart, if non-nil and feasible, becomes the initial incumbent,
	// and branching tries each variable's warm value first. This is the
	// mechanism by which EC re-solves exploit the original solution.
	WarmStart Solution
	// MaxNodes bounds the total number of branch-and-bound nodes across
	// the whole search (0 = unlimited). The budget is global: with
	// Workers > 1 all searchers draw from one shared counter, so raising
	// Workers never multiplies the node budget.
	MaxNodes int64
	// TimeLimit bounds wall-clock time (0 = unlimited).
	TimeLimit time.Duration
	// Workers > 1 splits the root into subproblems by fixing the first k
	// branching variables and searches them on parallel goroutines sharing
	// an incumbent bound. The optimum is unchanged; the reported Solution
	// may be any optimal one. 0 or 1 selects the serial search.
	Workers int
	// Presolve runs the reduction fixpoint of presolve.go before the
	// search: slack forcing, redundant/duplicate row elimination, and
	// dominated column fixing, with solutions mapped back through the
	// postsolve maps. Status and objective are preserved exactly.
	Presolve bool
	// Cuts separates lifted cover cuts and clique cuts (cuts.go) and adds
	// them as extra rows, tightening propagation and the LP relaxation.
	// Implied inequalities only: status and objective are unchanged.
	Cuts bool
	// CutPool, when non-nil with Cuts set, retains separated cuts across
	// solves keyed by source-row content, so EC re-solves only pay
	// separation for changed rows. Nil uses a transient per-solve pool.
	CutPool *CutPool
	// Context, when non-nil, aborts the search when cancelled (checked on
	// the same stride as TimeLimit). An aborted solve reports Feasible or
	// Unknown, exactly like a time limit.
	Context context.Context

	// cutRows is set internally by Solve: the number of trailing rows of
	// the model handed to the kernel that are cut rows (for the
	// CutTightenings counter).
	cutRows int
}

// Fingerprint writes a canonical binary digest of the answer-relevant
// options to w. Excluded: WarmStart (guides the search but is keyed
// separately by callers that cache solves — the EC session service hashes
// the previous solution alongside), Presolve/Cuts/CutPool (proven to
// preserve status and objective, so reduced and raw solves are
// answer-equivalent), and Context (truncates like TimeLimit, and
// truncated results are never cache-eligible — see the service's
// proven-only caching rule). Two Options values with equal fingerprints
// configure searches that return the same status and objective for the
// same model, provided the search ran to completion.
func (o Options) Fingerprint(w io.Writer) {
	var buf [5 * binary.MaxVarintLen64]byte
	b := buf[:0]
	b = binary.AppendVarint(b, int64(o.Bounding))
	b = binary.AppendVarint(b, int64(o.Branching))
	b = binary.AppendVarint(b, o.MaxNodes)
	b = binary.AppendVarint(b, int64(o.TimeLimit))
	b = binary.AppendVarint(b, int64(o.Workers))
	w.Write(b)
}

// Result is the outcome of Solve.
type Result struct {
	Status       Status
	Objective    float64
	Solution     Solution
	Nodes        int64
	LPSolves     int64
	Propagations int64
	// RowScansSaved counts worklist row visits skipped by the watched-slack
	// early exit — full-row scans the non-indexed engine would have done.
	RowScansSaved int64
	// LPWarmHits counts LP node solves that reused the previous basis.
	LPWarmHits int64
	// PresolveFixed counts variables fixed by the presolve pass.
	PresolveFixed int64
	// PresolveRows counts rows dropped by presolve (redundant +
	// duplicate).
	PresolveRows int64
	// CutsAdded is the number of cut rows added to this solve (separated
	// fresh plus served from the pool).
	CutsAdded int64
	// CutsReused is the subset of CutsAdded served from a retained
	// CutPool without re-separation.
	CutsReused int64
	// CutTightenings counts variable fixings forced by cut rows during
	// propagation — prunings the raw row set would not have made.
	CutTightenings int64
	// InstanceReused counts the earlier Resolve calls of the same
	// Instance, whose warm start (and, with presolve and cuts off, kernel
	// and LP basis) this solve may build on. Zero for scratch solves and
	// for the first solve of an Instance.
	InstanceReused int64
	// RowsDelta is the number of row edits (adds + removes + RHS changes +
	// pin changes) applied to the Instance since its previous Resolve.
	// Zero for scratch solves.
	RowsDelta int64
	// ReseparatedRows counts source rows that paid full cut separation this
	// solve because the retained pool had no entry for their content — on
	// an EC re-solve, the rows the change touched. Zero when Cuts is off.
	ReseparatedRows int64
	// Workers is the number of parallel searchers used (1 = serial).
	Workers int
	Runtime time.Duration
	// Phase wall-clock breakdown of Runtime, for the observability
	// layer: time spent in the presolve pass (zero when cached or off),
	// in cut separation, and in the branch-and-bound kernel itself.
	PresolveTime time.Duration
	CutSepTime   time.Duration
	SearchTime   time.Duration
}

// Solve runs exact branch and bound on the model, after the optional
// presolve and cut-separation layers.
func Solve(m *Model, opts Options) Result {
	start := time.Now()
	res := solvePrepared(m, opts)
	res.Runtime = time.Since(start)
	return res
}

// solveCore dispatches the prepared model to the serial or parallel
// kernel.
func solveCore(m *Model, opts Options) Result {
	return timedSearch(func() Result {
		if opts.Workers > 1 {
			return solveParallel(m, opts)
		}
		return newSolver(m, opts).run()
	})
}

// timedSearch runs one kernel search and records its wall time as the
// result's SearchTime.
func timedSearch(search func() Result) Result {
	start := time.Now()
	res := search()
	res.SearchTime = time.Since(start)
	return res
}

// solvePrepared runs presolve and cut separation, solves the reduced
// model, and maps the answer back to the original variable space.
func solvePrepared(m *Model, opts Options) Result {
	if !opts.Presolve && !opts.Cuts {
		return solveCore(m, opts)
	}

	var pre *presolved
	var preTime time.Duration
	if opts.Presolve {
		preStart := time.Now()
		pre = presolveModel(m)
		preTime = time.Since(preStart)
		if pre.infeasible {
			return Result{
				Status:        Infeasible,
				PresolveFixed: int64(pre.nFixed),
				PresolveRows:  int64(pre.nRowsDropped),
				Workers:       1,
				PresolveTime:  preTime,
			}
		}
	}

	// Cuts are separated in the ORIGINAL variable/row space so the pool's
	// row-content keys stay stable across EC re-solves, then translated
	// through the presolve fixings.
	var cuts []Cut
	var added, reused, freshRows int
	var cutTime time.Duration
	if opts.Cuts {
		pool := opts.CutPool
		if pool == nil {
			pool = NewCutPool()
		}
		cutStart := time.Now()
		cuts, added, reused, freshRows = pool.separate(m)
		cutTime = time.Since(cutStart)
	}

	work := m
	if pre != nil {
		work = pre.reduced
		opts.WarmStart = pre.mapWarm(opts.WarmStart)
		if len(cuts) > 0 {
			mapped := cuts[:0]
			for _, c := range cuts {
				if mc, ok := pre.mapCut(c); ok {
					mapped = append(mapped, mc)
				}
			}
			cuts = mapped
		}
		if work.NumVars() == 0 {
			// Presolve decided everything. The reduced model being
			// conflict-free makes the fixed assignment feasible by
			// construction; Feasible() is a cheap belt-and-braces check.
			sol := pre.fixedSolution()
			if m.Feasible(sol) {
				return Result{
					Status:        Optimal,
					Objective:     m.Objective(sol),
					Solution:      sol,
					PresolveFixed: int64(pre.nFixed),
					PresolveRows:  int64(pre.nRowsDropped),
					Workers:       1,
					PresolveTime:  preTime,
					CutSepTime:    cutTime,
				}
			}
			// Should be unreachable; solve the raw model rather than risk
			// a wrong answer.
			raw := opts
			raw.Presolve, raw.Cuts = false, false
			res := solveCore(m, raw)
			res.PresolveTime, res.CutSepTime = preTime, cutTime
			return res
		}
	}
	if len(cuts) > 0 {
		work = withCutRows(work, cuts)
		opts.cutRows = len(cuts)
	}

	res := solveCore(work, opts)
	res.CutsAdded, res.CutsReused = int64(added), int64(reused)
	res.ReseparatedRows = int64(freshRows)
	res.PresolveTime, res.CutSepTime = preTime, cutTime
	if pre != nil {
		res.PresolveFixed = int64(pre.nFixed)
		res.PresolveRows = int64(pre.nRowsDropped)
		if res.Solution != nil {
			res.Solution = pre.postsolve(res.Solution)
			res.Objective = m.Objective(res.Solution)
		}
	}
	return res
}

// withCutRows returns a model sharing m's variables and rows with the cut
// rows appended (m itself is not modified).
func withCutRows(m *Model, cuts []Cut) *Model {
	out := &Model{Maximize: m.Maximize, names: m.names, obj: m.obj}
	out.rows = make([]Row, 0, len(m.rows)+len(cuts))
	out.rows = append(out.rows, m.rows...)
	for _, c := range cuts {
		out.rows = append(out.rows, Row{Name: "cut", Coefs: c.Coefs, Sense: LE, RHS: c.RHS})
	}
	return out
}
