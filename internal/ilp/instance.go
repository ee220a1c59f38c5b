package ilp

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Instance is a long-lived solver object wrapping one Model — the paper's
// "same model ± a few rows" made literal. Where Solve treats every call as
// a fresh problem, an Instance accumulates deltas (AddRows / RemoveRows /
// SetRHS / SetObj / PinVar / UnpinVar) and Resolve reuses whatever state
// the edits left valid:
//
//   - the branch-and-bound kernel (normalized rows, flat column index,
//     trail arena, cover structure) survives RHS-only edits outright —
//     edited right-hand sides are patched in place;
//   - the LP relaxation basis survives with it: an RHS edit becomes a
//     slack-bound shift in the retained simplex, so the next root solve is
//     a dual-simplex-style reoptimization instead of a cold start (see
//     lp.Solver);
//   - the previous solution becomes the warm start when the caller
//     supplies none.
//
// Structural edits (row adds/removes, objective edits, pin changes) are
// tracked and force the kernel to rebuild from the mutated model on the
// next Resolve; the warm start still carries over. A cut pool retained
// across resolves is the caller's Options.CutPool, read exactly as Solve
// reads it. The Instance owns its Model: callers must not mutate it
// behind the Instance's back.
//
// All methods are safe for concurrent use; Resolve serializes.
type Instance struct {
	mu sync.Mutex
	m  *Model

	// rowIdx maps row names to live model-row indices. Unnamed rows are
	// not addressable by deltas (they can only be replaced by a rebuild).
	rowIdx map[string][]int
	// tombstones counts removed rows still occupying a model slot (they
	// are blanked in place so live indices stay stable; compaction
	// reclaims them once they outnumber half the live rows).
	tombstones int

	// Retained kernel (RHS-only fast path).
	kern *solver
	// normIdx maps each model-row index to its first normalized-row index
	// inside kern (an EQ row owns two consecutive normalized rows).
	normIdx []int
	// rhsDirty lists model rows whose RHS changed since the kernel was
	// built or last patched.
	rhsDirty map[int]float64
	// structDirty is set by any edit the retained kernel cannot absorb.
	structDirty bool

	resolves     int64 // completed Resolve calls
	pendingDelta int64 // row edits since the previous Resolve

	lastSol Solution
}

// NewInstance wraps m (taking ownership) in a fresh Instance.
func NewInstance(m *Model) *Instance {
	in := &Instance{m: m, rhsDirty: make(map[int]float64)}
	in.rebuildRowIndex()
	return in
}

// isTombstone reports whether a model row slot holds a removed row.
func isTombstone(r Row) bool {
	return r.Name == "" && len(r.Coefs) == 0 && r.Sense == LE && r.RHS == 0
}

func (in *Instance) rebuildRowIndex() {
	in.rowIdx = make(map[string][]int)
	in.tombstones = 0
	for i := 0; i < in.m.NumRows(); i++ {
		r := in.m.RowAt(i)
		if isTombstone(r) {
			in.tombstones++
			continue
		}
		if r.Name != "" {
			in.rowIdx[r.Name] = append(in.rowIdx[r.Name], i)
		}
	}
}

// noteEdit records bookkeeping common to every delta method.
func (in *Instance) noteEdit(rows int, structural bool) {
	in.pendingDelta += int64(rows)
	if structural {
		in.structDirty = true
	}
}

// AddRows appends rows to the model. Named rows become addressable by
// RemoveRows/SetRHS; coefficients must reference existing variables.
func (in *Instance) AddRows(rows []Row) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range rows {
		i := in.m.AddRow(r.Name, r.Coefs, r.Sense, r.RHS)
		if r.Name != "" {
			in.rowIdx[r.Name] = append(in.rowIdx[r.Name], i)
		}
	}
	if len(rows) > 0 {
		in.noteEdit(len(rows), true)
	}
}

// RemoveRows removes every live row whose name appears in names and
// returns how many rows were removed. Removed slots are blanked in place
// (keeping other rows' indices stable) and compacted away once they
// outnumber half the live rows.
func (in *Instance) RemoveRows(names []string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	removed := 0
	for _, name := range names {
		if name == "" {
			continue
		}
		for _, i := range in.rowIdx[name] {
			in.m.rows[i] = Row{}
			delete(in.rhsDirty, i)
			removed++
		}
		if len(in.rowIdx[name]) > 0 {
			delete(in.rowIdx, name)
		}
	}
	if removed == 0 {
		return 0
	}
	in.tombstones += removed
	in.noteEdit(removed, true)
	if live := in.m.NumRows() - in.tombstones; in.tombstones > 16 && in.tombstones > live/2 {
		in.compactLocked()
	}
	return removed
}

// compactLocked rewrites the model without tombstone slots.
func (in *Instance) compactLocked() {
	kept := in.m.rows[:0]
	for _, r := range in.m.rows {
		if !isTombstone(r) {
			kept = append(kept, r)
		}
	}
	in.m.rows = kept
	in.rhsDirty = make(map[int]float64)
	in.rebuildRowIndex()
	in.structDirty = true
}

// SetRHS sets the right-hand side of every live row named name, returning
// false when no such row exists. An RHS edit is the cheapest delta: the
// retained kernel and LP basis absorb it without rebuilding.
func (in *Instance) SetRHS(name string, rhs float64) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := in.rowIdx[name]
	if len(idx) == 0 {
		return false
	}
	for _, i := range idx {
		r := &in.m.rows[i]
		if r.RHS == rhs {
			continue
		}
		// Cover-row guard: the kernel's counting bound and greedy branching
		// key off Σx {≥,=} 1 rows, so an edit that moves a GE/EQ row onto
		// or off RHS 1 changes the cover structure and needs a rebuild.
		if r.Sense != LE && (r.RHS == 1 || rhs == 1) {
			in.structDirty = true
		}
		r.RHS = rhs
		in.rhsDirty[i] = rhs
		in.noteEdit(1, false)
	}
	return true
}

// SetObj sets variable j's objective coefficient. Objective edits rebuild
// the kernel on the next Resolve (the bound terms, cover negative counts,
// and LP costs all derive from it).
func (in *Instance) SetObj(j int, c float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.m.Obj(j) == c {
		return
	}
	in.m.SetObj(j, c)
	in.noteEdit(1, true)
}

// pinName is the reserved row-name prefix for PinVar rows.
func pinName(j int) string { return fmt.Sprintf("__pin%d", j) }

// PinVar fixes variable j to v (0 or 1) via a unit equality row until
// UnpinVar — the linajea-style "pinned variables across many solves"
// pattern. Re-pinning to the same value is a no-op.
func (in *Instance) PinVar(j int, v int8) {
	if v != 0 && v != 1 {
		panic(fmt.Sprintf("ilp: pin value %d not 0/1", v))
	}
	name := pinName(j)
	in.mu.Lock()
	idx := in.rowIdx[name]
	in.mu.Unlock()
	if len(idx) > 0 {
		in.SetRHS(name, float64(v))
		return
	}
	in.AddRows([]Row{{Name: name, Coefs: []Coef{{Var: j, Val: 1}}, Sense: EQ, RHS: float64(v)}})
}

// UnpinVar removes variable j's pin row, reporting whether one existed.
func (in *Instance) UnpinVar(j int) bool {
	return in.RemoveRows([]string{pinName(j)}) > 0
}

// Fingerprint returns an order-insensitive content hash of the live model
// (rows as a multiset, objective, direction). Two instances that arrived
// at the same model through different delta orders fingerprint equal;
// conformance tests compare delta-built instances against full re-encodes
// with it.
func (in *Instance) Fingerprint() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return ModelFingerprint(in.m)
}

// ModelFingerprint is Instance.Fingerprint over a bare model.
func ModelFingerprint(m *Model) uint64 {
	hashRow := func(r Row) uint64 {
		h := uint64(14695981039346656037)
		mix := func(x uint64) {
			for i := 0; i < 8; i++ {
				h ^= x & 0xff
				h *= 1099511628211
				x >>= 8
			}
		}
		for _, b := range []byte(r.Name) {
			mix(uint64(b))
		}
		mix(uint64(r.Sense))
		mix(math.Float64bits(r.RHS))
		cs := canonCoefs(r.Coefs, false)
		for _, c := range cs {
			mix(uint64(c.Var))
			mix(math.Float64bits(c.Val))
		}
		return h
	}
	var sum uint64
	for i := 0; i < m.NumRows(); i++ {
		r := m.RowAt(i)
		if isTombstone(r) {
			continue
		}
		sum += hashRow(r) // wrapping sum: order-insensitive, duplicates count
	}
	if m.Maximize {
		sum += 1
	}
	for j := 0; j < m.NumVars(); j++ {
		sum += hashRow(Row{Name: m.VarName(j), RHS: m.Obj(j), Sense: -1})
	}
	return sum
}

// Resolve solves the instance's current model. RHS-only deltas run on
// the retained kernel and LP basis; structural deltas rebuild the kernel.
// When opts carries no WarmStart the previous solution (if any) is used.
func (in *Instance) Resolve(opts Options) Result {
	in.mu.Lock()
	defer in.mu.Unlock()
	start := time.Now()

	if opts.WarmStart == nil && in.lastSol != nil && len(in.lastSol) == in.m.NumVars() {
		opts.WarmStart = in.lastSol
	}
	var res Result
	if in.kernelRetainable(opts) {
		kern, path := in.retainedKernel(opts)
		res = timedSearch(kern.run)
		res.Kernel = path
	} else {
		res = solvePrepared(in.m, opts)
		in.kern = nil
	}
	res.InstanceReused = in.resolves
	res.RowsDelta = in.pendingDelta
	res.Runtime = time.Since(start)

	in.resolves++
	in.pendingDelta = 0
	if res.Solution != nil {
		in.lastSol = res.Solution.Clone()
	}
	return res
}

// kernelRetainable reports whether opts admit keeping a raw kernel
// between resolves: presolve and cuts rewrite the working model per
// solve, and the parallel search builds per-worker solvers, so only the
// plain serial shape retains. The session service's Replan re-solves
// clear Presolve and Cuts, so served replans take this path.
func (in *Instance) kernelRetainable(opts Options) bool {
	return !opts.Presolve && !opts.Cuts && opts.Workers <= 1
}

// retainedKernel returns the kernel for this resolve, reset for opts, and
// the path that produced it: the retained one with pending RHS edits
// patched into its normalized rows and LP relaxation, or one rebuilt from
// the current model when there is none or a pending delta is structural.
func (in *Instance) retainedKernel(opts Options) (*solver, KernelPath) {
	if in.kern == nil || in.structDirty {
		in.buildKernel(opts)
		return in.kern, KernelRebuilt
	}
	s := in.kern
	for i, rhs := range in.rhsDirty {
		ni := in.normIdx[i]
		switch in.m.RowAt(i).Sense {
		case LE:
			s.rows[ni].rhs = rhs
			if s.lpBase != nil {
				s.lpBase.SetRHS(ni, rhs)
			}
		case GE:
			s.rows[ni].rhs = -rhs
			if s.lpBase != nil {
				s.lpBase.SetRHS(ni, -rhs)
			}
		case EQ:
			s.rows[ni].rhs = rhs
			s.rows[ni+1].rhs = -rhs
			if s.lpBase != nil {
				s.lpBase.SetRHS(ni, rhs)
				s.lpBase.SetRHS(ni+1, -rhs)
			}
		}
	}
	clear(in.rhsDirty)
	s.reset(opts)
	return s, KernelPatched
}

// buildKernel constructs the retained kernel and the model-row →
// normalized-row index map from the current model.
func (in *Instance) buildKernel(opts Options) {
	in.kern = newSolver(in.m, opts)
	in.normIdx = make([]int, in.m.NumRows())
	ni := 0
	for i := 0; i < in.m.NumRows(); i++ {
		in.normIdx[i] = ni
		if in.m.RowAt(i).Sense == EQ {
			ni += 2
		} else {
			ni++
		}
	}
	clear(in.rhsDirty)
	in.structDirty = false
}
