package ilp

// This file is the classical-presolve layer of the kernel: a pass that
// runs once per Solve (Options.Presolve) and shrinks the model before
// branch and bound ever sees it. The EC flow re-solves almost the same
// ILP after every change, so constant factors removed here — fixed
// columns, dropped rows — are removed from every node of every re-solve.
//
// Four safe reductions run to fixpoint:
//
//   - row-slack bound tightening: a variable whose assignment would push a
//     row's activity bound past its right-hand side is fixed to the only
//     surviving value (the presolve-time form of the kernel's worklist
//     propagation);
//   - redundant-row elimination: a row no 0-1 point can violate is
//     dropped;
//   - duplicate-row elimination: rows with identical residual coefficient
//     vectors keep only the tightest right-hand side (equal-coefficient
//     equality rows with different right-hand sides prove infeasibility);
//   - dominated 0/1 column fixing: a column whose value v never hurts any
//     row (sense-aware sign test) and never hurts the objective is fixed
//     to v — at least one optimal solution survives the fixing.
//
// Every reduction maps back: postsolve rebuilds an original-space
// solution from a reduced-space one, and any reduced-feasible solution
// extended with the fixed values is feasible in the original model, so
// status and objective are preserved exactly (differential-tested against
// raw solves in presolve_test.go and the domain conformance suite).

import "math"

const presolveEps = 1e-9

// presolved is the outcome of presolveModel: the reduced model plus the
// maps needed to translate solutions, warm starts, and cuts between the
// original and reduced variable spaces.
type presolved struct {
	reduced *Model
	// fixedVals is -1 for kept variables, else the fixed 0/1 value, per
	// original variable index.
	fixedVals []int8
	// toReduced maps original variable index to reduced index (-1 fixed).
	toReduced []int
	// toOrig maps reduced variable index to original index.
	toOrig []int

	infeasible   bool
	nFixed       int
	nRowsDropped int
	dirty        bool // a pass fixed a variable or dropped a row
}

// preRow is one row of the presolve working copy, compacted against the
// current fixings (fixed variables substituted into the right-hand side).
type preRow struct {
	coefs []Coef
	sense Sense
	rhs   float64
	name  string
	live  bool
	// stale marks a row for the next Pass 1: every row at the start, then
	// a row that holds a variable fixed since its last reduce or whose rhs
	// Pass 2 tightened. Reducing any other row changes nothing, so the
	// worklist makes exactly the fixings of a sweep over every row.
	stale bool
	// canon is set once the coefficients are canonical (sorted, merged,
	// nonzero). The first reduce canonicalizes; later reduces only drop
	// fixed variables, which keeps the row canonical.
	canon bool
	// sig hashes sense and coefficients for Pass 2; every reduce
	// refreshes it.
	sig uint64
}

// presolveWork is the fixpoint's working state around the outcome it
// fills in.
type presolveWork struct {
	*presolved
	rows []preRow
	// The rows variable j occurs in are occ[occStart[j]:occStart[j+1]]:
	// fixing x_j marks exactly those rows stale.
	occStart, occ []int32
}

// fix records x_j = v and marks the rows holding x_j stale. It reports
// false when j is already fixed to the opposite value, which proves the
// model infeasible.
func (w *presolveWork) fix(j int, v int8) bool {
	switch w.fixedVals[j] {
	case -1:
		w.fixedVals[j] = v
		w.nFixed++
		w.dirty = true
		for _, ri := range w.occ[w.occStart[j]:w.occStart[j+1]] {
			w.rows[ri].stale = true
		}
		return true
	case v:
		return true
	default:
		w.infeasible = true
		return false
	}
}

// presolveModel runs the reduction fixpoint on m and returns the mapping.
// m is not modified. When infeasible is set the model has no 0-1 point;
// when the reduced model has zero variables, fixedVals is a complete
// assignment.
func presolveModel(m *Model) *presolved {
	n := m.NumVars()
	p := &presolved{fixedVals: make([]int8, n)}
	for j := range p.fixedVals {
		p.fixedVals[j] = -1
	}
	// Internal minimization objective: domination reasons about "never
	// hurts the objective" in one direction only.
	obj := make([]float64, n)
	for j := 0; j < n; j++ {
		c := m.obj[j]
		if m.Maximize {
			c = -c
		}
		obj[j] = c
	}
	w := newPresolveWork(p, m)
	rows := w.rows

	canFix0 := make([]bool, n)
	canFix1 := make([]bool, n)
	// Pass 2 keys the first row of each hash in sigs. A row whose hash
	// another signature already holds goes to collided, which stays empty
	// but for a 64-bit hash collision.
	sigs := make(map[uint64]int32, len(rows))
	var collided []int32

	for {
		p.dirty = false
		// Pass 1: per-row compaction, redundancy, and slack forcing on the
		// stale rows.
		for ri := range rows {
			r := &rows[ri]
			if !r.live || !r.stale {
				continue
			}
			r.stale = false
			if !w.reduceRow(r) {
				return p
			}
		}
		if p.infeasible {
			return p
		}
		// Pass 2: duplicate-row elimination on the compacted rows. A row
		// is compared exactly against the earlier rows of its hash; the
		// first row with a signature keeps it.
		clear(sigs)
		collided = collided[:0]
		for ri := range rows {
			r := &rows[ri]
			if !r.live {
				continue
			}
			prev, ok := sigs[r.sig]
			if !ok {
				sigs[r.sig] = int32(ri)
				continue
			}
			if !sameSignature(&rows[prev], r) {
				prev = -1
				for _, k := range collided {
					if rows[k].sig == r.sig && sameSignature(&rows[k], r) {
						prev = k
						break
					}
				}
				if prev < 0 {
					collided = append(collided, int32(ri))
					continue
				}
			}
			keep := &rows[prev]
			switch r.sense {
			case LE:
				if r.rhs < keep.rhs {
					keep.rhs = r.rhs
					keep.stale = true
				}
			case GE:
				if r.rhs > keep.rhs {
					keep.rhs = r.rhs
					keep.stale = true
				}
			case EQ:
				if diff := r.rhs - keep.rhs; diff > presolveEps || diff < -presolveEps {
					p.infeasible = true
					return p
				}
			}
			r.live = false
			p.nRowsDropped++
			p.dirty = true
		}
		// Pass 3: dominated 0/1 column fixing. x_j = v is dominant when v
		// never hurts any live row (sign test per sense) and never hurts
		// the minimization objective; at least one optimal solution then
		// has x_j = v.
		for j := 0; j < n; j++ {
			canFix0[j] = p.fixedVals[j] == -1 && obj[j] >= 0
			canFix1[j] = p.fixedVals[j] == -1 && obj[j] <= 0
		}
		for ri := range rows {
			r := &rows[ri]
			if !r.live {
				continue
			}
			ub := r.sense == LE || r.sense == EQ
			lb := r.sense == GE || r.sense == EQ
			for _, c := range r.coefs {
				if ub {
					if c.Val > 0 {
						canFix1[c.Var] = false
					} else if c.Val < 0 {
						canFix0[c.Var] = false
					}
				}
				if lb {
					if c.Val > 0 {
						canFix0[c.Var] = false
					} else if c.Val < 0 {
						canFix1[c.Var] = false
					}
				}
			}
		}
		for j := 0; j < n; j++ {
			if canFix0[j] {
				w.fix(j, 0)
			} else if canFix1[j] {
				w.fix(j, 1)
			}
		}
		if !p.dirty {
			break
		}
	}

	p.buildReduced(m, rows)
	return p
}

// newPresolveWork copies m's rows, all stale, into one backing array and
// indexes the rows of every variable.
func newPresolveWork(p *presolved, m *Model) *presolveWork {
	n := m.NumVars()
	w := &presolveWork{presolved: p, rows: make([]preRow, len(m.rows)), occStart: make([]int32, n+1)}
	nnz := 0
	for _, r := range m.rows {
		nnz += len(r.Coefs)
		for _, c := range r.Coefs {
			w.occStart[c.Var+1]++
		}
	}
	for j := 0; j < n; j++ {
		w.occStart[j+1] += w.occStart[j]
	}
	w.occ = make([]int32, nnz)
	fill := append([]int32(nil), w.occStart[:n]...)
	coefs := make([]Coef, nnz)
	for i, r := range m.rows {
		for _, c := range r.Coefs {
			w.occ[fill[c.Var]] = int32(i)
			fill[c.Var]++
		}
		k := copy(coefs, r.Coefs)
		w.rows[i] = preRow{coefs: coefs[:k:k], sense: r.Sense, rhs: r.RHS, name: r.Name, live: true, stale: true}
		coefs = coefs[k:]
	}
	return w
}

// reduceRow compacts r against the current fixings, drops the row when
// redundant, and applies slack forcing. It reports false when the model
// is proven infeasible.
func (w *presolveWork) reduceRow(r *preRow) bool {
	// Substitute fixed variables into the right-hand side. The first
	// reduce then merges per-variable coefficients (sorted order also
	// canonicalizes the row for duplicate elimination).
	out := r.coefs[:0]
	for _, c := range r.coefs {
		if v := w.fixedVals[c.Var]; v != -1 {
			if v == 1 {
				r.rhs -= c.Val
			}
			continue
		}
		out = append(out, c)
	}
	if !r.canon {
		out = canonicalizeCoefs(out)
		r.canon = true
	}
	r.coefs = out
	r.sig = signatureHash(r.sense, out)

	minAct, maxAct := 0.0, 0.0
	for _, c := range out {
		if c.Val < 0 {
			minAct += c.Val
		} else {
			maxAct += c.Val
		}
	}
	ub := r.sense == LE || r.sense == EQ
	lb := r.sense == GE || r.sense == EQ
	if ub && minAct > r.rhs+presolveEps {
		w.infeasible = true
		return false
	}
	if lb && maxAct < r.rhs-presolveEps {
		w.infeasible = true
		return false
	}
	redundant := true
	if ub && maxAct > r.rhs+presolveEps {
		redundant = false
	}
	if lb && minAct < r.rhs-presolveEps {
		redundant = false
	}
	if redundant {
		r.live = false
		w.nRowsDropped++
		w.dirty = true
		return true
	}
	// Slack forcing. Fixings made mid-scan leave minAct/maxAct stale in
	// the conservative direction (conditions only get harder to trigger),
	// so no forcing here is ever unsound; each fixing marks this row
	// stale, so the next pass recomputes.
	for _, c := range out {
		if ub {
			if c.Val > 0 && minAct+c.Val > r.rhs+presolveEps {
				if !w.fix(c.Var, 0) {
					return false
				}
			} else if c.Val < 0 && minAct-c.Val > r.rhs+presolveEps {
				if !w.fix(c.Var, 1) {
					return false
				}
			}
		}
		if lb && w.fixedVals[c.Var] == -1 {
			if c.Val > 0 && maxAct-c.Val < r.rhs-presolveEps {
				if !w.fix(c.Var, 1) {
					return false
				}
			} else if c.Val < 0 && maxAct+c.Val < r.rhs-presolveEps {
				if !w.fix(c.Var, 0) {
					return false
				}
			}
		}
	}
	return true
}

// signatureHash hashes a row's sense and coefficient vector (not the
// right-hand side): rows whose residual constraints differ only in rhs
// hash equal. sameSignature settles collisions.
func signatureHash(sense Sense, coefs []Coef) uint64 {
	h := uint64(14695981039346656037) ^ uint64(sense)
	for _, c := range coefs {
		h = (h ^ uint64(c.Var)) * 1099511628211
		h = (h ^ math.Float64bits(c.Val)) * 1099511628211
	}
	return h
}

// sameSignature reports whether two rows have the same sense and the same
// coefficient vector, bit for bit.
func sameSignature(a, b *preRow) bool {
	if a.sense != b.sense || len(a.coefs) != len(b.coefs) {
		return false
	}
	for i, c := range a.coefs {
		d := b.coefs[i]
		if c.Var != d.Var || math.Float64bits(c.Val) != math.Float64bits(d.Val) {
			return false
		}
	}
	return true
}

// buildReduced emits the reduced model and the variable maps. The
// fixpoint loop exits only after a pass with no changes, so every live
// row is already compacted against the final fixings.
func (p *presolved) buildReduced(m *Model, rows []preRow) {
	n := m.NumVars()
	p.toReduced = make([]int, n)
	red := NewModel(m.Maximize)
	for j := 0; j < n; j++ {
		if p.fixedVals[j] != -1 {
			p.toReduced[j] = -1
			continue
		}
		p.toReduced[j] = len(p.toOrig)
		p.toOrig = append(p.toOrig, j)
		red.AddVar(m.names[j], m.obj[j])
	}
	// AddRow copies its coefficients, so one buffer serves every row.
	var coefs []Coef
	for ri := range rows {
		r := &rows[ri]
		if !r.live {
			continue
		}
		coefs = coefs[:0]
		for _, c := range r.coefs {
			coefs = append(coefs, Coef{p.toReduced[c.Var], c.Val})
		}
		red.AddRow(r.name, coefs, r.sense, r.rhs)
	}
	p.reduced = red
}

// postsolve maps a reduced-space solution back to the original variable
// space by filling in the presolve-fixed values.
func (p *presolved) postsolve(sol Solution) Solution {
	out := make(Solution, len(p.fixedVals))
	for j, v := range p.fixedVals {
		if v == -1 {
			out[j] = sol[p.toReduced[j]]
		} else {
			out[j] = v
		}
	}
	return out
}

// fixedSolution returns the complete assignment when presolve fixed every
// variable (the reduced model is empty).
func (p *presolved) fixedSolution() Solution {
	out := make(Solution, len(p.fixedVals))
	for j, v := range p.fixedVals {
		if v == 1 {
			out[j] = 1
		}
	}
	return out
}

// mapWarm projects an original-space warm start onto the reduced space.
// Values that disagree with presolve fixings are simply dropped with
// their variables: the projection only guides branching, and run()
// re-checks feasibility on the reduced model before adopting it.
func (p *presolved) mapWarm(ws Solution) Solution {
	if ws == nil || len(ws) != len(p.fixedVals) {
		return nil
	}
	out := make(Solution, len(p.toOrig))
	for rj, oj := range p.toOrig {
		out[rj] = ws[oj]
	}
	return out
}

// mapCut translates an original-space cut into the reduced space by
// substituting the fixed values. ok is false when the cut has no unfixed
// variables left (dropping a cut is always safe — cuts are redundant for
// the integer set).
func (p *presolved) mapCut(c Cut) (Cut, bool) {
	coefs := make([]Coef, 0, len(c.Coefs))
	rhs := c.RHS
	for _, cf := range c.Coefs {
		if v := p.fixedVals[cf.Var]; v != -1 {
			if v == 1 {
				rhs -= cf.Val
			}
			continue
		}
		coefs = append(coefs, Coef{p.toReduced[cf.Var], cf.Val})
	}
	if len(coefs) == 0 {
		return Cut{}, false
	}
	return Cut{Coefs: coefs, RHS: rhs}, true
}
