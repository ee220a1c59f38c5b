package ilp

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"
)

// This file is the cutting-plane layer: valid inequalities separated from
// the model's rows that tighten both the LP relaxation (LPBound mode) and
// pseudo-Boolean propagation (every mode — cut rows join the worklist
// like any other row). Two families are separated:
//
//   - lifted cover cuts from knapsack-style rows (all-positive
//     coefficients after ≤ normalization): a minimal cover C with
//     Σ_{i∈C} a_i > b yields Σ x_i ≤ |C|-1, extended with every column
//     whose coefficient is at least max_{i∈C} a_i;
//   - clique cuts from the pairwise-conflict graph: rows implying
//     x_u + x_v ≤ 1 are conflict edges, and a greedy clique K of size ≥ 3
//     yields Σ_{i∈K} x_i ≤ 1, dominating the |K|² edge constraints.
//
// The pool is the EC-specific part: cuts are RETAINED across re-solves
// and keyed by a content hash of their source row, so a re-solve after an
// engineering change re-separates only the rows the change touched —
// unchanged rows are served from the pool. Clique cuts are re-validated
// against the current conflict-edge set (cheap set lookups) and new
// cliques are grown only from edges that did not exist on the previous
// solve. Entries whose source rows disappear are garbage-collected after
// poolRetainGens solves.

// Cut is one valid inequality Σ Coefs·x ≤ RHS over the variables of the
// model it was separated from. Cuts are implied by the model's integer
// feasible set, so adding them never changes the solver's status or
// objective (only the search effort).
type Cut struct {
	Coefs []Coef
	RHS   float64
}

const (
	// poolRetainGens is how many separate() calls an unused pool entry
	// survives before eviction.
	poolRetainGens = 32
	// maxEdgesPerRow caps the pairwise-conflict edges extracted from one
	// knapsack row (dense rows would otherwise cost O(len²)).
	maxEdgesPerRow = 256
	// maxCliques caps the cliques grown per separate() call.
	maxCliques = 512
)

// poolEntry holds the cuts separated from one source row.
type poolEntry struct {
	cuts []Cut
	gen  int64
}

// clique is one retained conflict-graph clique.
type clique struct {
	members []int
	key     string
}

// CutPool separates cutting planes for a model and retains them across
// solves. A long-lived pool (one per EC session) makes re-solves after a
// change pay separation cost only for the changed rows. The zero value is
// not usable; create pools with NewCutPool. All methods are safe for
// concurrent use.
type CutPool struct {
	mu        sync.Mutex
	gen       int64
	rows      map[uint64]*poolEntry
	cliques   []clique
	prevEdges map[uint64]struct{}
}

// NewCutPool returns an empty pool.
func NewCutPool() *CutPool {
	return &CutPool{
		rows:      make(map[uint64]*poolEntry),
		prevEdges: make(map[uint64]struct{}),
	}
}

// Len returns the number of retained source-row entries plus cliques.
func (p *CutPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.rows) + len(p.cliques)
}

// separate returns the cut set for m in m's variable space, reusing pool
// entries whose source rows are content-identical to a previous solve and
// separating fresh rows only. added counts newly separated cuts, reused
// counts cuts served from the pool, and freshRows counts source rows that
// had no pool entry and paid full separation — on an EC re-solve through a
// retained pool this is exactly the set of rows the change touched.
func (p *CutPool) separate(m *Model) (cuts []Cut, added, reused, freshRows int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++

	edges := make(map[uint64]struct{})
	seen := make(map[string]bool) // canonical cut keys, for cross-family dedupe
	var keyBuf []byte

	emit := func(c Cut, fresh bool) {
		keyBuf = cutKey(keyBuf[:0], c)
		if seen[string(keyBuf)] {
			return
		}
		seen[string(keyBuf)] = true
		cuts = append(cuts, c)
		if fresh {
			added++
		} else {
			reused++
		}
	}

	for i := range m.rows {
		r := &m.rows[i]
		// The ≤-forms of r: r itself for LE, its negation for GE, both for
		// EQ. A form whose rhs is not positive is never knapsack-shaped,
		// so it is skipped before the row is copied and sorted — on a
		// covering encoding that is every Σ x ≥ 1 row.
		for _, negate := range [2]bool{false, true} {
			rhs := r.RHS
			if negate {
				rhs = -rhs
			}
			if r.Sense == LE && negate || r.Sense == GE && !negate || rhs <= solveEps {
				continue
			}
			coefs := canonCoefs(r.Coefs, negate)
			if !knapsackShaped(coefs, rhs) {
				continue
			}
			collectConflictEdges(coefs, rhs, edges)
			h := hashRowLE(coefs, rhs)
			entry, ok := p.rows[h]
			if !ok {
				entry = &poolEntry{}
				if !unitRow(coefs, rhs) {
					entry.cuts = coverCutsForRow(coefs, rhs)
				}
				p.rows[h] = entry
				freshRows++
			}
			fresh := entry.gen == 0
			entry.gen = p.gen
			for _, c := range entry.cuts {
				emit(c, fresh)
			}
		}
	}
	for h, entry := range p.rows {
		if p.gen-entry.gen >= poolRetainGens {
			delete(p.rows, h)
		}
	}

	// Cliques: keep the retained ones still fully supported by the
	// current conflict graph, then grow new ones only from edges that did
	// not exist on the previous solve.
	kept := p.cliques[:0]
	for _, cl := range p.cliques {
		if cliqueValid(cl.members, edges) {
			kept = append(kept, cl)
			emit(Cut{Coefs: unitCoefs(cl.members), RHS: 1}, false)
		}
	}
	p.cliques = kept
	if maxDegreeAtLeast2(edges, m.NumVars()) {
		adj := buildAdjacency(edges)
		cliqueKeys := make(map[string]bool, len(p.cliques))
		for _, cl := range p.cliques {
			cliqueKeys[cl.key] = true
		}
		newEdges := make([]uint64, 0, len(edges))
		for e := range edges {
			if _, old := p.prevEdges[e]; !old {
				newEdges = append(newEdges, e)
			}
		}
		slices.Sort(newEdges)
		for _, e := range newEdges {
			if len(p.cliques) >= maxCliques {
				break
			}
			members := growClique(int(e>>32), int(e&0xffffffff), adj, edges)
			if len(members) < 3 {
				continue
			}
			keyBuf = cutKey(keyBuf[:0], Cut{Coefs: unitCoefs(members), RHS: 1})
			if cliqueKeys[string(keyBuf)] {
				continue
			}
			cliqueKeys[string(keyBuf)] = true
			p.cliques = append(p.cliques, clique{members: members, key: string(keyBuf)})
			emit(Cut{Coefs: unitCoefs(members), RHS: 1}, true)
		}
	}
	p.prevEdges = edges
	return cuts, added, reused, freshRows
}

// ---- row normalization ---------------------------------------------------

// canonCoefs copies coefs (negated when asked) and canonicalizes them.
func canonCoefs(coefs []Coef, negate bool) []Coef {
	out := make([]Coef, 0, len(coefs))
	for _, c := range coefs {
		v := c.Val
		if negate {
			v = -v
		}
		out = append(out, Coef{c.Var, v})
	}
	return canonicalizeCoefs(out)
}

// canonicalizeCoefs sorts coefs by variable, merges duplicate variables,
// and drops zero coefficients, in place. Shared by cut separation and
// the presolve row compaction.
func canonicalizeCoefs(out []Coef) []Coef {
	sortFunc(out, byVar)
	merged := out[:0]
	for _, c := range out {
		if len(merged) > 0 && merged[len(merged)-1].Var == c.Var {
			merged[len(merged)-1].Val += c.Val
			continue
		}
		merged = append(merged, c)
	}
	out = merged[:0]
	for _, c := range merged {
		if c.Val != 0 {
			out = append(out, c)
		}
	}
	return out
}

// knapsackShaped reports whether a ≤-form row supports cover/conflict
// separation: at least two all-positive coefficients and a positive
// right-hand side (non-positive rhs rows force everything to zero and are
// presolve territory).
func knapsackShaped(coefs []Coef, rhs float64) bool {
	if len(coefs) < 2 || rhs <= solveEps {
		return false
	}
	for _, c := range coefs {
		if c.Val <= 0 {
			return false
		}
	}
	return true
}

// unitRow reports whether a knapsack ≤-form is Σ x ≤ b with unit
// coefficients and an integral b. Every minimal cover of such a row has
// b+1 members and lifts to all of the row's variables with rhs b — the
// row itself, which liftCover rejects — so cover separation finds
// nothing on it and is skipped.
func unitRow(coefs []Coef, rhs float64) bool {
	if rhs != math.Trunc(rhs) {
		return false
	}
	for _, c := range coefs {
		if c.Val != 1 {
			return false
		}
	}
	return true
}

// ---- sorting -------------------------------------------------------------

// byVar orders coefficients by variable, byValDesc by descending value.
func byVar(a, b Coef) int     { return cmp.Compare(a.Var, b.Var) }
func byValDesc(a, b Coef) int { return cmp.Compare(b.Val, a.Val) }

// sortFunc sorts s unless it is already sorted. slices.SortFunc leaves a
// sorted input as it is, ties included, so the skip changes no result.
func sortFunc[E any](s []E, cmp func(a, b E) int) {
	if !slices.IsSortedFunc(s, cmp) {
		slices.SortFunc(s, cmp)
	}
}

// sortedDesc returns coefs by descending value: coefs itself when it is
// already in that order, else a sorted copy.
func sortedDesc(coefs []Coef) []Coef {
	if slices.IsSortedFunc(coefs, byValDesc) {
		return coefs
	}
	desc := slices.Clone(coefs)
	slices.SortFunc(desc, byValDesc)
	return desc
}

// ---- cover cuts ----------------------------------------------------------

// coverCutsForRow separates up to two lifted minimal-cover cuts from one
// knapsack ≤-row: one grown from the largest coefficients (smallest
// cardinality, prunes the heavy items) and one from the smallest (largest
// cardinality, lifts to the widest variable set).
func coverCutsForRow(coefs []Coef, rhs float64) []Cut {
	total := 0.0
	for _, c := range coefs {
		total += c.Val
	}
	if total <= rhs+solveEps {
		return nil // the row admits the all-ones point: no cover exists
	}
	desc := sortedDesc(coefs)

	var cuts []Cut
	var keyBuf []byte
	seen := make(map[string]bool, 2)
	for _, fromLargest := range []bool{true, false} {
		cover := greedyCover(desc, rhs, fromLargest)
		if len(cover) < 2 {
			// A singleton cover means the variable is simply forced to 0;
			// root propagation already handles that without a cut row.
			continue
		}
		cut, ok := liftCover(coefs, rhs, cover)
		if !ok {
			continue
		}
		keyBuf = cutKey(keyBuf[:0], cut)
		if seen[string(keyBuf)] {
			continue
		}
		seen[string(keyBuf)] = true
		cuts = append(cuts, cut)
	}
	return cuts
}

// greedyCover builds a minimal cover from desc (sorted by descending
// coefficient): a prefix scan from the largest or smallest end until the
// sum exceeds rhs, then shedding members smallest-first while the cover
// property survives.
func greedyCover(desc []Coef, rhs float64, fromLargest bool) []Coef {
	var cover []Coef
	sum := 0.0
	if fromLargest {
		for _, c := range desc {
			cover = append(cover, c)
			sum += c.Val
			if sum > rhs+solveEps {
				break
			}
		}
	} else {
		for i := len(desc) - 1; i >= 0; i-- {
			cover = append(cover, desc[i])
			sum += desc[i].Val
			if sum > rhs+solveEps {
				break
			}
		}
	}
	if sum <= rhs+solveEps {
		return nil
	}
	// Minimalize: drop smallest-coefficient members that are not needed.
	sortFunc(cover, func(a, b Coef) int { return cmp.Compare(a.Val, b.Val) })
	out := cover[:0]
	for i, c := range cover {
		if sum-c.Val > rhs+solveEps {
			sum -= c.Val
			continue
		}
		out = append(out, cover[i])
	}
	return out
}

// liftCover turns a minimal cover into the lifted cut
// Σ_{C ∪ L} x ≤ |C|-1 with L = {j ∉ C : a_j ≥ max_{i∈C} a_i}: any
// |C|-subset of the lifted set sums past rhs, so the cut is valid. ok is
// false when the cut degenerates to the source row itself.
func liftCover(coefs []Coef, rhs float64, cover []Coef) (Cut, bool) {
	maxC := 0.0
	inCover := make(map[int]bool, len(cover))
	for _, c := range cover {
		inCover[c.Var] = true
		if c.Val > maxC {
			maxC = c.Val
		}
	}
	vars := make([]int, 0, len(coefs))
	for _, c := range cover {
		vars = append(vars, c.Var)
	}
	allUnit := true
	for _, c := range coefs {
		if c.Val != 1 {
			allUnit = false
		}
		if !inCover[c.Var] && c.Val >= maxC-solveEps {
			vars = append(vars, c.Var)
		}
	}
	cutRHS := float64(len(cover) - 1)
	if allUnit && len(vars) == len(coefs) && cutRHS >= rhs-solveEps {
		return Cut{}, false // identical to (or weaker than) the source row
	}
	slices.Sort(vars)
	return Cut{Coefs: unitCoefs(vars), RHS: cutRHS}, true
}

// ---- conflict graph / clique cuts ----------------------------------------

// collectConflictEdges adds every variable pair of one knapsack ≤-row
// whose coefficients cannot both be 1 (a_i + a_j > rhs) to the conflict
// edge set, capped at maxEdgesPerRow.
func collectConflictEdges(coefs []Coef, rhs float64, edges map[uint64]struct{}) {
	desc := sortedDesc(coefs)
	n := 0
	for i := 0; i < len(desc) && n < maxEdgesPerRow; i++ {
		for j := i + 1; j < len(desc) && n < maxEdgesPerRow; j++ {
			if desc[i].Val+desc[j].Val <= rhs+solveEps {
				break // sorted: later j are smaller still
			}
			edges[packEdge(desc[i].Var, desc[j].Var)] = struct{}{}
			n++
		}
	}
}

func packEdge(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// maxDegreeAtLeast2 reports whether some vertex of the conflict graph over
// n variables has two or more edges. A clique of three or more needs one,
// so without it clique growing finds nothing and is skipped.
func maxDegreeAtLeast2(edges map[uint64]struct{}, n int) bool {
	if len(edges) < 2 {
		return false
	}
	touched := make([]bool, n)
	for e := range edges {
		for _, u := range [2]int{int(e >> 32), int(uint32(e))} {
			if touched[u] {
				return true
			}
			touched[u] = true
		}
	}
	return false
}

// buildAdjacency expands the edge set into sorted adjacency lists.
func buildAdjacency(edges map[uint64]struct{}) map[int][]int {
	adj := make(map[int][]int)
	for e := range edges {
		u, v := int(e>>32), int(uint32(e))
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for u := range adj {
		slices.Sort(adj[u])
	}
	return adj
}

// growClique greedily extends the edge {u, v} with common neighbors that
// are adjacent to every current member.
func growClique(u, v int, adj map[int][]int, edges map[uint64]struct{}) []int {
	members := []int{u, v}
	for _, w := range adj[u] {
		if w == v {
			continue
		}
		ok := true
		for _, m := range members {
			if w == m {
				ok = false
				break
			}
			if _, e := edges[packEdge(w, m)]; !e {
				ok = false
				break
			}
		}
		if ok {
			members = append(members, w)
		}
	}
	slices.Sort(members)
	return members
}

// cliqueValid reports whether every member pair is still a conflict edge.
func cliqueValid(members []int, edges map[uint64]struct{}) bool {
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if _, ok := edges[packEdge(members[i], members[j])]; !ok {
				return false
			}
		}
	}
	return true
}

// unitCoefs returns unit coefficients over vars.
func unitCoefs(vars []int) []Coef {
	out := make([]Coef, len(vars))
	for i, v := range vars {
		out[i] = Coef{v, 1}
	}
	return out
}

// ---- hashing -------------------------------------------------------------

// hashRowLE is an FNV-1a content hash of a canonical ≤-form row — the
// pool key that survives row reordering across re-solves.
func hashRowLE(coefs []Coef, rhs float64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	for _, c := range coefs {
		mix(uint64(c.Var))
		mix(math.Float64bits(c.Val))
	}
	mix(math.Float64bits(rhs))
	return h
}

// cutKey appends a canonical byte encoding of a cut to buf (dedupe key).
func cutKey(buf []byte, c Cut) []byte {
	for _, cf := range c.Coefs {
		buf = appendUvarint(buf, uint64(cf.Var))
		buf = appendFloatBits(buf, cf.Val)
	}
	return appendFloatBits(buf, c.RHS)
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendFloatBits(buf []byte, v float64) []byte {
	return binary.AppendUvarint(buf, math.Float64bits(v))
}
