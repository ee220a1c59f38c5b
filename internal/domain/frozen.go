package domain

import (
	"fmt"

	"ilpec/internal/ilp"
)

// FrozenRegion is the fast-EC region (§6) of a domain whose units each
// take one value through one-hot columns x[u][v] (coloring, partition,
// sched): the member units are re-decided, and every other unit is held
// at its previous value by a row freeze_<u>: x[u][prev[u]] ≥ 1. The
// region model encodes the whole problem, so its decoded solution is
// already the full one.
//
// An adapter supplies the seed members, the unit range, the previous
// values, a builder for the full encoding with its column lookup, and
// one escalation step.
type FrozenRegion struct {
	// Members is the set of re-decided units; Grow adds to it.
	Members map[int]bool
	// First and N span the units First..First+N-1.
	First, N int
	// Prev holds each unit's previous value, indexed by unit.
	Prev []int
	// Encode builds the full encoding and its column lookup: col(u, v)
	// is the column of x[u][v], with ok false when v is not a value of u.
	Encode func() (enc Encoding, col func(u, v int) (int, bool))
	// Grow is one escalation step; it reports whether Members grew.
	Grow func(members map[int]bool) bool
	// FrozenErr formats the error for a frozen unit (%d) whose previous
	// value has no column.
	FrozenErr string

	full bool
}

// Size is the number of re-decided units.
func (r *FrozenRegion) Size() int {
	if r.full {
		return r.N
	}
	return len(r.Members)
}

// Full reports whether every unit is re-decided.
func (r *FrozenRegion) Full() bool { return r.full || len(r.Members) >= r.N }

// Encoding builds the full encoding and appends, in unit order, the
// freeze row of every unit outside the region.
func (r *FrozenRegion) Encoding() (Encoding, error) {
	enc, col := r.Encode()
	if r.Full() {
		return enc, nil
	}
	m := enc.ILP()
	for u := r.First; u < r.First+r.N; u++ {
		if r.Members[u] {
			continue
		}
		j, ok := col(u, r.Prev[u])
		if !ok {
			return nil, fmt.Errorf(r.FrozenErr, u)
		}
		m.AddRow(fmt.Sprintf("freeze_%d", u), []ilp.Coef{{Var: j, Val: 1}}, ilp.GE, 1)
	}
	return enc, nil
}

// Merge returns sub unchanged: the region model decodes the full
// solution.
func (r *FrozenRegion) Merge(sub any) (any, error) { return sub, nil }

// Escalate grows the region by one Grow step.
func (r *FrozenRegion) Escalate() bool {
	if r.Full() {
		return false
	}
	return r.Grow(r.Members)
}

// EscalateToFull re-decides every unit.
func (r *FrozenRegion) EscalateToFull() { r.full = true }

// NeighborRing returns the escalation step that adds every neighbor of
// the current members; units it adds spread only on the next step.
func NeighborRing(neighbors func(u int) []int) func(map[int]bool) bool {
	return func(members map[int]bool) bool {
		ring := make([]int, 0, len(members))
		for u := range members {
			ring = append(ring, u)
		}
		grew := false
		for _, u := range ring {
			for _, w := range neighbors(u) {
				if !members[w] {
					members[w] = true
					grew = true
				}
			}
		}
		return grew
	}
}
