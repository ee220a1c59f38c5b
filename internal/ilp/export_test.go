package ilp

// Hooks for the external test package (pin_test.go, which builds its
// models through the encoders that import this package).

// PresolveOutcome runs the presolve pass on m and returns what the
// kernel sees: the per-variable fixings (-1 = kept), the dropped-row
// count, the reduced model (nil when infeasible) and the infeasibility
// verdict.
func PresolveOutcome(m *Model) (fixedVals []int8, rowsDropped int, reduced *Model, infeasible bool) {
	p := presolveModel(m)
	return p.fixedVals, p.nRowsDropped, p.reduced, p.infeasible
}

// SeparateKeys runs one separation of m through pool and returns the
// canonical key of every emitted cut, in emit order, with the counters
// Solve reports.
func SeparateKeys(pool *CutPool, m *Model) (keys []string, added, reused, freshRows int) {
	cuts, added, reused, freshRows := pool.separate(m)
	for _, c := range cuts {
		keys = append(keys, string(cutKey(nil, c)))
	}
	return keys, added, reused, freshRows
}
