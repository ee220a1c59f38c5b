package domain

import (
	"fmt"

	"ilpec/internal/ilp"
)

// This file is the generic EC engine: the four solve entry points every
// domain inherits. Each drives the domain's Encoding/Region hooks through
// the exact 0-1 ILP solver and hands back a verified domain solution.

// Solve runs the base solve of a problem (initial solve or replan). warm,
// when non-nil, guides branching toward an existing solution.
func Solve(d Domain, problem any, opts ilp.Options, warm any) (any, ilp.Result, error) {
	enc, err := d.Encode(problem)
	if err != nil {
		return nil, ilp.Result{}, fmt.Errorf("domain %s: encode: %w", d.Name(), err)
	}
	return solveEncoding(d, problem, enc, opts, warm)
}

// Enable runs the §5 enabling-EC solve: the base encoding augmented with
// the domain's flexibility formulation.
func Enable(d Domain, problem any, eopts EnableOptions, opts ilp.Options, warm any) (any, ilp.Result, error) {
	enc, err := d.Encode(problem)
	if err != nil {
		return nil, ilp.Result{}, fmt.Errorf("domain %s: encode: %w", d.Name(), err)
	}
	if err := d.EnableTerms(enc, problem, eopts); err != nil {
		return nil, ilp.Result{}, fmt.Errorf("domain %s: enable terms: %w", d.Name(), err)
	}
	return solveEncoding(d, problem, enc, opts, warm)
}

// Preserve runs the §7 preserving-EC solve: the base encoding under the
// agreement-maximizing objective against prev.
func Preserve(d Domain, problem, prev any, opts ilp.Options) (any, ilp.Result, error) {
	enc, err := d.Encode(problem)
	if err != nil {
		return nil, ilp.Result{}, fmt.Errorf("domain %s: encode: %w", d.Name(), err)
	}
	if err := d.PreserveTerms(enc, problem, prev); err != nil {
		return nil, ilp.Result{}, fmt.Errorf("domain %s: preserve terms: %w", d.Name(), err)
	}
	return solveEncoding(d, problem, enc, opts, prev)
}

// Fast runs the §6 fast-EC engine: extract the affected region, solve only
// that with everything else frozen, escalate on infeasibility, and fall
// back to the full instance as a last resort.
func Fast(d Domain, problem, prev any, opts FastOptions) (any, FastStats, error) {
	region, err := d.AffectedRegion(problem, prev)
	if err != nil {
		return nil, FastStats{}, fmt.Errorf("domain %s: affected region: %w", d.Name(), err)
	}
	if region == nil {
		// The previous solution survived the change. Extend it onto the
		// changed universe so the committed solution always spans the
		// problem (newly added units become explicit free decisions — the
		// same normal form a session rehydrated from the store produces);
		// fall back to the untouched solution for domains that cannot
		// extend here.
		if next, err := d.ExtendSolution(problem, prev); err == nil {
			return next, FastStats{AlreadyValid: true}, nil
		}
		return d.CloneSolution(prev), FastStats{AlreadyValid: true}, nil
	}
	maxEsc := opts.MaxEscalations
	if maxEsc <= 0 {
		maxEsc = 3
	}
	var stats FastStats
	for {
		enc, err := region.Encoding()
		if err != nil {
			return nil, stats, fmt.Errorf("domain %s: region encoding: %w", d.Name(), err)
		}
		solveOpts := opts.Solve
		if ws, ok := enc.WarmStart(prev); ok {
			solveOpts.WarmStart = ws
		} else {
			solveOpts.WarmStart = nil
		}
		res := ilp.Solve(enc.ILP(), solveOpts)
		// Recorded per rung, so a pass that fails still reports how far
		// the region grew.
		stats.SubSize = region.Size()
		stats.SubRows = enc.ILP().NumRows()
		stats.FullResolve = region.Full()
		stats.ILP = res
		switch res.Status {
		case ilp.Optimal, ilp.Feasible:
			sub, err := enc.Decode(res.Solution)
			if err != nil {
				return nil, stats, fmt.Errorf("domain %s: decode: %w", d.Name(), err)
			}
			merged, err := region.Merge(sub)
			if err != nil {
				return nil, stats, fmt.Errorf("domain %s: merge: %w", d.Name(), err)
			}
			if err := d.Verify(problem, merged); err != nil {
				return nil, stats, fmt.Errorf("domain %s: fast-EC solution invalid (internal error): %w", d.Name(), err)
			}
			return merged, stats, nil
		case ilp.Infeasible:
			if region.Full() {
				return nil, stats, fmt.Errorf("domain %s: changed problem is infeasible", d.Name())
			}
			if stats.Escalations >= maxEsc || !region.Escalate() {
				region.EscalateToFull()
			}
			stats.Escalations++
			stats.EscalatedILP = append(stats.EscalatedILP, res)
		default:
			return nil, stats, fmt.Errorf("domain %s: fast-EC sub-solve hit limits (%s)", d.Name(), res.Status)
		}
	}
}

// solveEncoding runs one exact solve on a prepared encoding and returns
// the verified domain solution.
func solveEncoding(d Domain, problem any, enc Encoding, opts ilp.Options, warm any) (any, ilp.Result, error) {
	if warm != nil {
		if ws, ok := enc.WarmStart(warm); ok {
			opts.WarmStart = ws
		}
	}
	res := ilp.Solve(enc.ILP(), opts)
	switch res.Status {
	case ilp.Optimal, ilp.Feasible:
		sol, err := enc.Decode(res.Solution)
		if err != nil {
			return nil, res, fmt.Errorf("domain %s: decode: %w", d.Name(), err)
		}
		if err := d.Verify(problem, sol); err != nil {
			return nil, res, fmt.Errorf("domain %s: decoded solution invalid (internal error): %w", d.Name(), err)
		}
		return sol, res, nil
	case ilp.Infeasible:
		return nil, res, fmt.Errorf("domain %s: problem is infeasible", d.Name())
	default:
		return nil, res, fmt.Errorf("domain %s: solve hit limits (%s)", d.Name(), res.Status)
	}
}

// AnyTightening reports whether any change in the batch is tightening
// under d.
func AnyTightening(d Domain, changes []any) bool {
	for _, c := range changes {
		if d.Tightening(c) {
			return true
		}
	}
	return false
}
