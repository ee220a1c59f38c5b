package domain

import (
	"bytes"
	"fmt"

	"ilpec/internal/ilp"
)

// Instance is a persistent solver bound to one evolving problem: the
// encoding that built the model (kept for variable mapping and decode),
// a live ilp.Instance retaining warm-start state (and, with presolve and
// cuts off, kernel and LP-basis state) across re-solves, and
// the problem the model currently encodes.
// It is the engine-level object behind the session service's incremental
// replan path: change batches Sync onto it as row deltas (when the
// domain implements DeltaEncoder) and Resolve reuses everything the
// previous solve built.
//
// An Instance is not safe for concurrent use; the session serializes
// access under its own lock.
type Instance struct {
	d    Domain
	enc  Encoding
	inst *ilp.Instance
	// problem is the problem the instance's model currently encodes (a
	// private clone); fp is its fingerprint, used by Sync to detect a
	// caller whose session state drifted away from the instance.
	problem any
	fp      string
}

// NewInstance encodes the problem and wraps it in a live solver
// instance.
func NewInstance(d Domain, problem any) (*Instance, error) {
	enc, err := d.Encode(problem)
	if err != nil {
		return nil, fmt.Errorf("domain %s: encode: %w", d.Name(), err)
	}
	clone := d.CloneProblem(problem)
	return &Instance{
		d:       d,
		enc:     enc,
		inst:    ilp.NewInstance(enc.ILP()),
		problem: clone,
		fp:      problemFP(d, clone),
	}, nil
}

// Matches reports whether the instance already encodes the given
// problem.
func (si *Instance) Matches(problem any) bool {
	return problemFP(si.d, problem) == si.fp
}

// Sync brings the instance from base to changed by replaying the change
// batch as row deltas. It reports false — leaving the instance
// untouched, caller rebuilds — when the domain has no DeltaEncoder, the
// batch is not delta-expressible, or the instance does not actually
// encode base (the caller's state drifted, e.g. a cache-served commit
// skipped a sync). When the instance already encodes changed, Sync is a
// no-op reporting true, so callers may sync unconditionally after a
// solve without double-applying the batch.
func (si *Instance) Sync(base, changed any, batch []any) bool {
	if si.Matches(changed) {
		return true
	}
	de, ok := si.d.(DeltaEncoder)
	if !ok {
		return false
	}
	if problemFP(si.d, base) != si.fp {
		return false
	}
	delta, ok := de.EncodeDelta(si.enc, si.problem, batch)
	if !ok {
		return false
	}
	delta.Apply(si.inst)
	si.problem = si.d.CloneProblem(changed)
	si.fp = problemFP(si.d, changed)
	return true
}

// Resolve runs the replan solve on the live instance and returns the
// verified domain solution — the instance-path equivalent of Solve.
// warm, when non-nil, guides branching toward an existing solution.
func (si *Instance) Resolve(opts ilp.Options, warm any) (any, ilp.Result, error) {
	res := si.inst.Resolve(warmOptions(opts, si.enc, warm))
	sol, err := verified(si.d, si.problem, si.enc, res)
	return sol, res, err
}

// problemFP renders a domain problem fingerprint as a comparable string.
func problemFP(d Domain, problem any) string {
	var buf bytes.Buffer
	d.FingerprintProblem(&buf, problem)
	return buf.String()
}
