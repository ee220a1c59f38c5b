// Package domain defines the pluggable problem-domain interface behind
// the generic engineering-change engine. The paper's Figure-1 flow —
// initial solve → change → enabling / fast / preserving EC — is domain
// agnostic: every problem class that can be encoded as a 0-1 ILP and
// re-solved incrementally plugs in through one Domain value instead of
// re-implementing the EC triad.
//
// A Domain carries opaque problem, solution, and change values (typed
// internally by the adapter; the engine never inspects them) and exposes
// the hooks the engine needs:
//
//   - Encode builds the base ILP of a problem, Decode/WarmStart translate
//     between domain solutions and ILP vectors;
//   - ApplyChanges/Tightening implement the specification-change model;
//   - AffectedRegion extracts the fast-EC sub-instance (§6) with its
//     escalation ladder and merge rule;
//   - PreserveTerms rewrites an encoding's objective into the §7
//     agreement-maximizing form;
//   - EnableTerms augments an encoding with §5 flexibility rewards;
//   - ParseProblem/ParseChange/Render and their inverses RenderProblem/
//     RenderChange/ParseSolution are the JSON wire codecs the session
//     service uses to carry any domain over HTTP and to persist sessions
//     durably (internal/store journals changes and snapshots problems and
//     solutions in exactly these wire forms).
//
// The engine functions (Solve, Enable, Fast, Preserve), the generic
// Figure-1 Flow, and the conformance suite live in this package too, so a
// new domain only writes an adapter and inherits the whole serving stack.
// Built-in adapters: CNF/set-cover (internal/core), graph coloring
// (internal/coloring), scheduling (internal/sched), and min-cut netlist
// partitioning (internal/partition).
package domain

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"ilpec/internal/ilp"
)

// Encoding binds an ILP model to the domain logic that produced it.
type Encoding interface {
	// ILP returns the underlying model. The engine may mutate it through
	// PreserveTerms/EnableTerms before solving.
	ILP() *ilp.Model
	// Decode converts an ILP solution into a domain solution value.
	Decode(sol ilp.Solution) (any, error)
	// WarmStart projects a domain solution onto the model as a branching
	// guide. ok is false when the solution cannot be projected (the engine
	// then solves cold).
	WarmStart(sol any) (ws ilp.Solution, ok bool)
}

// RHSEdit is one right-hand-side edit of a Delta, addressing a named row.
type RHSEdit struct {
	Name string
	RHS  float64
}

// ObjEdit is one objective-coefficient edit of a Delta.
type ObjEdit struct {
	Var  int
	Coef float64
}

// Delta is a set of row/objective edits that turn the ILP encoding of a
// problem into the encoding of its changed version — the incremental
// alternative to a full re-encode. The edits address rows by the names
// the adapter's Encode gave them, so adapters that emit deltas must name
// every row a change can touch stably (content-derived names, not
// positional ones).
type Delta struct {
	AddRows    []ilp.Row
	RemoveRows []string
	SetRHS     []RHSEdit
	SetObj     []ObjEdit
}

// DropRow records removal of the named row. When the same batch already
// added a row of that name, the pending add is cancelled instead —
// Apply replays removals before adds, so an add-then-remove pair must
// not survive into the edit lists.
func (d *Delta) DropRow(name string) {
	for i := range d.AddRows {
		if d.AddRows[i].Name == name {
			d.AddRows = append(d.AddRows[:i], d.AddRows[i+1:]...)
			return
		}
	}
	d.RemoveRows = append(d.RemoveRows, name)
}

// Empty reports whether the delta carries no edits.
func (d *Delta) Empty() bool {
	return d == nil || (len(d.AddRows) == 0 && len(d.RemoveRows) == 0 &&
		len(d.SetRHS) == 0 && len(d.SetObj) == 0)
}

// Apply replays the delta onto a live solver instance.
func (d *Delta) Apply(inst *ilp.Instance) {
	if d == nil {
		return
	}
	if len(d.RemoveRows) > 0 {
		inst.RemoveRows(d.RemoveRows)
	}
	if len(d.AddRows) > 0 {
		inst.AddRows(d.AddRows)
	}
	for _, e := range d.SetRHS {
		inst.SetRHS(e.Name, e.RHS)
	}
	for _, e := range d.SetObj {
		inst.SetObj(e.Var, e.Coef)
	}
}

// DeltaEncoder is the optional Domain extension behind persistent solver
// instances: adapters that implement it can translate a change batch into
// row/objective edits against the previous encoding instead of
// re-encoding the whole problem. EncodeDelta returns ok=false when the
// batch contains a change the adapter cannot express as a delta (e.g.
// one that grows the variable set); the caller then falls back to a full
// re-encode and rebuilds its instance.
//
// prev supplies the variable mapping; prevProblem is the problem prev's
// model CURRENTLY encodes — after earlier deltas it differs from the
// problem prev was originally built from, so the caller (see Instance)
// tracks it across syncs and passes it here. The returned delta, applied
// to prev's model, must produce a model equivalent to freshly encoding
// the changed problem (same ilp.ModelFingerprint).
type DeltaEncoder interface {
	EncodeDelta(prev Encoding, prevProblem any, changes []any) (*Delta, bool)
}

// Region is a fast-EC sub-instance (§6): the subset of decisions that may
// need new values after a tightening change, with the escalation ladder
// used when the frozen context makes the subset infeasible.
type Region interface {
	// Size is the number of decision units being re-decided.
	Size() int
	// Full reports whether the region covers the whole instance.
	Full() bool
	// Encoding builds the sub-instance encoding for the current region
	// (rebuilt after every escalation).
	Encoding() (Encoding, error)
	// Merge folds the decoded sub-solution into the full solution.
	Merge(sub any) (any, error)
	// Escalate grows the region one step; it reports whether it grew.
	Escalate() bool
	// EscalateToFull jumps to the full instance (the last-resort fallback).
	EscalateToFull()
}

// FlexReport is the domain-generic §5 flexibility audit.
type FlexReport struct {
	// Total is the number of audited units (clauses, vertices, ops, ...).
	Total int `json:"total"`
	// Flexible counts units that can absorb a local change.
	Flexible int `json:"flexible"`
	// Detail carries domain-specific extras (e.g. CNF k-satisfied counts).
	Detail map[string]int `json:"detail,omitempty"`
}

// Fraction is Flexible/Total (1 for empty reports).
func (r FlexReport) Fraction() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Flexible) / float64(r.Total)
}

// EnableOptions configures enabling EC generically. Domains map the
// fields onto their own formulation and may honor further knobs through
// adapter construction options.
type EnableOptions struct {
	// Hard requires flexibility everywhere (constraint mode); otherwise
	// flexibility is a weighted objective reward.
	Hard bool
	// K is the flexibility level (domain-interpreted; CNF: clause
	// satisfaction level, default 2).
	K int
	// Weight is the objective reward per flexible unit (default 1).
	Weight float64
}

// FastOptions configures the generic fast-EC engine.
type FastOptions struct {
	// Solve configures the exact sub-instance solver (WarmStart is
	// overwritten by the engine).
	Solve ilp.Options
	// MaxEscalations bounds region growth before the full-instance
	// fallback (default 3).
	MaxEscalations int
}

// FastStats reports what the fast-EC engine did.
type FastStats struct {
	// AlreadyValid is true when the previous solution survived the change
	// and no solver ran.
	AlreadyValid bool
	// SubSize is the number of re-decided units of the final region (on
	// an error, of the last region solved; 0 when no solver ran).
	SubSize int
	// SubRows is the row count of the final sub-model (0 when no solver
	// ran).
	SubRows int
	// Escalations counts region growths used.
	Escalations int
	// FullResolve is true when the full-instance fallback ran.
	FullResolve bool
	// ILP carries the final solve statistics.
	ILP ilp.Result
	// EscalatedILP holds the solve statistics of each earlier rung, the
	// ones that proved infeasible and escalated, in order (nil when none
	// did). Together with ILP they cover every kernel run of the pass.
	EscalatedILP []ilp.Result
}

// Domain is one pluggable problem class. Problem, solution, and change
// values are opaque to the engine; every method panics or errors when
// handed a value of the wrong dynamic type. The built-in adapters are
// written against Typed and get one treatment of such values from Adapt;
// a custom adapter documents its own.
//
// All methods must be safe for concurrent use on distinct values; the
// engine never mutates a problem or solution it passed in.
type Domain interface {
	// Name is the registry key ("cnf", "coloring", "sched", "partition").
	Name() string

	// Validate checks a problem for structural consistency (including
	// trivially unsatisfiable shapes a solver run would waste time on).
	Validate(problem any) error
	// CloneProblem deep-copies a problem.
	CloneProblem(problem any) any
	// ProblemSize reports the decision-unit and constraint counts
	// (variables/clauses, vertices/edges, ops/deps, ...).
	ProblemSize(problem any) (units, constraints int)
	// ParseProblem decodes the JSON wire form of a problem.
	ParseProblem(spec json.RawMessage) (any, error)
	// RenderProblem returns the JSON-marshalable wire form of a problem —
	// the inverse of ParseProblem. Round-tripping must reconstruct an
	// equivalent problem (same FingerprintProblem digest); the session
	// store snapshots problems in this form.
	RenderProblem(problem any) any

	// ParseChange decodes the JSON wire form of one change.
	ParseChange(spec json.RawMessage) (any, error)
	// RenderChange returns the JSON-marshalable wire form of one change —
	// the inverse of ParseChange. The session store journals queued
	// changes in this form, so replaying a rendered-then-parsed change
	// must produce the same problem as applying the original.
	RenderChange(change any) any
	// ApplyChanges returns the changed problem; the input is not modified.
	ApplyChanges(problem any, changes []any) (any, error)
	// Tightening reports whether a change can invalidate existing
	// solutions (§6; relaxing changes skip the solver entirely).
	Tightening(change any) bool

	// CloneSolution deep-copies a solution.
	CloneSolution(sol any) any
	// ExtendSolution adapts a previous solution to a relax-only changed
	// problem (growing the universe, filling trivially free decisions).
	ExtendSolution(problem, prev any) (any, error)
	// Verify checks that a solution is valid for a problem.
	Verify(problem, sol any) error
	// Render returns the JSON-marshalable wire form of a solution.
	Render(problem, sol any) any
	// ParseSolution decodes the wire form produced by Render back into a
	// domain solution for problem — the inverse of Render. The session
	// store rehydrates persisted solutions through it.
	ParseSolution(problem any, spec json.RawMessage) (any, error)
	// Agreement is the fraction of prev's decisions kept by next (§7).
	Agreement(prev, next any) float64
	// DontCares counts uncommitted decisions (CNF don't-cares; domains
	// without the notion return 0).
	DontCares(problem, sol any) int
	// Flex audits the §5 flexibility of a solution at level k.
	Flex(problem, sol any, k int) (FlexReport, error)

	// Encode builds the base ILP encoding of a problem.
	Encode(problem any) (Encoding, error)
	// PreserveTerms rewrites enc's objective to maximize agreement with
	// prev (§7).
	PreserveTerms(enc Encoding, problem, prev any) error
	// EnableTerms augments enc with the §5 flexibility formulation.
	EnableTerms(enc Encoding, problem any, opts EnableOptions) error
	// AffectedRegion extracts the fast-EC region of a changed problem
	// against the previous solution. A nil Region means prev is still
	// valid as-is.
	AffectedRegion(problem, prev any) (Region, error)

	// FingerprintProblem writes a canonical byte encoding of the problem
	// (used for solve-cache keys; must capture everything that determines
	// the solver's answer).
	FingerprintProblem(w io.Writer, problem any)
	// FingerprintSolution writes a canonical byte encoding of a solution.
	FingerprintSolution(w io.Writer, sol any)
}

// MaxColumns bounds the ILP encoding of a problem. Every built-in
// ParseProblem rejects a problem whose declared counts would encode to
// more columns, before it allocates anything sized by them, so a small
// request cannot make parsing or the first solve allocate without bound;
// every built-in ApplyChanges rejects a batch that would grow a problem
// past it, so every problem a session holds parses again from its
// rendered form. It is about 145 times the largest in-repo instance (the
// g250.29 coloring, 7,250 columns).
const MaxColumns = 1 << 20

// CheckColumns returns an error when units decision units of per columns
// each would encode to more than MaxColumns columns. units and per must
// be non-negative.
func CheckColumns(name string, units, per int) error {
	if units > MaxColumns || per > MaxColumns || int64(units)*int64(per) > MaxColumns {
		return fmt.Errorf("%s: %d units of %d columns exceed the %d-column encoding limit", name, units, per, MaxColumns)
	}
	return nil
}

// ---- strategies ----------------------------------------------------------

// Strategy selects how a tightening change batch is re-solved.
type Strategy int

const (
	// FastEC re-solves only the affected region (§6).
	FastEC Strategy = iota
	// PreservingEC re-solves under the agreement-maximizing objective (§7).
	PreservingEC
	// Replan solves the changed instance from scratch (non-EC baseline).
	Replan
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case FastEC:
		return "fast"
	case PreservingEC:
		return "preserving"
	default:
		return "replan"
	}
}

// ParseStrategy maps a strategy name (case-insensitive) to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "fast":
		return FastEC, nil
	case "preserving", "preserve":
		return PreservingEC, nil
	case "replan":
		return Replan, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want fast, preserving, or replan)", s)
	}
}

// ---- registry ------------------------------------------------------------

// Registry maps domain names to adapters.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Domain
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]Domain)}
}

// Register installs d under d.Name(), replacing any previous adapter of
// the same name. It panics on an empty name (adapter bug).
func (r *Registry) Register(d Domain) {
	if d == nil || d.Name() == "" {
		panic("domain: Register with nil or unnamed domain")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[d.Name()] = d
}

// Get looks an adapter up by name.
func (r *Registry) Get(name string) (Domain, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.m[name]
	return d, ok
}

// Names returns the sorted registered names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultRegistry holds the process-wide adapters. Built-in domains
// self-register from their package init functions.
var defaultRegistry = NewRegistry()

// Register installs d in the default registry.
func Register(d Domain) { defaultRegistry.Register(d) }

// Get looks d up in the default registry.
func Get(name string) (Domain, bool) { return defaultRegistry.Get(name) }

// Names lists the default registry, sorted.
func Names() []string { return defaultRegistry.Names() }
