// Package ilpec is the public API of the ILP-based engineering-change
// library — a from-scratch reproduction of "ILP-Based Engineering Change"
// (Koushanfar, Wong, Feng, Potkonjak; DAC 2002).
//
// The package re-exports the stable surface of the internal packages:
//
//   - CNF formulas, assignments, and DIMACS I/O (internal/cnf);
//   - the specification-change model and the three EC components —
//     enabling, fast, and preserving EC (internal/core);
//   - the generic Domain interface and Figure-1 flow orchestrator that
//     run the EC triad for ANY registered problem class
//     (internal/domain), with four built-in adapters: CNF/set-cover,
//     graph coloring (internal/coloring), scheduling (internal/sched),
//     and min-cut netlist partitioning (internal/partition);
//   - 0-1 ILP modeling and the exact and heuristic solvers
//     (internal/ilp, internal/heurilp);
//   - the SAT↔set-cover encoding (internal/encode);
//   - the EC session service and its HTTP front end (internal/service);
//   - the durable session store — write-ahead change journal, snapshots,
//     crash recovery — behind it (internal/store);
//   - the fault-injection harness and the failure-hardening controls —
//     store retry policy, session quarantine, admission bounds — that the
//     chaos suite exercises (internal/fault);
//   - the synthetic DIMACS benchmark families (internal/gen).
//
// See examples/quickstart for a guided tour and examples/domains for
// plugging a custom domain into the engine.
package ilpec

import (
	"io"
	"net/http"

	"ilpec/internal/cluster"
	"ilpec/internal/cnf"
	"ilpec/internal/coloring"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/encode"
	"ilpec/internal/fault"
	"ilpec/internal/gen"
	"ilpec/internal/heurilp"
	"ilpec/internal/ilp"
	"ilpec/internal/partition"
	"ilpec/internal/router"
	"ilpec/internal/sched"
	"ilpec/internal/service"
	"ilpec/internal/store"
)

// ---- CNF substrate -------------------------------------------------------

// Lit is a DIMACS-style literal: +v or -v for variable v ≥ 1.
type Lit = cnf.Lit

// Clause is a disjunction of literals.
type Clause = cnf.Clause

// Formula is a CNF formula.
type Formula = cnf.Formula

// Assignment is a tri-state (true/false/don't-care) assignment.
type Assignment = cnf.Assignment

// Value is the tri-state value of a variable.
type Value = cnf.Value

// Truth values of Value.
const (
	True       = cnf.True
	False      = cnf.False
	Unassigned = cnf.Unassigned
)

// NewFormula builds a formula from literal slices (see cnf.FromClauses).
func NewFormula(clauses ...[]int) *Formula { return cnf.FromClauses(clauses...) }

// ParseDIMACS reads a DIMACS CNF formula.
func ParseDIMACS(r io.Reader) (*Formula, error) { return cnf.ParseDIMACS(r) }

// ParseDIMACSFile reads a DIMACS CNF file.
func ParseDIMACSFile(path string) (*Formula, error) { return cnf.ParseDIMACSFile(path) }

// WriteDIMACS writes a formula in DIMACS CNF format.
func WriteDIMACS(w io.Writer, f *Formula, comments ...string) error {
	return cnf.WriteDIMACS(w, f, comments...)
}

// ---- changes (the EC specification model) --------------------------------

// Change is one specification change (add/remove clause, add/eliminate
// variable).
type Change = core.Change

// ChangeKind enumerates change kinds.
type ChangeKind = core.ChangeKind

// Change kinds.
const (
	AddClause      = core.AddClause
	RemoveClause   = core.RemoveClause
	AddVariable    = core.AddVariable
	RemoveVariable = core.RemoveVariable
)

// NewClause returns an add-clause change.
func NewClause(lits ...int) Change { return core.NewClause(lits...) }

// DropClause returns a remove-clause change.
func DropClause(i int) Change { return core.DropClause(i) }

// GrowVariable returns an add-variable change.
func GrowVariable() Change { return core.GrowVariable() }

// EliminateVariable returns a remove-variable change.
func EliminateVariable(v int) Change { return core.EliminateVariable(v) }

// ApplyChanges produces the changed formula.
func ApplyChanges(f *Formula, changes []Change) (*Formula, error) {
	return core.Apply(f, changes)
}

// ---- solving -------------------------------------------------------------

// SolveOptions configures the exact 0-1 ILP solver.
type SolveOptions = ilp.Options

// firstOpt resolves the variadic-options idiom: the first element when
// present, the zero value otherwise.
func firstOpt(opts ...SolveOptions) SolveOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return SolveOptions{}
}

// Solve finds a satisfying assignment for f through the §3 set-cover ILP,
// maximizing don't-cares. It returns an error when f is unsatisfiable.
func Solve(f *Formula, opts ...SolveOptions) (Assignment, error) {
	a, _, err := core.PlainResolve(f, firstOpt(opts...))
	return a, err
}

// ---- enabling EC (§5) ------------------------------------------------------

// EnableOptions configures enabling EC.
type EnableOptions = core.EnableOptions

// EnableMode selects constraints vs objective flavor.
type EnableMode = core.EnableMode

// Enabling modes.
const (
	EnableConstraints = core.EnableConstraints
	EnableObjective   = core.EnableObjective
)

// EnableResult is the outcome of an enabling-EC solve (see
// FlowOptions.Enable and EnableDomain).
type EnableResult = core.EnableResult

// FlexReport audits a solution's flexibility.
type FlexReport = core.FlexReport

// VerifyFlexibility audits an assignment against the enabling goal.
func VerifyFlexibility(f *Formula, a Assignment, k int) FlexReport {
	return core.VerifyFlexibility(f, a, k)
}

// RepairResult is the outcome of SimulateElimination.
type RepairResult = core.RepairResult

// SimulateElimination eliminates variable v and locally repairs a.
func SimulateElimination(f *Formula, a Assignment, v int) RepairResult {
	return core.SimulateElimination(f, a, v)
}

// EliminationSurvival sweeps every variable elimination under a.
func EliminationSurvival(f *Formula, a Assignment) (survived, total int) {
	return core.EliminationSurvival(f, a)
}

// ---- fast EC (§6) ----------------------------------------------------------

// FastOptions configures fast EC.
type FastOptions = core.FastOptions

// SimplifyResult is the Figure-2 closure output.
type SimplifyResult = core.SimplifyResult

// Simplify extracts the minimal affected sub-instance (Figure 2).
func Simplify(fPrime *Formula, p Assignment) SimplifyResult {
	return core.Simplify(fPrime, p)
}

// ---- preserving EC (§7) -----------------------------------------------------

// PreserveOptions configures preserving EC.
type PreserveOptions = core.PreserveOptions

// PreserveMode selects the preservation flavor.
type PreserveMode = core.PreserveMode

// Preservation modes.
const (
	PreserveMaximize = core.PreserveMaximize
	PreserveHard     = core.PreserveHard
	PreserveWeighted = core.PreserveWeighted
)

// ---- the Figure-1 flow -----------------------------------------------------

// Flow drives the generic EC flow of Figure 1.
type Flow = core.Flow

// FlowOptions configures a Flow.
type FlowOptions = core.FlowOptions

// Strategy selects the re-solve strategy of a flow step.
type Strategy = core.Strategy

// Flow strategies.
const (
	FastEC       = core.FastEC
	PreservingEC = core.PreservingEC
	Replan       = core.Replan
)

// SolverKind selects exact vs heuristic initial solving.
type SolverKind = core.SolverKind

// Solver kinds.
const (
	ExactILP     = core.ExactILP
	HeuristicILP = core.HeuristicILP
)

// Step records one flow action.
type Step = core.Step

// NewFlow creates a Figure-1 flow for the original specification f.
func NewFlow(f *Formula, opts FlowOptions) *Flow { return core.NewFlow(f, opts) }

// ---- ILP layer -------------------------------------------------------------

// Model is a 0-1 integer linear program.
type Model = ilp.Model

// ModelCoef is a sparse row coefficient of a Model.
type ModelCoef = ilp.Coef

// RowSense is a row comparison sense.
type RowSense = ilp.Sense

// Row senses.
const (
	RowLE = ilp.LE
	RowGE = ilp.GE
	RowEQ = ilp.EQ
)

// ILPResult is the outcome of an exact solve.
type ILPResult = ilp.Result

// NewModel creates an empty 0-1 ILP.
func NewModel(maximize bool) *Model { return ilp.NewModel(maximize) }

// SolveILP runs exact branch and bound.
func SolveILP(m *Model, opts SolveOptions) ILPResult { return ilp.Solve(m, opts) }

// HeuristicOptions configures the heuristic ILP solver (ref [6] stand-in).
type HeuristicOptions = heurilp.Options

// HeuristicResult is the outcome of the heuristic solver.
type HeuristicResult = heurilp.Result

// SolveILPHeuristic runs the iterative-improvement local search.
func SolveILPHeuristic(m *Model, opts HeuristicOptions) HeuristicResult {
	return heurilp.Solve(m, opts)
}

// Encoding is the §3 SAT↔set-cover ILP encoding.
type Encoding = encode.Encoding

// EncodeSAT builds the set-cover ILP of a formula.
func EncodeSAT(f *Formula) *Encoding { return encode.New(f) }

// ---- graph coloring application ---------------------------------------------

// Graph is a simple undirected graph (coloring application).
type Graph = coloring.Graph

// GraphColoring is a color-per-vertex assignment.
type GraphColoring = coloring.Coloring

// NewGraph creates an empty graph with n vertices.
func NewGraph(n int) *Graph { return coloring.NewGraph(n) }

// ColorExact colors g with at most k colors via the exact ILP solver.
func ColorExact(g *Graph, k int, warm GraphColoring, opts SolveOptions) (GraphColoring, ILPResult, error) {
	return coloring.SolveExact(g, k, warm, opts)
}

// ColorGreedy colors g with the DSATUR heuristic.
func ColorGreedy(g *Graph) GraphColoring { return coloring.Greedy(g) }

// ColoringProblem pairs a graph with its palette size — the problem value
// of the "coloring" domain.
type ColoringProblem = coloring.Problem

// ColoringChange is one coloring specification change (domain wire form).
type ColoringChange = coloring.Change

// ---- scheduling application ---------------------------------------------------

// SchedProblem is a resource-constrained scheduling instance (behavioral-
// synthesis EC domain; see internal/sched).
type SchedProblem = sched.Problem

// SchedSchedule assigns operations to control steps.
type SchedSchedule = sched.Schedule

// NewSchedProblem creates a scheduling problem with the given per-type
// capacities and horizon.
func NewSchedProblem(capacity []int, steps int) *SchedProblem {
	return sched.NewProblem(capacity, steps)
}

// SolveSchedule schedules exactly (warm optional).
func SolveSchedule(p *SchedProblem, warm SchedSchedule, opts SolveOptions) (SchedSchedule, ILPResult, error) {
	return sched.Solve(p, warm, opts)
}

// ListSchedule is the greedy ASAP baseline scheduler.
func ListSchedule(p *SchedProblem) (SchedSchedule, error) { return sched.ListSchedule(p) }

// SchedChange is one scheduling specification change (domain wire form).
type SchedChange = sched.Change

// ---- generic problem domains ---------------------------------------------

// Domain is one pluggable problem class behind the generic EC engine:
// the paper's Figure-1 flow (initial solve → change → enabling / fast /
// preserving EC) runs through this interface for every registered domain.
// Built-in adapters: CNFDomain, ColoringDomain, SchedDomain,
// PartitionDomain; register custom adapters with RegisterDomain. See the
// README "Domains" section and examples/domains for the contract.
type Domain = domain.Domain

// DomainEncoding binds an ILP model to domain decode/encode logic.
type DomainEncoding = domain.Encoding

// DomainRegion is a fast-EC sub-instance with its escalation ladder.
type DomainRegion = domain.Region

// DomainFlexReport is the domain-generic §5 flexibility audit.
type DomainFlexReport = domain.FlexReport

// DomainEnableOptions configures enabling EC generically.
type DomainEnableOptions = domain.EnableOptions

// DomainFastOptions configures the generic fast-EC engine.
type DomainFastOptions = domain.FastOptions

// DomainFastStats reports what the generic fast-EC engine did.
type DomainFastStats = domain.FastStats

// DomainConformance is the fixture a custom Domain supplies for the
// shared conformance suite (domain.RunConformance).
type DomainConformance = domain.Conformance

// ILPSolution is a 0-1 solution vector of an ILP Model (used by
// DomainEncoding implementations).
type ILPSolution = ilp.Solution

// RegisterDomain installs a domain adapter in the process-wide registry;
// services and cmd/ecserve serve it by name immediately.
func RegisterDomain(d Domain) { domain.Register(d) }

// DomainByName looks an adapter up in the process-wide registry.
func DomainByName(name string) (Domain, bool) { return domain.Get(name) }

// Domains lists the registered domain names, sorted.
func Domains() []string { return domain.Names() }

// CNFDomain returns the SAT/set-cover adapter ("cnf") with default EC
// policies.
func CNFDomain() Domain { return core.CNF() }

// CNFDomainOptions tunes the CNF adapter (fast-EC minimality, preserve
// modes, enabling defaults, relax-time flexibility recovery).
type CNFDomainOptions = core.CNFOptions

// CNFDomainWith returns a CNF adapter with explicit EC policies.
func CNFDomainWith(opts CNFDomainOptions) Domain { return core.CNFWith(opts) }

// ColoringDomain returns the graph-coloring adapter ("coloring").
func ColoringDomain() Domain { return coloring.Domain() }

// SchedDomain returns the scheduling adapter ("sched").
func SchedDomain() Domain { return sched.Domain() }

// PartitionDomain returns the min-cut netlist-partitioning adapter
// ("partition").
func PartitionDomain() Domain { return partition.Domain() }

// SolveDomain runs the base solve of a problem (initial solve or replan);
// the result is a domain solution value.
func SolveDomain(d Domain, problem any, opts ...SolveOptions) (any, error) {
	sol, _, err := domain.Solve(d, problem, firstOpt(opts...), nil)
	return sol, err
}

// EnableDomain runs the §5 enabling-EC solve for any domain.
func EnableDomain(d Domain, problem any, eopts DomainEnableOptions, opts ...SolveOptions) (any, error) {
	sol, _, err := domain.Enable(d, problem, eopts, firstOpt(opts...), nil)
	return sol, err
}

// FastResolveDomain runs the §6 fast-EC engine for any domain: re-solve
// only the affected region of the changed problem, escalating on
// infeasibility.
func FastResolveDomain(d Domain, problem, prev any, opts ...SolveOptions) (any, DomainFastStats, error) {
	return domain.Fast(d, problem, prev, DomainFastOptions{Solve: firstOpt(opts...)})
}

// PreserveResolveDomain runs the §7 preserving-EC solve for any domain:
// re-solve the changed problem maximizing agreement with prev.
func PreserveResolveDomain(d Domain, problem, prev any, opts ...SolveOptions) (any, error) {
	sol, _, err := domain.Preserve(d, problem, prev, firstOpt(opts...))
	return sol, err
}

// DomainFlow is the generic Figure-1 flow over any Domain.
type DomainFlow = domain.Flow

// DomainFlowOptions configures a DomainFlow.
type DomainFlowOptions = domain.FlowOptions

// NewDomainFlow creates a Figure-1 flow for any registered domain.
func NewDomainFlow(d Domain, problem any, opts DomainFlowOptions) *DomainFlow {
	return domain.NewFlow(d, problem, opts)
}

// ---- netlist partitioning application --------------------------------------

// PartitionProblem is a min-cut netlist-partitioning instance (the
// "partition" domain).
type PartitionProblem = partition.Problem

// PartitionAssignment maps vertices to blocks.
type PartitionAssignment = partition.Assignment

// PartitionEdge is a weighted netlist edge.
type PartitionEdge = partition.Edge

// PartitionChange is one netlist specification change (domain wire form).
type PartitionChange = partition.Change

// NewPartitionProblem creates a partitioning problem with n vertices and
// b blocks.
func NewPartitionProblem(n, b int) *PartitionProblem { return partition.NewProblem(n, b) }

// GreedyPartition builds a balanced starting partition.
func GreedyPartition(p *PartitionProblem) PartitionAssignment { return partition.Greedy(p) }

// ---- EC session service --------------------------------------------------------

// Service manages long-lived EC sessions with batched change application,
// a shared solve cache, and a worker-pool executor (internal/service).
type Service = service.Service

// ServiceOptions configures a Service.
type ServiceOptions = service.Options

// Session is one long-lived engineering-change session.
type Session = service.Session

// SessionConfig carries per-session overrides at creation time.
type SessionConfig = service.SessionConfig

// SessionInfo is a point-in-time summary of a session.
type SessionInfo = service.SessionInfo

// SessionSolveResult reports one Session.Solve outcome.
type SessionSolveResult = service.SolveResult

// ServiceMetrics is a snapshot of the service counters.
type ServiceMetrics = service.MetricsSnapshot

// NewService creates an EC session service; Close it when done.
func NewService(opts ServiceOptions) *Service { return service.New(opts) }

// NewServiceHandler exposes a Service over HTTP/JSON (the cmd/ecserve
// API).
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// ---- durable session store -----------------------------------------------

// SessionStore persists EC sessions as a write-ahead change journal plus
// periodic snapshots, in the domains' JSON wire forms. Plug one into
// ServiceOptions.Store and sessions survive restarts and crashes, are
// LRU-evictable under ServiceOptions.MaxLiveSessions, and rehydrate
// transparently on touch (see internal/store and the README "Persistence"
// section).
type SessionStore = store.Store

// SessionSnapshot is the persisted full state of one session at a journal
// sequence point.
type SessionSnapshot = store.Snapshot

// SessionRecord is one write-ahead journal entry of a session.
type SessionRecord = store.Record

// SessionRecord kinds: a queued change batch, a committed solve, and a
// discarded batch.
const (
	SessionRecordChanges = store.KindChanges
	SessionRecordSolve   = store.KindSolve
	SessionRecordDiscard = store.KindDiscard
)

// ErrSessionNotFound reports a session id with no persisted state.
var ErrSessionNotFound = store.ErrNotFound

// NewMemorySessionStore returns the in-memory store backend: full
// snapshot/journal semantics, no durability (tests, ephemeral services).
func NewMemorySessionStore() SessionStore { return store.NewMemory() }

// NewFileSessionStore opens (creating if needed) the durable file backend
// rooted at dir: one directory per session holding snapshot.json plus a
// CRC-framed, fsync'd journal.jsonl with torn-tail repair on recovery —
// what cmd/ecserve -data-dir uses.
func NewFileSessionStore(dir string) (SessionStore, error) { return store.NewFile(dir) }

// ---- clustering ----------------------------------------------------------

// NewSharedFileSessionStore opens the file backend in shared mode: safe
// for several processes (an ecserve fleet plus routers) over one
// directory, re-reading durable state instead of trusting per-process
// caches. This is what cmd/ecserve -cluster and cmd/ecrouter use; see
// the README "Clustering" section.
func NewSharedFileSessionStore(dir string) (SessionStore, error) { return store.NewSharedFile(dir) }

// ClusterNode is one member of an ecserve fleet: it heartbeats
// membership into the shared store and scopes session-ownership leases
// and the fleet-wide solve cache. Plug one into ServiceOptions.Cluster
// (with the same shared store) and start/stop it around the service.
type ClusterNode = cluster.Node

// ClusterNodeConfig configures a ClusterNode (id, advertised address,
// shared store, heartbeat cadence, lease TTL).
type ClusterNodeConfig = cluster.Config

// NewClusterNode validates cfg and builds a fleet member; call Start to
// join (synchronous first heartbeat) and Stop to deregister.
func NewClusterNode(cfg ClusterNodeConfig) (*ClusterNode, error) { return cluster.NewNode(cfg) }

// ClusterRouter is the stateless front door of a fleet: it consistent-
// hashes session ids onto live, ready nodes and reverse-proxies the
// HTTP/JSON API unchanged (cmd/ecrouter wraps it; see internal/router
// for the routing and failover rules).
type ClusterRouter = router.Router

// ClusterRouterOptions configures a ClusterRouter over the fleet's
// shared store.
type ClusterRouterOptions = router.Options

// NewClusterRouter builds a router; Start begins membership refresh and
// Handler serves the proxied API.
func NewClusterRouter(opts ClusterRouterOptions) (*ClusterRouter, error) { return router.New(opts) }

// ErrSessionNotOwned reports an operation refused because another fleet
// node holds the session's lease (HTTP 503 "not_owner" + Retry-After on
// the wire). Clients retry; the router lands them on the owner.
var ErrSessionNotOwned = service.ErrNotOwner

// ---- fault injection & resilience ----------------------------------------

// FaultPlan is a deterministic, seed-driven store fault schedule; wrap a
// SessionStore with NewFaultySessionStore to inject it (internal/fault).
type FaultPlan = fault.Plan

// FaultRule matches store operations ("append", "snapshot", "load",
// "list", "delete", or "*") and decides when a fault fires: the Nth
// matching call, every Kth, or a seeded coin flip P.
type FaultRule = fault.Rule

// FaultKind selects the injected failure mode.
type FaultKind = fault.Kind

// The injectable failure modes: a transient error, added latency, a torn
// (partial) write, a write whose durability ack is lost, and ENOSPC.
const (
	FaultError   = fault.KindError
	FaultLatency = fault.KindLatency
	FaultTorn    = fault.KindTorn
	FaultFsync   = fault.KindFsync
	FaultENOSPC  = fault.KindENOSPC
)

// NewFaultPlan builds a plan from explicit rules; seed fixes the
// probabilistic triggers.
func NewFaultPlan(seed int64, rules ...FaultRule) *FaultPlan { return fault.NewPlan(seed, rules...) }

// ParseFaultPlan parses the compact spec syntax cmd/ecserve's -fault-plan
// flag uses, e.g. "append:error:p=0.1;snapshot:enospc:nth=2".
func ParseFaultPlan(seed int64, spec string) (*FaultPlan, error) { return fault.ParsePlan(seed, spec) }

// NewFaultySessionStore wraps s so plan's faults fire on its operations
// (a nil plan never injects). Injected errors carry the same
// transient/permanent classification as real store trouble.
func NewFaultySessionStore(s SessionStore, plan *FaultPlan) SessionStore {
	return store.NewFaulty(s, plan)
}

// StoreRetryPolicy shapes the capped, jittered exponential backoff the
// service applies to transient store faults (ServiceOptions.StoreRetry).
type StoreRetryPolicy = service.RetryPolicy

// ErrServiceOverloaded reports a solve shed at the
// ServiceOptions.MaxBacklog admission bound (HTTP 503 + Retry-After).
var ErrServiceOverloaded = service.ErrOverloaded

// ErrSessionQueueFull reports a change batch refused at the
// ServiceOptions.MaxPending bound (HTTP 429 + Retry-After).
var ErrSessionQueueFull = service.ErrQueueFull

// ErrSessionSeqConflict reports a journal append at a stale sequence —
// the write-ahead conflict recovery and ack-lost resolution key on it.
var ErrSessionSeqConflict = store.ErrSeqConflict

// IsTransientStoreError reports whether err is retryable store trouble
// (I/O, ENOSPC, injected faults) as opposed to corruption or misuse.
func IsTransientStoreError(err error) bool { return store.IsTransient(err) }

// ---- benchmark families -------------------------------------------------------

// BenchmarkSpec identifies a synthetic benchmark instance.
type BenchmarkSpec = gen.Spec

// Benchmarks returns the full registry of paper instances.
func Benchmarks() []BenchmarkSpec { return gen.All() }

// BenchmarkByName looks an instance up by its paper name.
func BenchmarkByName(name string) (BenchmarkSpec, bool) { return gen.ByName(name) }
