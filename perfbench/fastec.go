package main

import (
	"fmt"

	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/gen"
	"ilpec/internal/service"
)

// fastEC is the fast-ec workload: an in-process service.Service with no
// store and no HTTP, serving CNF sessions over several of the paper's
// instance families under the default fast-EC strategy. Each session
// replays a witness-chained Table-2/Table-3 change script, so almost all
// the work lands in the domain EC engine (region extraction, the closure
// ladder, escalation) and small kernel sub-solves.
type fastEC struct {
	sets  [][]*cnfScript // [script set][session]
	steps int
}

// cnfScript is one session's design and change script. steps[j] is the
// batch of cycle j; the generator keeps a witness that satisfies the
// formula after every step.
type cnfScript struct {
	name  string
	base  *cnf.Formula
	steps [][]core.Change
}

// fastECFamilies are the session designs: paper instance families at
// sizes where even a full exact re-solve (the last rung of the
// escalation ladder) takes milliseconds, so no single cycle dominates a
// run and runs over different seeds do comparable work.
var fastECFamilies = []designSize{
	{"par8-1-c", 40, 158},
	{"ii8a1", 46, 129},
	{"jnh201", 30, 180},
	{"f600", 40, 170},
}

// designSize picks a paper family and the variable and clause counts of
// a generated member.
type designSize struct {
	family        string
	vars, clauses int
}

func (w *fastEC) prepare(seed int64, sets int, tiny bool) error {
	perFamily, steps := 4, 100
	if tiny {
		perFamily, steps = 1, 6
	}
	w.steps = steps
	for set := 0; set < sets; set++ {
		var scripts []*cnfScript
		for fi, fam := range fastECFamilies {
			for k := 0; k < perFamily; k++ {
				idx := int64(fi*perFamily + k)
				sc, err := newCNFScript(fam, scriptSeed(seed, set, sets), idx, steps, table23)
				if err != nil {
					return err
				}
				scripts = append(scripts, sc)
			}
		}
		w.sets = append(w.sets, scripts)
	}
	return nil
}

// table23 alternates the paper's Table-2 (eliminate variables, add
// clauses) and Table-3 (add/eliminate variables, add/delete clauses)
// change shapes at single-cycle scale.
func table23(m *gen.Mutator, f *cnf.Formula, p cnf.Assignment, j int) (gen.MutationPlan, error) {
	if j%2 == 0 {
		return m.Table2Changes(f, p, 1, 3)
	}
	return m.Table3Changes(f, p, 1, 1, 2, 2)
}

// newCNFScript generates a design from a paper family and a witness-
// chained change script over it: each step's changes keep the running
// witness satisfying, so every batch is satisfiable by construction.
func newCNFScript(ds designSize, seed, idx int64, steps int,
	plan func(*gen.Mutator, *cnf.Formula, cnf.Assignment, int) (gen.MutationPlan, error)) (*cnfScript, error) {
	spec, ok := gen.ByName(ds.family)
	if !ok {
		return nil, fmt.Errorf("unknown family %s", ds.family)
	}
	spec.Vars, spec.Clauses = ds.vars, ds.clauses
	// The designs are fixed instances of the family, like the paper's;
	// the seed drives the change scripts. Runs over different seeds then
	// differ only in the changes, not in how hard the designs are.
	spec.Seed = spec.Seed*1_000_003 + idx
	f, witness := spec.Generate()
	sc := &cnfScript{name: fmt.Sprintf("%s/%dx%d#%d", ds.family, ds.vars, ds.clauses, idx), base: f.Clone()}
	mut := gen.NewMutator(seed*1_000_033 + idx*31 + 17)
	cur := f
	for j := 0; j < steps; j++ {
		var mp gen.MutationPlan
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			if mp, err = plan(mut, cur, witness, j); err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s step %d: %w", sc.name, j, err)
		}
		next, err := core.Apply(cur, mp.Changes)
		if err != nil {
			return nil, fmt.Errorf("%s step %d: %w", sc.name, j, err)
		}
		if !mp.Witness.Satisfies(next) {
			return nil, fmt.Errorf("%s step %d: witness lost", sc.name, j)
		}
		sc.steps = append(sc.steps, mp.Changes)
		cur, witness = next, mp.Witness
	}
	return sc, nil
}

// checkCNFAnswers replays each script on an independent formula and
// checks every answer of session s against it. order lists, per cycle,
// the session and step it served.
func checkCNFAnswers(scripts []*cnfScript, order []sessionStep, rs []cycleResult) []error {
	errs := make([]error, len(rs))
	cur := make([]*cnf.Formula, len(scripts))
	next := make([]int, len(scripts))
	for i, sc := range scripts {
		cur[i] = sc.base.Clone()
	}
	for i, r := range rs {
		o := order[i]
		if o.step != next[o.sess] {
			errs[i] = fmt.Errorf("session %d served step %d out of order", o.sess, o.step)
			continue
		}
		f, err := core.Apply(cur[o.sess], scripts[o.sess].steps[o.step])
		if err != nil {
			errs[i] = err
			continue
		}
		cur[o.sess] = f
		next[o.sess]++
		a, ok := r.sol.(cnf.Assignment)
		switch {
		case !ok:
			errs[i] = fmt.Errorf("answer is %T, want an assignment", r.sol)
		case !a.Satisfies(f):
			errs[i] = fmt.Errorf("%s step %d: answer does not satisfy the changed formula", scripts[o.sess].name, o.step)
		}
	}
	return errs
}

// sessionStep names the session and script step one cycle serves.
type sessionStep struct{ sess, step int }

// roundRobin orders cycles session by session, one step per visit.
func roundRobin(sessions, steps int) []sessionStep {
	out := make([]sessionStep, 0, sessions*steps)
	for j := 0; j < steps; j++ {
		for s := 0; s < sessions; s++ {
			out = append(out, sessionStep{s, j})
		}
	}
	return out
}

func (w *fastEC) newEpoch(tr *tracer, set int) (epoch, error) {
	scripts := w.sets[set]
	return &fastECEpoch{scripts: scripts, tr: tr, order: roundRobin(len(scripts), w.steps)}, nil
}

type fastECEpoch struct {
	scripts  []*cnfScript
	tr       *tracer
	order    []sessionStep
	svc      *service.Service
	sessions []*service.Session
}

func (e *fastECEpoch) setup() error {
	e.svc = service.New(e.tr.serviceOptions(service.Options{Solve: servingSolve}))
	for _, sc := range e.scripts {
		sess, err := e.svc.CreateSession(sc.base, service.SessionConfig{})
		if err != nil {
			return err
		}
		if _, err := sess.Solve(); err != nil {
			return fmt.Errorf("%s initial solve: %w", sc.name, err)
		}
		e.sessions = append(e.sessions, sess)
	}
	return nil
}

func (e *fastECEpoch) cycles() int { return len(e.order) }

func (e *fastECEpoch) cycle(i int) (cycleResult, error) {
	o := e.order[i]
	changes := e.scripts[o.sess].steps[o.step]
	batch := make([]any, len(changes))
	for k, c := range changes {
		batch[k] = c
	}
	return inProcessCycle(e.tr, e.sessions[o.sess], batch)
}

func (e *fastECEpoch) check(rs []cycleResult) []error {
	return checkCNFAnswers(e.scripts, e.order, rs)
}

func (e *fastECEpoch) counters() counters { return serviceCounters(e.svc.Metrics()) }

func (e *fastECEpoch) close() {
	if e.svc != nil {
		e.svc.Close()
	}
}
