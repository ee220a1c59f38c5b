package main

import (
	"encoding/json"
	"strings"
	"sync"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/domain"
	"ilpec/internal/obs"
	"ilpec/internal/service"
	"ilpec/internal/store"
)

// tracer attributes a traced epoch's cycle time to the program's modules,
// from outside only: it times calls into public functions, wraps the
// seams the program accepts (store.Store, the domain.Registry adapters of
// the non-CNF domains, obs.Registry), and reads the signals the program
// already exposes (Metrics, the ec_* histograms, ?trace=1 span trees).
// A nil *tracer is the untraced configuration: every method is then a
// no-op that leaves the program exactly as a user would run it.
type tracer struct {
	mu      sync.Mutex
	regs    []*obs.Registry
	domains *domain.Registry
	// active gates the decorators' accounting to the timed loop.
	active bool
	// window names the request the single client has in flight (fleet);
	// store operations are also attributed to it, as "<op>@<window>".
	window string
	ops    map[string]opStat
	// at holds the histogram sums read at begin.
	at map[string]time.Duration
	// acks counts acknowledged change submissions in the timed loop;
	// changes counts the changes they carried.
	acks, changes int64
	non2xx        int64
}

// opStat accumulates one timed operation.
type opStat struct {
	n     int64
	d     time.Duration
	bytes int64
}

func newTracer() *tracer {
	tr := &tracer{ops: map[string]opStat{}, domains: domain.NewRegistry()}
	for _, name := range domain.Names() {
		d, _ := domain.Get(name)
		tr.domains.Register(tr.wrapDomain(d))
	}
	return tr
}

// registry returns a fresh obs registry whose instruments the tracer
// reads; nil when untraced (the program then builds its own private
// one, as it does for a user who wires none).
func (tr *tracer) registry() *obs.Registry {
	if tr == nil {
		return nil
	}
	r := obs.NewRegistry()
	tr.mu.Lock()
	tr.regs = append(tr.regs, r)
	tr.mu.Unlock()
	return r
}

// serviceOptions attaches the tracer's seams to service options.
func (tr *tracer) serviceOptions(o service.Options) service.Options {
	if tr == nil {
		return o
	}
	o.Obs = tr.registry()
	o.Domains = tr.domains
	if o.Store != nil {
		o.Store = tr.wrapStore(o.Store)
	}
	return o
}

// add records one timed operation while the timed loop runs.
func (tr *tracer) add(op string, d time.Duration, bytes int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.active {
		tr.addLocked(op, d, bytes)
		if tr.window != "" {
			tr.addLocked(op+"@"+tr.window, d, bytes)
		}
	}
	tr.mu.Unlock()
}

func (tr *tracer) addLocked(op string, d time.Duration, bytes int64) {
	s := tr.ops[op]
	s.n++
	s.d += d
	s.bytes += bytes
	tr.ops[op] = s
}

// setWindow names the request now in flight ("" when none).
func (tr *tracer) setWindow(w string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.window = w
	tr.mu.Unlock()
}

func (tr *tracer) noteAck(changes int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.active {
		tr.acks++
		tr.changes += int64(changes)
	}
	tr.mu.Unlock()
}

func (tr *tracer) noteStatus(code int) {
	if tr == nil || code/100 == 2 {
		return
	}
	tr.mu.Lock()
	if tr.active {
		tr.non2xx++
	}
	tr.mu.Unlock()
}

// histSums totals the histograms of the tracer's registries, keyed
// "<name>/<phase, route or op label>".
func (tr *tracer) histSums() map[string]time.Duration {
	out := map[string]time.Duration{}
	tr.mu.Lock()
	regs := append([]*obs.Registry(nil), tr.regs...)
	tr.mu.Unlock()
	for _, r := range regs {
		for _, s := range r.Snapshot() {
			if s.Hist == nil {
				continue
			}
			key := s.Name
			for _, lk := range []string{"phase", "route", "op"} {
				if v, ok := s.Labels[lk]; ok {
					key += "/" + v
				}
			}
			if s.Name == "ec_store_op_seconds" {
				continue // the wrapped store times these itself
			}
			out[key] += time.Duration(s.Hist.SumNanos)
		}
	}
	return out
}

func (tr *tracer) begin() {
	tr.at = tr.histSums()
	tr.mu.Lock()
	tr.active = true
	tr.mu.Unlock()
}

func (tr *tracer) end() {
	tr.mu.Lock()
	tr.active = false
	tr.mu.Unlock()
	now := tr.histSums()
	for k, v := range tr.at {
		now[k] -= v
	}
	tr.at = now
}

// ---- the layer totals of traced epochs -------------------------------------

// layerTotals sums traced epochs for the per-layer report.
type layerTotals struct {
	epochs, cycles int
	cycleTime      time.Duration
	ops            map[string]opStat
	hist           map[string]time.Duration
	acks, changes  int64
	non2xx         int64
	fastPasses     int64
	failovers      int64
}

func (lt *layerTotals) add(s layerTotals) {
	if lt.ops == nil {
		lt.ops = map[string]opStat{}
		lt.hist = map[string]time.Duration{}
	}
	lt.epochs += s.epochs
	lt.cycles += s.cycles
	lt.cycleTime += s.cycleTime
	for k, v := range s.ops {
		o := lt.ops[k]
		o.n += v.n
		o.d += v.d
		o.bytes += v.bytes
		lt.ops[k] = o
	}
	for k, v := range s.hist {
		lt.hist[k] += v
	}
	lt.acks += s.acks
	lt.changes += s.changes
	lt.non2xx += s.non2xx
	lt.fastPasses += s.fastPasses
	lt.failovers += s.failovers
}

// failoverReader is implemented by epochs that run a router.
type failoverReader interface{ failovers() int64 }

// collect closes a traced epoch.
func (tr *tracer) collect(ep epoch, rs []cycleResult, durs []time.Duration) layerTotals {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := layerTotals{
		epochs: 1, cycles: len(durs),
		ops: tr.ops, hist: tr.at,
		acks: tr.acks, changes: tr.changes, non2xx: tr.non2xx,
	}
	for i, d := range durs {
		s.cycleTime += d
		if rs[i].subVars > 0 {
			s.fastPasses++
		}
	}
	if fr, ok := ep.(failoverReader); ok {
		s.failovers = fr.failovers()
	}
	return s
}

// ---- in-process cycle ------------------------------------------------------

// inProcessCycle submits one change batch to a session and re-solves it,
// timing both calls when traced.
func inProcessCycle(tr *tracer, sess *service.Session, batch []any) (cycleResult, error) {
	start := time.Now()
	if _, err := sess.QueueChanges(batch...); err != nil {
		return cycleResult{}, err
	}
	ack := time.Since(start)
	mid := time.Now()
	res, err := sess.Solve()
	solve := time.Since(mid)
	if tr != nil {
		tr.add("session.queue_call", ack, 0)
		tr.add("session.solve_call", solve, 0)
		tr.noteAck(len(batch))
	}
	if err != nil {
		return cycleResult{}, err
	}
	return cycleResult{
		sol:      res.Solution,
		acks:     []time.Duration{ack},
		batch:    res.Status != "initial" && res.Status != "noop",
		preserve: res.Preserved,
		subVars:  res.SubVars,
		subRows:  res.SubClauses,
	}, nil
}

// ---- span trees ------------------------------------------------------------

// solveSpan finds the session "solve" span in a ?trace=1 span tree and
// returns its duration.
func solveSpan(raw json.RawMessage) (time.Duration, bool) {
	var root obs.SpanOut
	if json.Unmarshal(raw, &root) != nil {
		return 0, false
	}
	var find func(sp *obs.SpanOut) *obs.SpanOut
	find = func(sp *obs.SpanOut) *obs.SpanOut {
		if sp.Name == "solve" {
			return sp
		}
		for _, c := range sp.Children {
			if f := find(c); f != nil {
				return f
			}
		}
		return nil
	}
	sp := find(&root)
	if sp == nil {
		return 0, false
	}
	return msDur(sp.DurationMS), true
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// ---- decorators --------------------------------------------------------------

// timedDomain times a domain adapter's Encode and ApplyChanges. It
// forwards every other method unchanged.
type timedDomain struct {
	domain.Domain
	tr *tracer
}

func (d timedDomain) Encode(p any) (domain.Encoding, error) {
	start := time.Now()
	enc, err := d.Domain.Encode(p)
	d.tr.add("domain.encode", time.Since(start), 0)
	return enc, err
}

func (d timedDomain) ApplyChanges(p any, changes []any) (any, error) {
	start := time.Now()
	out, err := d.Domain.ApplyChanges(p, changes)
	d.tr.add("domain.apply_changes", time.Since(start), 0)
	return out, err
}

// timedDeltaDomain is timedDomain for adapters that implement the
// optional domain.DeltaEncoder: it must forward EncodeDelta, or the
// traced run would silently lose the instance delta path.
type timedDeltaDomain struct {
	timedDomain
	de domain.DeltaEncoder
}

func (d timedDeltaDomain) EncodeDelta(prev domain.Encoding, prevProblem any, changes []any) (*domain.Delta, bool) {
	start := time.Now()
	delta, ok := d.de.EncodeDelta(prev, prevProblem, changes)
	d.tr.add("domain.encode", time.Since(start), 0)
	return delta, ok
}

// wrapDomain decorates one adapter. The CNF adapter is left alone: the
// service shadows the registry's CNF entry with its own configured one.
func (tr *tracer) wrapDomain(d domain.Domain) domain.Domain {
	if d.Name() == "cnf" {
		return d
	}
	td := timedDomain{Domain: d, tr: tr}
	if de, ok := d.(domain.DeltaEncoder); ok {
		return timedDeltaDomain{timedDomain: td, de: de}
	}
	return td
}

// timedStore times the operations of a store: session records as store
// work, lease and fleet-cache records as cluster work (see metaOp).
type timedStore struct {
	store.Store
	tr *tracer
}

func (tr *tracer) wrapStore(s store.Store) store.Store {
	if tr == nil {
		return s
	}
	if _, ok := s.(*timedStore); ok {
		return s
	}
	return &timedStore{Store: s, tr: tr}
}

// metaOp names the accounting bucket of a store operation on a cluster
// record: lease and fleet-cache records are cluster work done on behalf
// of a request; heartbeats are background work and are not counted.
func metaOp(id string) (string, bool) {
	switch {
	case strings.HasPrefix(id, "_cluster_node_"):
		return "", false
	case cluster.IsMetaID(id):
		return "cluster.store_ops", true
	}
	return "", false
}

func (s *timedStore) record(id, op string, start time.Time, bytes int64) {
	d := time.Since(start)
	if cluster.IsMetaID(id) {
		if mop, ok := metaOp(id); ok {
			s.tr.add(mop, d, 0)
		}
		return
	}
	s.tr.add(op, d, bytes)
}

func (s *timedStore) Append(id string, rec store.Record) error {
	start := time.Now()
	err := s.Store.Append(id, rec)
	var bytes int64
	for _, c := range rec.Changes {
		bytes += int64(len(c))
	}
	op := "store.append"
	if rec.Kind == store.KindChanges {
		op = "store.append_changes"
	}
	s.record(id, op, start, bytes)
	return err
}

func (s *timedStore) WriteSnapshot(snap store.Snapshot) error {
	start := time.Now()
	err := s.Store.WriteSnapshot(snap)
	s.record(snap.SessionID, "store.snapshot", start, 0)
	return err
}

func (s *timedStore) Load(id string) (store.Snapshot, []store.Record, error) {
	start := time.Now()
	snap, tail, err := s.Store.Load(id)
	s.record(id, "store.load", start, 0)
	return snap, tail, err
}
