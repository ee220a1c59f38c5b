package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"ilpec/internal/cluster"
	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/router"
	"ilpec/internal/service"
	"ilpec/internal/store"
)

// durableFleet is the durable-fleet workload: one client drives HTTP
// through a router.Router to two in-process cluster nodes that share one
// store. Many small CNF sessions run over a few repeated designs, with a
// seeded hot-session skew and MaxLiveSessions below the working set, so
// the router, the HTTP handler, the solve cache and fleet-cache peek, the
// journal, snapshots, rehydration and leases do the work while the
// kernel does almost none.
//
// Each cycle posts a session's next change batch as fleetPosts
// idempotency-keyed POSTs, reads the session state back (GET), and
// solves; the GET checks that the posts were coalesced into one pending
// batch.
//
// The traffic mix is synthetic: no trace of real EC traffic exists to
// fit it to. README.md names the assumption behind each parameter and the
// shares of cache hits, evictions and rehydrations it produces.
//
// Flush policy: the shared store is one store.Memory (the backend
// cluster.Config names for in-process tests). Every acknowledged change
// and every solve still appends its journal record before answering, and
// snapshots, recovery, rehydration and the lease CAS run unchanged; what
// is left out is the file backend: record framing, file appends, the
// directory lock and the disk flush. The benchmark may write only inside
// its working tree, which is on a disk where an fsync costs from 0.1 to
// several milliseconds depending on the neighbours; that made the cycle
// time of a file-backed fleet spread by a fifth to a half across runs of
// the same program.
type durableFleet struct {
	bases    []*cnf.Formula // [design]
	sessions []fleetSession
	sets     []*fleetInputs
	// template holds the pre-seeded sessions; every epoch starts from a
	// copy of it.
	template *store.Memory
}

// fleetInputs is one script set: the designs' change scripts, their
// request bodies, and the order of the visits.
type fleetInputs struct {
	designs []*cnfScript
	bodies  [][][][]byte // [design][step][post] change request bodies
	// postSizes counts the changes in each body.
	postSizes [][][]int
	order     []sessionStep
}

// fleetSession is one session: its id, design, and whether it is
// pre-seeded in the store (recovered at setup) or created at setup.
type fleetSession struct {
	id     string
	design int
	seeded bool
	create []byte // create request body
}

const (
	// fleetPosts is the number of change POSTs per solve: the fewest
	// that make the session coalesce posts into one batch.
	fleetPosts = 2
	// fleetMaxLive bounds each node's live sessions to half its share of
	// the working set (about 12 of the 24 sessions land on each node), so
	// cold sessions are evicted and rehydrated.
	fleetMaxLive = 6
	// fleetZipf is the hot-session skew: session r of the ranking gets a
	// share of the visits proportional to 1/(r+1)^fleetZipf. At 1.1 the
	// six hottest sessions take 69% of the visits and the twelve coldest
	// 15%.
	fleetZipf = 1.1
)

var fleetDesigns = []designSize{
	{"par8-1-c", 40, 158},
	{"ii8a1", 46, 129},
	{"f600", 40, 170},
}

func (w *durableFleet) prepare(seed int64, sets int, tiny bool) error {
	perDesign, cycles := 8, 480
	if tiny {
		perDesign, cycles = 2, 24
	}
	for di := range fleetDesigns {
		for k := 0; k < perDesign; k++ {
			w.sessions = append(w.sessions, fleetSession{
				id: fmt.Sprintf("fleet-d%d-s%d", di, k), design: di, seeded: k%2 == 0,
			})
		}
	}
	for set := 0; set < sets; set++ {
		in, err := w.prepareSet(scriptSeed(seed, set, sets), cycles)
		if err != nil {
			return err
		}
		w.sets = append(w.sets, in)
	}
	d := core.CNF()
	for _, sc := range w.sets[0].designs {
		w.bases = append(w.bases, sc.base)
	}
	for i := range w.sessions {
		s := &w.sessions[i]
		body, err := json.Marshal(map[string]any{
			"id": s.id, "domain": "cnf", "problem": d.RenderProblem(w.bases[s.design]),
		})
		if err != nil {
			return err
		}
		s.create = body
	}
	return w.seedTemplate()
}

// prepareSet generates one script set.
func (w *durableFleet) prepareSet(seed int64, cycles int) (*fleetInputs, error) {
	in := &fleetInputs{}
	// Hot-session skew: each session's share of the cycles follows a
	// Zipf-like law over a fixed ranking, and the seed shuffles the order
	// in which the visits arrive. Every seed then drives the same working
	// set at the same skew; the interleaving decides the cache hits,
	// evictions and rehydrations. The ranking deals the designs out in
	// turn (the hottest session of each design, then the second, ...), so
	// every design is equally hot.
	designs := len(fleetDesigns)
	perDesign := len(w.sessions) / designs
	ranking := make([]int, len(w.sessions))
	for r := range ranking {
		ranking[r] = (r%designs)*perDesign + r/designs
	}
	var visits []int
	for rank, s := range ranking {
		share := zipfShare(rank, len(w.sessions), cycles)
		for i := 0; i < share; i++ {
			visits = append(visits, s)
		}
	}
	rand.New(rand.NewSource(seed*1_000_081+5)).Shuffle(len(visits), func(i, j int) {
		visits[i], visits[j] = visits[j], visits[i]
	})
	next := make([]int, len(w.sessions))
	for _, s := range visits {
		in.order = append(in.order, sessionStep{s, next[s]})
		next[s]++
	}
	steps := 0
	for _, n := range next {
		steps = max(steps, n)
	}
	d := core.CNF()
	for di, ds := range fleetDesigns {
		sc, err := newCNFScript(ds, seed, int64(100+di), steps, table23)
		if err != nil {
			return nil, err
		}
		in.designs = append(in.designs, sc)
		var per [][][]byte
		var sizes [][]int
		for _, step := range sc.steps {
			var posts [][]byte
			var n []int
			// Contiguous chunks: the changes must reach the session in
			// script order (clause deletions address clauses by index).
			chunk := (len(step) + fleetPosts - 1) / fleetPosts
			for p := 0; p < fleetPosts; p++ {
				var raws []any
				for _, c := range step[min(p*chunk, len(step)):min((p+1)*chunk, len(step))] {
					raws = append(raws, d.RenderChange(c))
				}
				body, err := json.Marshal(map[string]any{"changes": raws})
				if err != nil {
					return nil, err
				}
				posts = append(posts, body)
				n = append(n, len(raws))
			}
			per = append(per, posts)
			sizes = append(sizes, n)
		}
		in.bodies = append(in.bodies, per)
		in.postSizes = append(in.postSizes, sizes)
	}
	return in, nil
}

// seedTemplate writes the pre-seeded sessions, created and initially
// solved, into a template store that every epoch copies.
func (w *durableFleet) seedTemplate() error {
	w.template = store.NewMemory()
	svc := service.New(service.Options{Store: w.template, Solve: servingSolve})
	defer svc.Close()
	for _, s := range w.sessions {
		if !s.seeded {
			continue
		}
		sess, err := svc.CreateDomainSessionWithID(s.id, "cnf", w.bases[s.design], service.SessionConfig{})
		if err != nil {
			return err
		}
		if _, err := sess.Solve(); err != nil {
			return err
		}
	}
	return nil
}

// zipfShare is the number of visits, out of total, of the session at
// rank (0 = hottest) among n under weights 1/(rank+1)^fleetZipf. The
// shares sum to total: the remainder goes to the hottest ranks.
func zipfShare(rank, n, total int) int {
	weight := func(r int) float64 { return 1 / math.Pow(float64(r+1), fleetZipf) }
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += weight(r)
	}
	given := 0
	for r := 0; r < n; r++ {
		given += int(float64(total) * weight(r) / sum)
	}
	share := int(float64(total) * weight(rank) / sum)
	if rank < total-given {
		share++
	}
	return share
}

// copyStore copies every session of src, snapshot and journal tail, into
// a fresh memory store.
func copyStore(src store.Store) (*store.Memory, error) {
	dst := store.NewMemory()
	ids, err := src.List()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		snap, tail, err := src.Load(id)
		if err != nil {
			return nil, err
		}
		if err := dst.WriteSnapshot(snap); err != nil {
			return nil, err
		}
		for _, rec := range tail {
			if err := dst.Append(id, rec); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

func (w *durableFleet) newEpoch(tr *tracer, set int) (epoch, error) {
	st, err := copyStore(w.template)
	if err != nil {
		return nil, fmt.Errorf("copy template store: %w", err)
	}
	return &fleetEpoch{w: w, in: w.sets[set], tr: tr, st: st}, nil
}

// fleetNode is one in-process cluster node: its cluster membership,
// service and HTTP server.
type fleetNode struct {
	node *cluster.Node
	svc  *service.Service
	srv  *httptest.Server
}

type fleetEpoch struct {
	w      *durableFleet
	in     *fleetInputs
	tr     *tracer
	st     *store.Memory
	nodes  []*fleetNode
	rt     *router.Router
	front  *httptest.Server
	client *http.Client
}

func (e *fleetEpoch) setup() error {
	st := e.tr.wrapStore(e.st)
	for i := 0; i < 2; i++ {
		srv := httptest.NewUnstartedServer(nil)
		node, err := cluster.NewNode(cluster.Config{
			ID:    fmt.Sprintf("n%d", i+1),
			Addr:  "http://" + srv.Listener.Addr().String(),
			Store: st,
			// Liveness and lease timeouts far beyond an epoch: a busy host
			// must never drop a node from the ring or expire a lease mid-
			// run, which would change the work done. Heartbeats are
			// spaced out too: nobody fails over here.
			HeartbeatInterval: 5 * time.Second,
			HeartbeatTTL:      time.Minute,
			LeaseTTL:          5 * time.Minute,
			Obs:               e.tr.registry(),
		})
		if err != nil {
			return err
		}
		svc := service.New(e.tr.serviceOptions(service.Options{
			Store: st, Cluster: node, MaxLiveSessions: fleetMaxLive, Solve: servingSolve,
		}))
		srv.Config.Handler = service.NewHandler(svc)
		n := &fleetNode{node: node, svc: svc, srv: srv}
		e.nodes = append(e.nodes, n)
		if err := node.Start(); err != nil {
			return err
		}
		srv.Start()
	}
	var err error
	e.rt, err = router.New(router.Options{Store: e.st, Refresh: 5 * time.Second, Obs: e.tr.registry()})
	if err != nil {
		return err
	}
	if err := e.rt.Start(); err != nil {
		return err
	}
	e.front = httptest.NewServer(e.rt.Handler())
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	for _, s := range e.w.sessions {
		if s.seeded {
			continue
		}
		if _, _, err := e.do(http.MethodPost, "/v1/sessions", s.create, http.StatusCreated, nil); err != nil {
			return fmt.Errorf("create %s: %w", s.id, err)
		}
		if _, _, err := e.do(http.MethodPost, "/v1/sessions/"+s.id+"/solve", nil, http.StatusOK, nil); err != nil {
			return fmt.Errorf("initial solve %s: %w", s.id, err)
		}
	}
	return nil
}

// do sends one request through the router and returns its latency and
// body; a status other than want is an error.
func (e *fleetEpoch) do(method, path string, body []byte, want int, header map[string]string) (time.Duration, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.front.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	e.tr.noteStatus(resp.StatusCode)
	if err != nil {
		return d, nil, err
	}
	if resp.StatusCode != want {
		return d, data, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return d, data, nil
}

func (e *fleetEpoch) cycles() int { return len(e.in.order) }

// fleetSolve is the part of a solve response the benchmark reads.
type fleetSolve struct {
	Batched   int             `json:"batched"`
	Preserved float64         `json:"preserved"`
	SubVars   int             `json:"sub_vars"`
	SubRows   int             `json:"sub_clauses"`
	Solution  json.RawMessage `json:"solution"`
	Trace     json.RawMessage `json:"trace"`
}

func (e *fleetEpoch) cycle(i int) (cycleResult, error) {
	o := e.in.order[i]
	s := e.w.sessions[o.sess]
	base := "/v1/sessions/" + s.id
	posts := e.in.bodies[s.design][o.step]
	acks := make([]time.Duration, 0, len(posts))
	defer e.tr.setWindow("")
	e.tr.setWindow("changes")
	for k, body := range posts {
		key := fmt.Sprintf("%s-%d-%d", s.id, o.step, k)
		d, _, err := e.do(http.MethodPost, base+"/changes", body, http.StatusAccepted, map[string]string{"Idempotency-Key": key})
		if err != nil {
			return cycleResult{}, err
		}
		acks = append(acks, d)
		e.tr.noteAck(e.in.postSizes[s.design][o.step][k])
	}
	e.tr.setWindow("get")
	_, info, err := e.do(http.MethodGet, base, nil, http.StatusOK, nil)
	if err != nil {
		return cycleResult{}, err
	}
	var si struct {
		Pending int `json:"pending"`
	}
	if err := json.Unmarshal(info, &si); err != nil {
		return cycleResult{}, err
	}
	if want := len(e.in.designs[s.design].steps[o.step]); si.Pending != want {
		return cycleResult{}, fmt.Errorf("%s: %d changes pending after the posts, want %d", s.id, si.Pending, want)
	}
	path := base + "/solve"
	if e.tr != nil {
		path += "?trace=1"
	}
	e.tr.setWindow("solve")
	_, raw, err := e.do(http.MethodPost, path, nil, http.StatusOK, nil)
	if err != nil {
		return cycleResult{}, err
	}
	var res fleetSolve
	if err := json.Unmarshal(raw, &res); err != nil {
		return cycleResult{}, err
	}
	if e.tr != nil {
		e.noteSolveTrace(res.Trace)
	}
	return cycleResult{
		sol:      res.Solution,
		acks:     acks,
		batch:    res.Batched > 0,
		preserve: res.Preserved,
		subVars:  res.SubVars,
		subRows:  res.SubRows,
	}, nil
}

// noteSolveTrace records the session solve span of one ?trace=1 span
// tree.
func (e *fleetEpoch) noteSolveTrace(raw json.RawMessage) {
	d, ok := solveSpan(raw)
	if !ok {
		return
	}
	e.tr.add("fleet.solve_span", d, 0)
}

func (e *fleetEpoch) check(rs []cycleResult) []error {
	errs := make([]error, len(rs))
	d := core.CNF()
	cur := make([]*cnf.Formula, len(e.w.sessions))
	next := make([]int, len(e.w.sessions))
	for i, s := range e.w.sessions {
		cur[i] = e.w.bases[s.design].Clone()
	}
	for i, r := range rs {
		o := e.in.order[i]
		s := e.w.sessions[o.sess]
		if o.step != next[o.sess] {
			errs[i] = fmt.Errorf("%s served step %d out of order", s.id, o.step)
			continue
		}
		changes := e.in.designs[s.design].steps[o.step]
		f, err := core.Apply(cur[o.sess], changes)
		if err != nil {
			errs[i] = err
			continue
		}
		cur[o.sess] = f
		next[o.sess]++
		raw, _ := r.sol.(json.RawMessage)
		sol, err := d.ParseSolution(f, raw)
		if err != nil {
			errs[i] = fmt.Errorf("%s step %d: %w", s.id, o.step, err)
			continue
		}
		if !sol.(cnf.Assignment).Satisfies(f) {
			errs[i] = fmt.Errorf("%s step %d: answer does not satisfy the changed formula", s.id, o.step)
		}
	}
	return errs
}

func (e *fleetEpoch) counters() counters {
	var snaps []service.MetricsSnapshot
	for _, n := range e.nodes {
		snaps = append(snaps, n.svc.Metrics())
	}
	return serviceCounters(snaps...)
}

func (e *fleetEpoch) failovers() int64 {
	if e.rt == nil {
		return 0
	}
	return e.rt.Metrics().Failovers
}

func (e *fleetEpoch) close() {
	if e.front != nil {
		e.front.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.rt != nil {
		e.rt.Stop()
	}
	for _, n := range e.nodes {
		n.srv.Close()
		n.node.Stop()
		n.svc.Close()
	}
}
