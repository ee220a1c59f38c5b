// Command perfbench is the repository's end-to-end benchmark. It drives
// one of three seeded, closed-loop engineering-change (EC) workloads
// against the real program, checks every answer, and prints one JSON
// result line:
//
//	go build -o perfbench . && ./perfbench --workload fast-ec --seed 1 --seconds 10 --trace 0
//
// Every input is generated from --seed before any timer starts. A run is
// a sequence of epochs: each epoch builds the program state afresh
// (timed as setup), replays one of the seeded script sets (each cycle
// timed), and then checks the answers and the work counters outside the
// timed window. Epochs rotate through the script sets until --seconds of
// cycle time has been measured. With --trace 1 every second epoch runs
// with the layer decorators and histogram readers of trace.go attached,
// and the run prints per-layer metrics instead of end-to-end ones. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ilpec/internal/ilp"
)

func main() {
	// One P: the client is closed-loop and single-threaded and the
	// kernel serial, so a second P adds only cross-CPU wakeups and a
	// collector running beside the mutator on a vCPU the host may steal.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	// workDir holds the determinism-gate records (relative to the
	// working directory).
	workDir string
	// program identifies the runner binary; gate records are per program.
	program string
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var size string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "cycle time to measure (seconds)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&size, "size", "full", "instance sizes: full or tiny (harness tests)")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for the determinism-gate records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if size != "full" && size != "tiny" {
		fmt.Fprintln(stderr, "perfbench: --size must be full or tiny")
		return 2
	}
	cfg.trace = trace == 1
	cfg.tiny = size == "tiny"
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		return 2
	}
	id, err := programID()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: identify the program:", err)
		return 1
	}
	cfg.program = id
	res, err := runBench(cfg, stderr)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(stderr, "perfbench:", jerr)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// workload is one benchmark scenario. prepare generates every input from
// the seed (untimed, counted in no metric): sets script sets over fixed
// designs. newEpoch builds one fresh epoch over one script set,
// decorated for tracing when tr is non-nil.
type workload interface {
	prepare(seed int64, sets int, tiny bool) error
	newEpoch(tr *tracer, set int) (epoch, error)
}

// scriptSets is how many script sets a run rotates through. Each epoch
// replays one set; rotating widens the inputs one run covers, so runs
// over different seeds average over more changes and agree more closely.
const scriptSets = 8

// scriptSeed derives the seed of one script set.
func scriptSeed(seed int64, set, sets int) int64 { return seed*int64(sets) + int64(set) }

// epoch is one timed pass over the prepared cycle script.
type epoch interface {
	// setup builds the program state until every session exists and is
	// initially solved (timed as setup_s).
	setup() error
	// cycles is the fixed number of EC cycles in the script.
	cycles() int
	// cycle runs EC cycle i: submit its change batch and wait for the
	// re-solved answer (timed as one cycle).
	cycle(i int) (cycleResult, error)
	// check verifies every answer against an independent model of the
	// changed problem; it returns one error (or nil) per cycle.
	check(rs []cycleResult) []error
	// counters reads the program's work counters for the determinism gate
	// and the per-layer report.
	counters() counters
	close()
}

// cycleResult is what the benchmark keeps from one cycle; everything is
// checked after the timed loop.
type cycleResult struct {
	sol      any
	acks     []time.Duration
	batch    bool
	preserve float64
	subVars  int
	subRows  int
}

var workloads = map[string]func() workload{
	"fast-ec":       func() workload { return &fastEC{} },
	"replan-delta":  func() workload { return &replanDelta{} },
	"durable-fleet": func() workload { return &durableFleet{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// servingSolve is the solver configuration cmd/ecserve serves with by
// default: presolve and session-retained cuts on, one searcher per solve
// (the kernel's serial default), no time or node limit.
var servingSolve = ilp.Options{Workers: 1, Presolve: true, Cuts: true}

// tally accumulates measurements over the epochs of one kind (plain or
// traced).
type tally struct {
	epochs int
	// Per epoch: the p50 and p90 of its cycle times and the p50 of its
	// acknowledgement times, in ms. The run reports the median over its
	// epochs, which a host stall during a few epochs does not move.
	epochP50 []float64
	epochP90 []float64
	epochAck []float64
	setups   []float64 // s per setup
	cycleSum time.Duration
	// Per epoch: completed cycles per second of cycle time, and CPU
	// milliseconds per cycle (medians reported likewise).
	epochRate []float64
	epochCPU  []float64
	// Per epoch: the share of the machine's CPU time the hypervisor
	// stole during the timed loop (a host-noise diagnostic).
	epochSteal []float64
	alloc      uint64
	gcCycles   uint32
	gcPause    time.Duration
	attempted  int
	// answered counts cycles that returned without error; verified those
	// whose answer also passed the check.
	answered  int
	verified  int
	truncated int
	preserved []float64
	layers    layerTotals
	reported  int
}

func runBench(cfg config, stderr io.Writer) (*result, error) {
	wl := workloads[cfg.workload]()
	sets := scriptSets
	if cfg.tiny {
		sets = 2
	}
	if err := wl.prepare(cfg.seed, sets, cfg.tiny); err != nil {
		return nil, fmt.Errorf("prepare %s: %w", cfg.workload, err)
	}
	refBefore := refLoopMS()

	var plain, traced tally
	// bySet holds the counters of each script set's first epoch; every
	// later epoch of the set must repeat them.
	bySet := map[int]counters{}
	var gateErr error
	budget := time.Duration(cfg.seconds * float64(time.Second))
	for i := 0; ; i++ {
		// A traced run pairs each untraced epoch with a traced one over
		// the same script set.
		useTrace := cfg.trace && i%2 == 1
		set := i % sets
		t := &plain
		var tr *tracer
		if cfg.trace {
			set = (i / 2) % sets
		}
		if useTrace {
			t = &traced
			tr = newTracer()
		}
		c, err := runEpoch(wl, tr, set, t)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", i, err)
		}
		if prev, ok := bySet[set]; !ok {
			bySet[set] = c
		} else if name, a, b, ok := prev.diff(c); !ok && gateErr == nil {
			gateErr = fmt.Errorf("determinism gate: counter %s = %s in the first epoch of script set %d but %s in epoch %d (traced=%v)",
				name, a, set, b, i, useTrace)
		}
		// Stop only after whole rotations, so every script set carries the
		// same weight in the run's figures.
		round := sets
		if cfg.trace {
			round = 2 * sets
		}
		if (i+1)%round == 0 && plain.cycleSum+traced.cycleSum >= budget {
			break
		}
	}
	refAfter := refLoopMS()
	if gateErr == nil {
		gateErr = checkGateRecord(cfg, bySet)
	}
	first := bySet[0]

	attempted := plain.attempted + traced.attempted
	failed := attempted - plain.verified - traced.verified
	correct := gateErr == nil && failed == 0
	res := &result{Correct: correct, Attempted: attempted, Failed: failed}
	diag := diagnostics(&plain, refBefore, refAfter)
	fmt.Fprintf(stderr, "perfbench: %s seed=%d epochs=%d cycles/epoch=%d diag=%s\n",
		cfg.workload, cfg.seed, plain.epochs, plain.attempted/max(plain.epochs, 1), diag.String())
	fmt.Fprintf(stderr, "perfbench: work counts per epoch of script set 0:")
	for _, k := range first.sortedKeys() {
		fmt.Fprintf(stderr, " %s=%s", k, first[k])
	}
	fmt.Fprintln(stderr)
	if cfg.trace {
		res.Metrics = perLayer(&plain, &traced, first, diag)
		writeReconciliation(stderr, cfg.workload, &plain, &traced)
	} else {
		res.Metrics = endToEnd(&plain)
	}
	if !correct && gateErr == nil {
		gateErr = errors.New("answer verification failed (see stderr)")
	}
	return res, gateErr
}

// runEpoch runs one epoch and folds it into t.
func runEpoch(wl workload, tr *tracer, set int, t *tally) (counters, error) {
	ep, err := wl.newEpoch(tr, set)
	if err != nil {
		return nil, err
	}
	defer ep.close()
	runtime.GC()
	start := time.Now()
	if err := ep.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t.setups = append(t.setups, time.Since(start).Seconds())

	n := ep.cycles()
	results := make([]cycleResult, n)
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	if tr != nil {
		tr.begin()
	}
	// Start every epoch's timed phase from a collected heap so one
	// epoch's garbage is not charged to the next.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	steal0, ticks0 := hostTicks()
	cpu0 := cpuTime()
	for i := 0; i < n; i++ {
		s := time.Now()
		results[i], errs[i] = ep.cycle(i)
		durs[i] = time.Since(s)
	}
	cpu1 := cpuTime()
	steal1, ticks1 := hostTicks()
	runtime.ReadMemStats(&ms1)
	if tr != nil {
		tr.end()
	}

	// Everything below is outside the timed window.
	checks := ep.check(results)
	t.epochs++
	t.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	t.gcCycles += ms1.NumGC - ms0.NumGC
	t.gcPause += time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	var loop time.Duration
	for _, d := range durs {
		loop += d
	}
	rate, cpu := float64(n)/loop.Seconds(), ms(cpu1-cpu0)/float64(n)
	t.epochRate = append(t.epochRate, rate)
	t.epochCPU = append(t.epochCPU, cpu)
	t.cycleSum += loop
	cycleMS := make([]float64, n)
	var acks []float64
	for i := 0; i < n; i++ {
		t.attempted++
		cycleMS[i] = ms(durs[i])
		if errs[i] != nil {
			t.reportCheck(i, errs[i])
			continue
		}
		t.answered++
		r := results[i]
		for _, a := range r.acks {
			acks = append(acks, ms(a))
		}
		if checks[i] == nil {
			t.verified++
		} else {
			t.reportCheck(i, checks[i])
		}
		if r.batch {
			t.preserved = append(t.preserved, r.preserve)
		}
	}
	p50, p90 := quantile(cycleMS, 0.5), quantile(cycleMS, 0.9)
	steal := stealFrac(steal0, ticks0, steal1, ticks1)
	t.epochP50 = append(t.epochP50, p50)
	t.epochP90 = append(t.epochP90, p90)
	t.epochAck = append(t.epochAck, quantile(acks, 0.5))
	t.epochSteal = append(t.epochSteal, steal)
	fmt.Fprintf(os.Stderr, "perfbench: epoch set=%d traced=%v p50=%.4f p90=%.4f rate=%.1f cpu=%.4f gc=%d steal=%.3f\n",
		set, tr != nil, p50, p90, rate, cpu, ms1.NumGC-ms0.NumGC, steal)
	c := ep.counters()
	c.addResults(results, errs)
	// A truncated solve is answered but not proven.
	t.truncated += int(c.int("truncated_solves"))
	if tr != nil {
		t.layers.add(tr.collect(ep, results, durs))
	}
	return c, nil
}

// reportCheck logs the first few failed cycles and answer checks of a
// run.
func (t *tally) reportCheck(i int, err error) {
	if t.reported < 5 {
		fmt.Fprintf(os.Stderr, "perfbench: cycle %d: %v\n", i, err)
	}
	t.reported++
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
