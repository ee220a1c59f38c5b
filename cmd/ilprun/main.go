// Command ilprun solves a 0-1 ILP written in the text format of
// internal/ilp (see ParseText), using the exact branch-and-bound solver or
// the heuristic iterative-improvement solver.
//
// Usage:
//
//	ilprun model.ilp
//	ilprun -solver heur -seed 7 model.ilp
//	ilprun -bounding lp -branching lpfrac model.ilp
//	echo 'max x + y
//	st
//	c: x + y <= 1' | ilprun -
//
// Exit codes (so CI scripts can gate on solver outcomes):
//
//	0  a solution was found (OPTIMAL or FEASIBLE)
//	1  I/O, parse, or validation error
//	2  usage error
//	3  the model is proven INFEASIBLE
//	4  limits stopped the search with no solution (UNKNOWN, e.g. -timeout),
//	   or the heuristic found none
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ilpec/internal/heurilp"
	"ilpec/internal/ilp"
)

// Exit codes of run.
const (
	exitOK         = 0
	exitError      = 1
	exitUsage      = 2
	exitInfeasible = 3
	exitNoSolution = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	solver := fs.String("solver", "exact", "exact or heur")
	bounding := fs.String("bounding", "comb", "exact bounding: comb or lp")
	branching := fs.String("branching", "auto", "exact branching: auto, maxobj, constrained, lpfrac, cover")
	seed := fs.Int64("seed", 1, "heuristic seed")
	flips := fs.Int64("flips", 0, "heuristic flip budget (0 = default)")
	timeout := fs.Duration("timeout", 0, "exact time limit (0 = none)")
	workers := fs.Int("workers", 1, "parallel root searchers for the exact solver (1 = serial)")
	presolve := fs.Bool("presolve", true, "run the presolve pass (bound tightening, row/column elimination)")
	cuts := fs.Bool("cuts", true, "separate cover and clique cuts before the search")
	resolves := fs.Int("resolves", 1, "exact solver only: re-solve the model N times through a persistent instance, each re-running the kernel (with -cuts, through one cut pool), and report the retained-state counters")
	quiet := fs.Bool("quiet", false, "print only status and objective")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return exitUsage
	}

	var r io.Reader
	if fs.Arg(0) == "-" {
		r = stdin
	} else {
		fh, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
		defer fh.Close()
		r = fh
	}
	m, err := ilp.ParseText(r)
	if err != nil {
		return fail(stderr, err)
	}
	if err := m.Validate(); err != nil {
		return fail(stderr, err)
	}

	switch *solver {
	case "exact":
		opts := ilp.Options{TimeLimit: *timeout, Workers: *workers, Presolve: *presolve, Cuts: *cuts}
		switch *bounding {
		case "comb":
			opts.Bounding = ilp.CombBound
		case "lp":
			opts.Bounding = ilp.LPBound
		default:
			return fail(stderr, fmt.Errorf("unknown -bounding %q", *bounding))
		}
		switch *branching {
		case "auto", "maxobj":
			opts.Branching = ilp.BranchMaxObj
		case "constrained":
			opts.Branching = ilp.BranchMostConstrained
		case "lpfrac":
			opts.Branching = ilp.BranchLPFractional
		case "cover":
			opts.Branching = ilp.BranchCoverGreedy
		default:
			return fail(stderr, fmt.Errorf("unknown -branching %q", *branching))
		}
		start := time.Now()
		var res ilp.Result
		if *resolves > 1 {
			if opts.Cuts {
				opts.CutPool = ilp.NewCutPool()
			}
			inst := ilp.NewInstance(m)
			for i := 0; i < *resolves; i++ {
				res = inst.Resolve(opts)
			}
		} else {
			res = ilp.Solve(m, opts)
		}
		fmt.Fprintf(stdout, "status: %s\n", res.Status)
		if res.Status == ilp.Optimal || res.Status == ilp.Feasible {
			fmt.Fprintf(stdout, "objective: %g\n", res.Objective)
			if !*quiet {
				printSolution(stdout, m, res.Solution)
			}
		}
		if !*quiet {
			fmt.Fprintf(stdout, "nodes: %d  propagations: %d  row-scans-saved: %d  runtime: %v\n",
				res.Nodes, res.Propagations, res.RowScansSaved, time.Since(start))
			fmt.Fprintf(stdout, "lp-solves: %d  lp-warm-hits: %d  workers: %d\n",
				res.LPSolves, res.LPWarmHits, res.Workers)
			fmt.Fprintf(stdout, "presolve-fixed: %d  presolve-rows: %d  cuts-added: %d  cut-tightenings: %d\n",
				res.PresolveFixed, res.PresolveRows, res.CutsAdded, res.CutTightenings)
			if *resolves > 1 {
				fmt.Fprintf(stdout, "resolves: %d  instance-reused: %d  rows-delta: %d  reseparated-rows: %d\n",
					*resolves, res.InstanceReused, res.RowsDelta, res.ReseparatedRows)
			}
		}
		switch res.Status {
		case ilp.Optimal, ilp.Feasible:
			return exitOK
		case ilp.Infeasible:
			return exitInfeasible
		default: // Unknown: node/time limits exhausted the search
			return exitNoSolution
		}
	case "heur":
		res := heurilp.Solve(m, heurilp.Options{Seed: *seed, MaxFlips: *flips})
		if !res.Feasible {
			fmt.Fprintln(stdout, "status: NO-SOLUTION")
			return exitNoSolution
		}
		fmt.Fprintln(stdout, "status: FEASIBLE")
		fmt.Fprintf(stdout, "objective: %g\n", res.Objective)
		if !*quiet {
			printSolution(stdout, m, res.Solution)
			fmt.Fprintf(stdout, "flips: %d  runtime: %v\n", res.Flips, res.Runtime)
		}
		return exitOK
	default:
		return fail(stderr, fmt.Errorf("unknown -solver %q", *solver))
	}
}

func printSolution(w io.Writer, m *ilp.Model, sol ilp.Solution) {
	for j := 0; j < m.NumVars(); j++ {
		if sol[j] == 1 {
			fmt.Fprintf(w, "%s = 1\n", m.VarName(j))
		}
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "ilprun:", err)
	return exitError
}
