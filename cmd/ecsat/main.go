// Command ecsat runs the ILP-based engineering-change flows on DIMACS CNF
// files.
//
// Usage:
//
//	ecsat solve file.cnf                 # set-cover ILP solve (max don't-cares)
//	ecsat enable -mode sc file.cnf       # enabling EC (§5): constraint mode
//	ecsat enable -mode of file.cnf       # enabling EC: objective mode
//	ecsat fast -add "−1 2 0; 3 0" file.cnf    # fast EC (§6) after adding clauses
//	ecsat preserve -add "..." file.cnf   # preserving EC (§7)
//
// Changes are given as DIMACS-style clauses separated by ';' (the final 0
// is optional), and/or as -drop/-grow/-elim lists.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/encode"
	"ilpec/internal/ilp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	mode := fs.String("mode", "sc", "enable mode: sc (constraints) or of (objective)")
	k := fs.Int("k", 2, "enabling satisfaction level")
	add := fs.String("add", "", "clauses to add, ';'-separated DIMACS literals")
	elim := fs.String("elim", "", "comma-separated variables to eliminate")
	grow := fs.Int("grow", 0, "number of variables to add")
	drop := fs.String("drop", "", "comma-separated clause indices to remove")
	timeout := fs.Duration("timeout", time.Minute, "exact solver time limit")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}
	if fs.NArg() != 1 {
		usage()
	}
	f, err := cnf.ParseDIMACSFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	opts := ilp.Options{TimeLimit: *timeout}

	switch cmd {
	case "solve":
		a, res, err := core.PlainResolve(f, opts)
		if err != nil {
			fatal(err)
		}
		report(f, a, res)
	case "enable":
		m := core.EnableConstraints
		if strings.EqualFold(*mode, "of") {
			m = core.EnableObjective
		}
		res, err := core.SolveEnable(f, core.EnableOptions{Mode: m, K: *k}, opts)
		if err != nil {
			fatal(err)
		}
		report(f, res.Assignment, res.ILP)
		rep := core.VerifyFlexibility(f, res.Assignment, *k)
		fmt.Printf("flexible clauses: %d/%d (k-sat %d, supported %d)\n",
			rep.Flexible(), rep.Total, rep.KSatisfied, rep.Supported)
	case "fast", "preserve", "replan":
		changes, err := parseChanges(*add, *elim, *drop, *grow)
		if err != nil {
			fatal(err)
		}
		if len(changes) == 0 {
			fatal(fmt.Errorf("no changes given (use -add/-elim/-drop/-grow)"))
		}
		// Original solution first.
		p, _, err := core.PlainResolve(f, opts)
		if err != nil {
			fatal(fmt.Errorf("original solve: %w", err))
		}
		fPrime, err := core.Apply(f, changes)
		if err != nil {
			fatal(err)
		}
		switch cmd {
		case "fast":
			sol, stats, err := domain.Fast(core.CNF(), fPrime, p, domain.FastOptions{Solve: opts})
			if err != nil {
				fatal(err)
			}
			if stats.AlreadyValid {
				fmt.Println("original solution survives the change; nothing to do")
				return
			}
			// The set-cover encoding adds one consistency row per variable.
			fmt.Printf("fast EC: sub-instance %d vars / %d clauses (escalations %d)\n",
				stats.SubSize, stats.SubRows-stats.SubSize, stats.Escalations)
			a := sol.(cnf.Assignment)
			report(fPrime, a, stats.ILP)
			fmt.Printf("preserved: %.1f%%\n", 100*a.PreservedFraction(p))
		case "preserve":
			sol, res, err := domain.Preserve(core.CNF(), fPrime, p, opts)
			if err != nil {
				fatal(err)
			}
			a := sol.(cnf.Assignment)
			report(fPrime, a, res)
			fmt.Printf("preserved: %.1f%%\n", 100*a.PreservedFraction(p))
		case "replan":
			a, res, err := core.PlainResolve(fPrime, opts)
			if err != nil {
				fatal(err)
			}
			report(fPrime, a, res)
			fmt.Printf("preserved: %.1f%%\n", 100*a.PreservedFraction(p))
		}
	case "encode":
		e := encode.New(f)
		if err := ilp.WriteText(os.Stdout, e.Model); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

func parseChanges(add, elim, drop string, grow int) ([]core.Change, error) {
	var out []core.Change
	for i := 0; i < grow; i++ {
		out = append(out, core.GrowVariable())
	}
	if drop != "" {
		for _, tok := range strings.Split(drop, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad clause index %q", tok)
			}
			out = append(out, core.DropClause(idx))
		}
	}
	if elim != "" {
		for _, tok := range strings.Split(elim, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad variable %q", tok)
			}
			out = append(out, core.EliminateVariable(v))
		}
	}
	if add != "" {
		for _, cl := range strings.Split(add, ";") {
			var lits []int
			for _, tok := range strings.Fields(cl) {
				n, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("bad literal %q", tok)
				}
				if n == 0 {
					break
				}
				lits = append(lits, n)
			}
			if len(lits) > 0 {
				out = append(out, core.NewClause(lits...))
			}
		}
	}
	return out, nil
}

func report(f *cnf.Formula, a cnf.Assignment, res ilp.Result) {
	fmt.Printf("status: %s  nodes: %d  runtime: %v\n", res.Status, res.Nodes, res.Runtime)
	fmt.Printf("committed %d / %d variables (%d don't-cares)\n",
		a.AssignedCount(), f.NumVars, a.DontCareCount())
	if f.NumVars <= 40 {
		fmt.Println(a)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ecsat <solve|enable|fast|preserve|replan|encode> [flags] file.cnf
run 'ecsat <cmd> -h' for the flags of each subcommand`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecsat:", err)
	os.Exit(1)
}
