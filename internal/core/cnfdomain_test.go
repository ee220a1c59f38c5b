package core

import (
	"fmt"
	"testing"

	"ilpec/internal/cnf"
	"ilpec/internal/domain"
	"ilpec/internal/ilp"
)

// TestCNFDomainConformance runs the shared cross-domain suite against the
// CNF adapter.
func TestCNFDomainConformance(t *testing.T) {
	domain.RunConformance(t, CNF())
}

func TestCNFDomainRegistered(t *testing.T) {
	d, ok := domain.Get("cnf")
	if !ok {
		t.Fatal("cnf domain not registered")
	}
	if d.Name() != "cnf" {
		t.Fatalf("name %q", d.Name())
	}
}

// TestCNFDomainFastRegionSizes pins the adapter's fast-EC region ladder:
// the size of the final sub-instance under each closure policy, how many
// escalations reached it, and that none of them fell back to the full
// instance.
func TestCNFDomainFastRegionSizes(t *testing.T) {
	conf := cnf.FromClauses(
		[]int{1, 2}, []int{-1, 3}, []int{2, 4}, []int{-3, -4, 5}, []int{5, 6},
	)
	confSol, _, err := PlainResolve(conf, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An instance whose minimal closure is infeasible against the frozen
	// context: the first escalation (to the full Figure-2 closure) finds
	// a 4-variable, 7-clause sub-instance and stops there.
	esc := cnf.FromClauses(
		[]int{-1, 3, -2}, []int{-4, -2, -1}, []int{5, -2, -3}, []int{2, -5, 3},
		[]int{-4, -2, 5}, []int{-3, -5, -4}, []int{-4, 2, -3},
	)
	escSol := cnf.NewAssignment(5)
	escSol.Set(2, cnf.False)
	escSol.Set(3, cnf.False)
	escSol.Set(5, cnf.False)
	cases := []struct {
		name    string
		f       *cnf.Formula
		p       cnf.Assignment
		changes []Change
		minimal bool
		// vars, clauses and escalations of the final sub-instance.
		vars, clauses, escalations int
	}{
		{"conformance/closure", conf, confSol, []Change{NewClause(-2, 3), NewClause(1, 4)}, false, 2, 1, 0},
		{"conformance/minimal", conf, confSol, []Change{NewClause(-2, 3), NewClause(1, 4)}, true, 2, 1, 0},
		{"paper/closure", fastF(), fastS(), []Change{NewClause(-5, 6), NewClause(1, -3, 4)}, false, 3, 3, 0},
		{"paper/minimal", fastF(), fastS(), []Change{NewClause(-5, 6), NewClause(1, -3, 4)}, true, 2, 2, 0},
		{"escalating/closure", esc, escSol, []Change{NewClause(-2, 4), NewClause(2, 5)}, false, 4, 7, 0},
		{"escalating/minimal", esc, escSol, []Change{NewClause(-2, 4), NewClause(2, 5)}, true, 4, 7, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fPrime, err := Apply(tc.f, tc.changes)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := fastEC(fPrime, tc.p, tc.minimal)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Satisfies(fPrime) {
				t.Fatalf("merged solution %v does not satisfy the changed formula", got)
			}
			if stats.AlreadyValid || stats.FullResolve {
				t.Fatalf("stats %+v: want a partial re-solve", stats)
			}
			if stats.SubSize != tc.vars || subClauses(stats) != tc.clauses || stats.Escalations != tc.escalations {
				t.Fatalf("sub-instance %d vars / %d clauses after %d escalations, want %d / %d after %d",
					stats.SubSize, subClauses(stats), stats.Escalations, tc.vars, tc.clauses, tc.escalations)
			}
		})
	}
}

// TestParseProblemSizeBound pins that a CNF problem declaring more
// variables than domain.MaxColumns admits is rejected at parse time,
// whether by the vars field, the DIMACS header or a literal.
func TestParseProblemSizeBound(t *testing.T) {
	over := domain.MaxColumns/2 + 1 // 2·over columns: the smallest count over the bound
	for name, spec := range map[string]string{
		"vars":    fmt.Sprintf(`{"vars": %d, "clauses": [[1]]}`, over),
		"header":  fmt.Sprintf(`{"dimacs": "p cnf %d 1\n1 0\n"}`, over),
		"literal": fmt.Sprintf(`{"clauses": [[1, -%d]]}`, over),
	} {
		if _, err := CNF().ParseProblem([]byte(spec)); err == nil {
			t.Errorf("%s: ParseProblem(%s) accepted a problem over the bound", name, spec)
		}
	}
	if _, err := CNF().ParseProblem([]byte(fmt.Sprintf(`{"vars": %d, "clauses": [[1]]}`, over-1))); err != nil {
		t.Errorf("problem at the bound rejected: %v", err)
	}
}
