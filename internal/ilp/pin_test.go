package ilp_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ilpec/internal/cnf"
	"ilpec/internal/core"
	"ilpec/internal/domain"
	"ilpec/internal/encode"
	"ilpec/internal/gen"
	"ilpec/internal/ilp"

	_ "ilpec/internal/coloring"  // registers the coloring domain
	_ "ilpec/internal/partition" // registers the partition domain
	_ "ilpec/internal/sched"     // registers the sched domain
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// corpusModel is one model of the pin corpus with the warm start the
// engine would hand the solver for it (nil for none).
type corpusModel struct {
	name string
	m    *ilp.Model
	warm ilp.Solution
	// region, for a fast-EC rung, records the region's size, full flag
	// and the rows digest of its encoding ("" otherwise).
	region string
}

// pinDesigns are the CNF session designs of the corpus: the paper
// families at the sizes the fast-EC load run uses.
var pinDesigns = []struct {
	family        string
	vars, clauses int
}{
	{"par8-1-c", 40, 158},
	{"ii8a1", 46, 129},
	{"jnh201", 30, 180},
	{"f600", 40, 170},
}

// pinCorpus builds the seeded model corpus: fast-EC sub-models built the
// way the CNF engine builds them (a Table-2/Table-3 change step, the
// minimal and full closures, SubFormula, encode.New), the last-rung full
// encoding, and the base, enabling, preserving and fast-EC encodings of
// every domain's conformance fixture.
func pinCorpus(tb testing.TB) []corpusModel {
	tb.Helper()
	var out []corpusModel
	for di, ds := range pinDesigns {
		spec, ok := gen.ByName(ds.family)
		if !ok {
			tb.Fatalf("unknown family %s", ds.family)
		}
		spec.Vars, spec.Clauses = ds.vars, ds.clauses
		f, _ := spec.Generate()
		e := encode.New(f)
		res := ilp.Solve(e.Model, ilp.Options{})
		if res.Status != ilp.Optimal {
			tb.Fatalf("%s: initial solve %s", ds.family, res.Status)
		}
		p := e.Decode(res.Solution)
		mut := gen.NewMutator(int64(101 + di))
		for step := 0; step < 3; step++ {
			var plan gen.MutationPlan
			var err error
			if step%2 == 0 {
				plan, err = mut.Table2Changes(f, p, 1, 3)
			} else {
				plan, err = mut.Table3Changes(f, p, 1, 1, 2, 2)
			}
			if err != nil {
				tb.Fatalf("%s step %d: %v", ds.family, step, err)
			}
			fPrime, err := core.Apply(f, plan.Changes)
			if err != nil {
				tb.Fatalf("%s step %d: %v", ds.family, step, err)
			}
			grown := p.Clone().Grow(fPrime.NumVars)
			for _, pol := range []struct {
				name string
				simp func(*cnf.Formula, cnf.Assignment) core.SimplifyResult
			}{{"minimal", core.SimplifyMinimal}, {"closure", core.Simplify}} {
				simp := pol.simp(fPrime, grown)
				if simp.AlreadySatisfied {
					continue
				}
				sub, varOf := core.SubFormula(fPrime, grown, simp)
				se := encode.New(sub)
				a := cnf.NewAssignment(len(varOf) - 1)
				for cv := 1; cv < len(varOf); cv++ {
					a.Set(cv, grown.Get(varOf[cv]))
				}
				out = append(out, corpusModel{
					name: fmt.Sprintf("cnf/%s/step%d/%s", ds.family, step, pol.name),
					m:    se.Model,
					warm: se.EncodeAssignment(a),
				})
			}
			if step == 2 {
				fe := encode.New(fPrime)
				out = append(out, corpusModel{
					name: fmt.Sprintf("cnf/%s/step%d/full", ds.family, step),
					m:    fe.Model,
					warm: fe.EncodeAssignment(grown),
				})
			}
			next, _, err := domain.Fast(core.CNF(), fPrime, p, domain.FastOptions{})
			if err != nil {
				tb.Fatalf("%s step %d: fast EC: %v", ds.family, step, err)
			}
			f, p = fPrime, next.(cnf.Assignment)
		}
	}
	for _, name := range []string{"cnf", "coloring", "partition", "sched"} {
		out = append(out, domainCorpus(tb, name)...)
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, corpusModel{name: fmt.Sprintf("mixed/%d", seed), m: mixedModel(seed)})
	}
	return out
}

// mixedModel is a seeded random model over the row shapes no encoder
// above produces together: knapsack rows with tied and distinct integer
// weights (cover and clique separation with ties), pairwise packing
// rows, equality rows, negative and repeated coefficients.
func mixedModel(seed int64) *ilp.Model {
	rng := rand.New(rand.NewSource(seed))
	const n = 18
	m := ilp.NewModel(seed%2 == 0)
	for j := 0; j < n; j++ {
		m.AddVar("", float64(rng.Intn(7)-2))
	}
	for i := 0; i < 14; i++ {
		k := 2 + rng.Intn(6)
		coefs := make([]ilp.Coef, 0, k)
		total := 0.0
		for len(coefs) < k {
			w := float64(1 + rng.Intn(4))
			coefs = append(coefs, ilp.Coef{Var: rng.Intn(n), Val: w})
			total += w
		}
		m.AddRow("", coefs, ilp.LE, float64(rng.Intn(int(total))+1))
	}
	for i := 0; i < 8; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		m.AddRow("", []ilp.Coef{{Var: u, Val: 1}, {Var: v, Val: 1}}, ilp.LE, 1)
	}
	for i := 0; i < 3; i++ {
		u, v, w := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		m.AddRow("", []ilp.Coef{{Var: u, Val: 1}, {Var: v, Val: -1}, {Var: w, Val: 2}}, ilp.GE, float64(rng.Intn(2)))
	}
	u, v := rng.Intn(n), rng.Intn(n)
	m.AddRow("", []ilp.Coef{{Var: u, Val: 1}, {Var: v, Val: -1}}, ilp.EQ, 0)
	return m
}

// domainCorpus returns the conformance fixture's encodings of one domain.
func domainCorpus(tb testing.TB, name string) []corpusModel {
	tb.Helper()
	d, ok := domain.Get(name)
	if !ok {
		tb.Fatalf("domain %s not registered", name)
	}
	c := d.(domain.Fixtured).Conformance()
	encode := func(what string) domain.Encoding {
		enc, err := d.Encode(c.Problem)
		if err != nil {
			tb.Fatalf("%s %s: encode: %v", name, what, err)
		}
		return enc
	}
	var out []corpusModel
	out = append(out, corpusModel{name: name + "/base", m: encode("base").ILP()})
	sol, _, err := domain.Solve(d, c.Problem, ilp.Options{}, nil)
	if err != nil {
		tb.Fatalf("%s: solve: %v", name, err)
	}
	en := encode("enable")
	if err := d.EnableTerms(en, c.Problem, c.Enable); err != nil {
		tb.Fatalf("%s: enable terms: %v", name, err)
	}
	out = append(out, corpusModel{name: name + "/enable", m: en.ILP()})
	pr := encode("preserve")
	if err := d.PreserveTerms(pr, c.Problem, sol); err != nil {
		tb.Fatalf("%s: preserve terms: %v", name, err)
	}
	ws, _ := pr.WarmStart(sol)
	out = append(out, corpusModel{name: name + "/preserve", m: pr.ILP(), warm: ws})
	changed, err := d.ApplyChanges(d.CloneProblem(c.Problem), c.Tightening)
	if err != nil {
		tb.Fatalf("%s: apply: %v", name, err)
	}
	region, err := d.AffectedRegion(changed, sol)
	if err != nil {
		tb.Fatalf("%s: region: %v", name, err)
	}
	if region == nil {
		return out
	}
	// Every rung of the region's ladder: the seed region, each Escalate
	// until it stops growing, then the full-instance fallback.
	rung := func(label string) {
		renc, err := region.Encoding()
		if err != nil {
			tb.Fatalf("%s %s: region encoding: %v", name, label, err)
		}
		ws, _ := renc.WarmStart(sol)
		out = append(out, corpusModel{
			name:   name + label,
			m:      renc.ILP(),
			warm:   ws,
			region: fmt.Sprintf("size=%d full=%v rows=%s", region.Size(), region.Full(), rowsDigest(renc.ILP())),
		})
	}
	rung("/fast")
	for i := 1; region.Escalate(); i++ {
		rung(fmt.Sprintf("/fast/esc%d", i))
	}
	region.EscalateToFull()
	rung("/fast/full")
	return out
}

// digest is a short FNV-1a hex digest of the joined parts.
func digest(parts ...string) string {
	h := fnv.New64a()
	for _, s := range parts {
		fmt.Fprintf(h, "%d:", len(s))
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func modelText(tb testing.TB, m *ilp.Model) string {
	var b bytes.Buffer
	if err := ilp.WriteText(&b, m); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// rowsDigest digests m's rows exactly as stored: order, names, senses,
// right-hand sides and coefficient order.
func rowsDigest(m *ilp.Model) string {
	parts := make([]string, 0, m.NumRows())
	for i := 0; i < m.NumRows(); i++ {
		parts = append(parts, fmt.Sprintf("%v", m.RowAt(i)))
	}
	return digest(parts...)
}

func solutionString(s ilp.Solution) string {
	var b strings.Builder
	for _, v := range s {
		b.WriteByte('0' + byte(v))
	}
	return b.String()
}

// TestKernelReductionPins pins, per corpus model, what presolve and cut
// separation hand the search and what the search returns: presolve's
// fixings, dropped-row count and reduced model (order-insensitive
// fingerprint and its rows as stored), the cut keys from a fresh pool and
// from one pool retained across the whole corpus, and Solve's status,
// objective, node count and solution with presolve and cuts on. Any
// speed-up of these layers must leave every line unchanged.
func TestKernelReductionPins(t *testing.T) {
	var b strings.Builder
	retained := ilp.NewCutPool()
	for _, cm := range pinCorpus(t) {
		fmt.Fprintf(&b, "model %s vars=%d rows=%d\n", cm.name, cm.m.NumVars(), cm.m.NumRows())
		if cm.region != "" {
			fmt.Fprintf(&b, "  region %s\n", cm.region)
		}

		fixed, dropped, reduced, infeasible := ilp.PresolveOutcome(cm.m)
		var fx strings.Builder
		for _, v := range fixed {
			if v < 0 {
				fx.WriteByte('-')
			} else {
				fx.WriteByte('0' + byte(v))
			}
		}
		fmt.Fprintf(&b, "  presolve fixed=%s dropped=%d infeasible=%v", fx.String(), dropped, infeasible)
		if reduced != nil {
			fmt.Fprintf(&b, " reduced=%016x rows=%s", ilp.ModelFingerprint(reduced), rowsDigest(reduced))
		}
		b.WriteByte('\n')

		for _, pool := range []struct {
			name string
			p    *ilp.CutPool
		}{{"fresh", ilp.NewCutPool()}, {"retained", retained}} {
			keys, added, reused, freshRows := ilp.SeparateKeys(pool.p, cm.m)
			fmt.Fprintf(&b, "  cuts %s n=%d added=%d reused=%d fresh_rows=%d keys=%s\n",
				pool.name, len(keys), added, reused, freshRows, digest(keys...))
		}

		res := ilp.Solve(cm.m, ilp.Options{Presolve: true, Cuts: true, WarmStart: cm.warm})
		fmt.Fprintf(&b, "  solve status=%s obj=%g nodes=%d presolve_fixed=%d presolve_rows=%d cuts_added=%d sol=%s\n",
			res.Status, res.Objective, res.Nodes, res.PresolveFixed, res.PresolveRows, res.CutsAdded,
			solutionString(res.Solution))
	}
	checkGolden(t, "kernel_pins.txt", []byte(b.String()))
}

// TestSetCoverTextPin pins the LP-format text (variable and row names,
// term order) of the set-cover encoding of the CNF conformance formula.
func TestSetCoverTextPin(t *testing.T) {
	d, _ := domain.Get("cnf")
	f := d.(domain.Fixtured).Conformance().Problem.(*cnf.Formula)
	f = f.Clone()
	f.AddClause(cnf.Clause{1, -2, 1, 3}) // a repeated literal is encoded once
	e := encode.New(f)
	var b strings.Builder
	b.WriteString(modelText(t, e.Model))
	for j := 0; j < e.Model.NumVars(); j++ {
		fmt.Fprintf(&b, "%s ", e.Model.VarName(j))
	}
	b.WriteByte('\n')
	checkGolden(t, "setcover.lp", []byte(b.String()))
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
