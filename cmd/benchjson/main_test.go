package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ilpec/internal/ilp
cpu: AMD EPYC 7B13
BenchmarkSolverSetCover-8       	     100	    123456 ns/op	  813508 nodes/sec	    2345 B/op	      67 allocs/op
BenchmarkSolverSetCoverLarge-8  	       5	 234567890.5 ns/op	  999999 B/op	    1234 allocs/op
BenchmarkSolverPacked-8         	     200	     55555 ns/op
BenchmarkSolverWarmStart        	      50	     777.25 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ilpec/internal/ilp	4.2s
`

func TestParse(t *testing.T) {
	results, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(results), results)
	}
	sc := results["SolverSetCover"]
	if sc.Iterations != 100 || sc.NsPerOp != 123456 {
		t.Fatalf("SolverSetCover %+v", sc)
	}
	if sc.AllocsPerOp == nil || *sc.AllocsPerOp != 67 || sc.BytesPerOp == nil || *sc.BytesPerOp != 2345 {
		t.Fatalf("SolverSetCover allocs/bytes %+v", sc)
	}
	// No -benchmem columns → nil, omitted from JSON.
	if p := results["SolverPacked"]; p.AllocsPerOp != nil || p.BytesPerOp != nil {
		t.Fatalf("SolverPacked %+v should have no alloc columns", p)
	}
	// Fractional ns/op and no GOMAXPROCS suffix both parse.
	if w := results["SolverWarmStart"]; w.NsPerOp != 777.25 {
		t.Fatalf("SolverWarmStart %+v", w)
	}
	if l := results["SolverSetCoverLarge"]; l.NsPerOp != 234567890.5 {
		t.Fatalf("SolverSetCoverLarge %+v", l)
	}
}

func TestParseMedianAndIQR(t *testing.T) {
	in := `BenchmarkX-8   10   200 ns/op   20 B/op   2 allocs/op
BenchmarkX-8   10   100 ns/op   10 B/op   1 allocs/op
BenchmarkX-8   10   500 ns/op   50 B/op   5 allocs/op
BenchmarkX-8   10   300 ns/op   30 B/op   3 allocs/op
BenchmarkX-8   10   400 ns/op   40 B/op   4 allocs/op
BenchmarkY-8   10   100 ns/op
BenchmarkY-8   10   400 ns/op
BenchmarkZ-8   10   700 ns/op
`
	results, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Five runs: the median run is the 300 ns/op one, and the quartiles
	// are the 200 and 400 runs.
	x := results["X"]
	if x.NsPerOp != 300 || x.NsPerOpIQR != 200 || x.Samples != 5 {
		t.Fatalf("X = %+v, want median 300, IQR 200 over 5 samples", x)
	}
	if x.BytesPerOp == nil || *x.BytesPerOp != 30 || x.AllocsPerOp == nil || *x.AllocsPerOp != 3 {
		t.Fatalf("X keeps %v B/op, %v allocs/op; want the median run's 30 and 3", x.BytesPerOp, x.AllocsPerOp)
	}
	// Two runs: the median is their mean, the IQR half their distance.
	if y := results["Y"]; y.NsPerOp != 250 || y.NsPerOpIQR != 150 || y.Samples != 2 {
		t.Fatalf("Y = %+v, want median 250, IQR 150 over 2 samples", y)
	}
	// One run: no spread is recorded, and the JSON omits it.
	if z := results["Z"]; z.NsPerOp != 700 || z.NsPerOpIQR != 0 || z.Samples != 0 {
		t.Fatalf("Z = %+v, want the single run", z)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok\n")); err == nil {
		t.Fatal("no-benchmark input accepted")
	}
}

func TestCompareResults(t *testing.T) {
	baseline := map[string]Metrics{
		"SolverSetCover": {NsPerOp: 1000},
		"SolverPacked":   {NsPerOp: 1000},
		"SolverGone":     {NsPerOp: 1000},
		"ParseOnly":      {NsPerOp: 1000},
	}
	results := map[string]Metrics{
		"SolverSetCover": {NsPerOp: 1100}, // +10%: within the gate
		"SolverPacked":   {NsPerOp: 1500}, // +50%: regression
		"SolverNew":      {NsPerOp: 9999}, // no baseline: informational
		"ParseOnly":      {NsPerOp: 9000}, // filtered out by -match Solver
	}
	var buf strings.Builder
	n := compareResults(&buf, results, baseline, regexp.MustCompile("Solver"), 0.20)
	if n != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", n, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSION SolverPacked") {
		t.Fatalf("missing regression line:\n%s", out)
	}
	if strings.Contains(out, "ParseOnly") {
		t.Fatalf("-match filter leaked:\n%s", out)
	}
	if !strings.Contains(out, "SolverNew: new benchmark") || !strings.Contains(out, "SolverGone: baseline benchmark missing") {
		t.Fatalf("one-sided benchmarks not reported:\n%s", out)
	}
	// Everything within threshold: gate passes.
	if n := compareResults(io.Discard, baseline, baseline, regexp.MustCompile(""), 0.20); n != 0 {
		t.Fatalf("identical runs regressed: %d", n)
	}
}

// TestCompareResultsSpread: a rise past the threshold fails only when it
// also exceeds the observed IQR, the larger of the two sides'.
func TestCompareResultsSpread(t *testing.T) {
	baseline := map[string]Metrics{
		"SolverA": {NsPerOp: 1000},
		"SolverB": {NsPerOp: 1000},
		"SolverC": {NsPerOp: 1000, NsPerOpIQR: 600},
		"SolverD": {NsPerOp: 1000, NsPerOpIQR: 100},
	}
	results := map[string]Metrics{
		"SolverA": {NsPerOp: 1500, NsPerOpIQR: 400}, // +500 > 20% and > IQR 400
		"SolverB": {NsPerOp: 1500, NsPerOpIQR: 700}, // +500 within this run's IQR
		"SolverC": {NsPerOp: 1500, NsPerOpIQR: 100}, // +500 within the baseline's IQR
		"SolverD": {NsPerOp: 1150, NsPerOpIQR: 10},  // +150 > IQR but within 20%
	}
	var buf strings.Builder
	n := compareResults(&buf, results, baseline, regexp.MustCompile("Solver"), 0.20)
	out := buf.String()
	if n != 1 || !strings.Contains(out, "REGRESSION SolverA") {
		t.Fatalf("regressions = %d, want only SolverA\n%s", n, out)
	}
	for _, want := range []string{"ok SolverB", "ok SolverC", "ok SolverD"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

// TestCompareResultsCIPattern runs the CI bench gate's exact -match
// pattern: it is an alternation, so it must gate both the Solver*
// benchmarks and the *Resolve ones.
func TestCompareResultsCIPattern(t *testing.T) {
	const ciMatch = "Solver|Resolve" // .github/workflows/ci.yml, bench job
	baseline := map[string]Metrics{
		"SolverCutsOn":    {NsPerOp: 1000},
		"SolverSetCover":  {NsPerOp: 1000},
		"InstanceResolve": {NsPerOp: 1000},
		"ScratchResolve":  {NsPerOp: 1000},
		"PresolvePass":    {NsPerOp: 1000},
	}
	results := map[string]Metrics{
		"SolverCutsOn":    {NsPerOp: 64000}, // 64x: regression
		"SolverSetCover":  {NsPerOp: 1050},
		"InstanceResolve": {NsPerOp: 1300}, // +30%: regression
		"ScratchResolve":  {NsPerOp: 900},
		"PresolvePass":    {NsPerOp: 5000}, // not gated
	}
	var buf strings.Builder
	n := compareResults(&buf, results, baseline, regexp.MustCompile(ciMatch), 0.20)
	out := buf.String()
	if n != 2 {
		t.Fatalf("regressions = %d, want 2\n%s", n, out)
	}
	for _, want := range []string{"REGRESSION SolverCutsOn", "REGRESSION InstanceResolve", "ok ScratchResolve", "ok SolverSetCover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "PresolvePass") {
		t.Fatalf("ungated benchmark reported:\n%s", out)
	}
}
