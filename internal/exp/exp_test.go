package exp

import (
	"math"
	"strings"
	"testing"
	"time"

	"ilpec/internal/gen"
)

// testProfile selects the experiment scale: the Quick profile normally,
// Short under `go test -short` so CI stays fast.
func testProfile(t *testing.T) Profile {
	t.Helper()
	if testing.Short() {
		return Short()
	}
	return Quick()
}

// pinProfile is the Short scale with no solve time limit: every solve
// runs to optimality, so the pinned columns cannot depend on how fast the
// runner is (a slow or -race runner would otherwise stop solves early).
func pinProfile() Profile {
	p := Short()
	p.ExactTimeLimit = 0
	return p
}

// near compares a pinned table figure.
func near(got, want float64) bool { return math.Abs(got-want) < 1e-6 }

func TestProfiles(t *testing.T) {
	for _, name := range []string{"ci", "quick", "short", "paper", ""} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if p.Scale <= 0 || p.Trials <= 0 {
			t.Fatalf("%q: bad profile %+v", name, p)
		}
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Mean(xs) != 2 || Median(xs) != 2 {
		t.Fatal("stats wrong")
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "bb"}}
	tb.Add("xxx", "1")
	tb.Add("y") // short row tolerated
	s := tb.Render()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "xxx") {
		t.Fatalf("render:\n%s", s)
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1500*time.Millisecond) != "1.50" {
		t.Fatalf("got %q", Seconds(1500*time.Millisecond))
	}
	if Seconds(120*time.Second) != "120" {
		t.Fatal("long format wrong")
	}
	if Seconds(2*time.Millisecond) != "0.0020" {
		t.Fatalf("short format wrong: %q", Seconds(2*time.Millisecond))
	}
}

// TestTable1Quick runs the enabling experiment on the quick profile and
// asserts the paper's qualitative shape: the OF overhead exceeds 1× on
// average (the paper reports 2.62× / 3.31×).
func TestTable1Quick(t *testing.T) {
	res := RunTable1(testProfile(t))
	if len(res.Rows) != len(gen.Small()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	okRows := 0
	for _, r := range res.Rows {
		if r.Err == "" {
			okRows++
			if r.Orig <= 0 {
				t.Fatalf("%s: no original runtime", r.Name)
			}
			if r.SCNorm <= 0 || r.OFNorm <= 0 {
				t.Fatalf("%s: missing normalized runtimes", r.Name)
			}
		}
	}
	if okRows < len(res.Rows)/2 {
		t.Fatalf("too many failed rows: %d/%d ok", okRows, len(res.Rows))
	}
	if res.SmallAvgOF <= 0 {
		t.Fatal("no OF aggregate")
	}
	out := res.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "average") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestTable2Quick asserts the fast-EC shape: sub-instances far smaller
// than the original and tiny normalized re-solve times.
func TestTable2Quick(t *testing.T) {
	res := RunTable2(testProfile(t))
	okRows := 0
	for _, r := range res.Rows {
		if r.Err != "" {
			continue
		}
		okRows++
		if r.AvgVars <= 0 || r.AvgVars >= float64(r.Vars) {
			t.Fatalf("%s: sub vars %v of %d not a reduction", r.Name, r.AvgVars, r.Vars)
		}
		if r.AvgCls >= float64(r.Clauses) {
			t.Fatalf("%s: sub clauses %v of %d", r.Name, r.AvgCls, r.Clauses)
		}
	}
	if okRows == 0 {
		t.Fatal("no successful rows")
	}
	out := res.Render()
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("render:\n%s", out)
	}

	// Pinned sub-instance sizes (Ave. #Vars/Clauses) per row.
	want := map[string][2]float64{
		"par8-1-c@0.04": {9, 18},
		"ii8a1@0.04":    {16, 29},
		"par8-3-c@0.04": {10, 7},
		"jnh201@0.04":   {7, 3},
		"jnh1@0.04":     {19, 41},
		"ii8a2@0.04":    {15, 29},
		"ii8b2@0.04":    {10, 29},
		"f600@0.04":     {3, 1},
	}
	pinned := RunTable2(pinProfile())
	if len(pinned.Rows) != len(want) {
		t.Fatalf("pinned rows = %d, want %d", len(pinned.Rows), len(want))
	}
	for _, r := range pinned.Rows {
		w, ok := want[r.Name]
		if !ok || r.Err != "" || r.Failed != 0 || !near(r.AvgVars, w[0]) || !near(r.AvgCls, w[1]) {
			t.Errorf("%s: %.1f/%.1f failed=%d err=%q, want %.1f/%.1f failed=0",
				r.Name, r.AvgVars, r.AvgCls, r.Failed, r.Err, w[0], w[1])
		}
	}
}

// TestTable3Quick asserts the preserving-EC shape: with-EC preservation
// strictly dominates the plain baseline on average (the paper reports
// 73% → 97%).
func TestTable3Quick(t *testing.T) {
	res := RunTable3(testProfile(t))
	okRows := 0
	for _, r := range res.Rows {
		if r.Err != "" {
			continue
		}
		okRows++
		if r.PctWithEC < r.PctOriginal-1e-9 {
			t.Fatalf("%s: EC %.1f%% below baseline %.1f%%", r.Name, r.PctWithEC, r.PctOriginal)
		}
		if r.PctWithEC < 50 {
			t.Fatalf("%s: suspiciously low EC preservation %.1f%%", r.Name, r.PctWithEC)
		}
	}
	if okRows == 0 {
		t.Fatal("no successful rows")
	}
	if res.AvgEC < res.AvgOrig {
		t.Fatalf("aggregate EC %.1f%% below baseline %.1f%%", res.AvgEC, res.AvgOrig)
	}
	out := res.Render()
	if !strings.Contains(out, "Table 3") {
		t.Fatalf("render:\n%s", out)
	}

	// Pinned % Solution Original → % Solution with EC per row.
	want := map[string][2]float64{
		"par8-1-c@0.04": {68.18181818181817, 100},
		"ii8a1@0.04":    {100, 100},
		"par8-3-c@0.04": {95, 100},
		"jnh201@0.04":   {82.6086956521739, 100},
		"jnh1@0.04":     {75, 100},
		"ii8a2@0.04":    {50, 100},
		"ii8b2@0.04":    {68, 100},
		"f600@0.04":     {75, 100},
	}
	pinned := RunTable3(pinProfile())
	if len(pinned.Rows) != len(want) {
		t.Fatalf("pinned rows = %d, want %d", len(pinned.Rows), len(want))
	}
	for _, r := range pinned.Rows {
		w, ok := want[r.Name]
		if !ok || r.Err != "" || r.Failed != 0 || !near(r.PctOriginal, w[0]) || !near(r.PctWithEC, w[1]) {
			t.Errorf("%s: %.2f%% -> %.2f%% failed=%d err=%q, want %.2f%% -> %.2f%% failed=0",
				r.Name, r.PctOriginal, r.PctWithEC, r.Failed, r.Err, w[0], w[1])
		}
	}
}

func TestFigure2Quick(t *testing.T) {
	rows := RunFigure2(testProfile(t))
	ok := 0
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		ok++
		if r.ClsReduction < 1 {
			t.Fatalf("%s: no clause reduction (%.2f)", r.Name, r.ClsReduction)
		}
	}
	if ok == 0 {
		t.Fatal("no successful rows")
	}
	if !strings.Contains(RenderFigure2(rows), "Figure 2") {
		t.Fatal("render missing title")
	}
}

func TestFigure1Trace(t *testing.T) {
	spec := gen.Scaled(gen.Small()[1], 0.3) // ii8a1 scaled
	steps, err := Figure1Trace(spec, testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d, want 3 (enable, fast, preserving)", len(steps))
	}
	if steps[0].Action != "enable" {
		t.Fatalf("first step %q", steps[0].Action)
	}
	out := RenderFlowSteps(steps)
	if !strings.Contains(out, "Figure 1") {
		t.Fatal("render missing title")
	}
}
