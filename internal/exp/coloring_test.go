package exp

import (
	"strings"
	"testing"
)

func TestRunColoringQuick(t *testing.T) {
	rows := RunColoring(testProfile(t))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ok := 0
	for _, r := range rows {
		if r.Err != "" {
			continue
		}
		ok++
		// Table-3-style shape on coloring: preserving EC must dominate the
		// plain replan, and the fast region must stay below the graph size.
		if r.PctPreserve < r.PctReplan-1e-9 {
			t.Fatalf("%s: preserving %.1f%% below replan %.1f%%", r.Name, r.PctPreserve, r.PctReplan)
		}
		if r.FastRegion >= float64(r.Vertices) {
			t.Fatalf("%s: fast region %.1f not local", r.Name, r.FastRegion)
		}
		if r.SpareEC < r.SpareBase {
			t.Fatalf("%s: enabling reduced spare coverage %d -> %d", r.Name, r.SpareBase, r.SpareEC)
		}
	}
	if ok == 0 {
		t.Fatal("no successful rows")
	}
	out := RenderColoring(rows)
	if !strings.Contains(out, "Graph coloring") {
		t.Fatalf("render:\n%s", out)
	}

	// Pinned %Fast, %Preserve and fast region per row. The unpinned
	// %Replan column re-colors gc40.5 from scratch, which takes about 10 s
	// with no time limit, so the pin is left to the full (non-short) run.
	if testing.Short() {
		return
	}
	want := map[string][3]float64{
		"gc30.4": {93.33333333333333, 96.66666666666667, 3},
		"gc40.5": {95, 97.5, 3},
	}
	pinned := RunColoring(pinProfile())
	if len(pinned) != len(want) {
		t.Fatalf("pinned rows = %d, want %d", len(pinned), len(want))
	}
	for _, r := range pinned {
		w, ok := want[r.Name]
		if !ok || r.Err != "" || r.Failed != 0 ||
			!near(r.PctFast, w[0]) || !near(r.PctPreserve, w[1]) || !near(r.FastRegion, w[2]) {
			t.Errorf("%s: fast %.2f%% preserve %.2f%% region %.1f failed=%d err=%q, want %.2f%% %.2f%% %.1f failed=0",
				r.Name, r.PctFast, r.PctPreserve, r.FastRegion, r.Failed, r.Err, w[0], w[1], w[2])
		}
	}
}

func TestColoringTimings(t *testing.T) {
	replan, fast, err := ColoringTimings("gc30.4", testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if replan <= 0 || fast <= 0 {
		t.Fatal("timings not measured")
	}
	if _, _, err := ColoringTimings("nope", testProfile(t)); err == nil {
		t.Fatal("expected error for unknown spec")
	}
}
