package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ilpec/internal/domain"
)

// spec is the part of BENCHMARK.json the runner must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one tiny-size workload and decodes its result line.
func runTiny(t *testing.T, workload, workDir string, seed, trace string) (result, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.05",
		"--trace", trace, "--size", "tiny", "--workdir", workDir}, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if last := lines[len(lines)-1]; last != "" {
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("%s: result line %q: %v", workload, last, err)
		}
	}
	return res, errOut.String(), code
}

// TestMetricsMatchBenchmarkJSON runs every workload at tiny size, plain
// and traced, and checks that the printed metric names and units are
// exactly those BENCHMARK.json declares, that every answer verified, and
// that no solve was truncated.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			for _, tc := range []struct {
				trace string
				want  []struct {
					Name string `json:"name"`
					Unit string `json:"unit"`
				}
			}{{"0", s.EndToEnd}, {"1", s.PerLayer}} {
				res, stderr, code := runTiny(t, w.Name, dir, "7", tc.trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%s: exit %d, result %+v\n%s", tc.trace, code, res, stderr)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("trace=%s: printed %d metrics, BENCHMARK.json declares %d", tc.trace, len(res.Metrics), len(tc.want))
				}
				for _, m := range tc.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%s: metric %s not printed", tc.trace, m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("trace=%s: metric %s unit %q, BENCHMARK.json says %q", tc.trace, m.Name, got.Unit, m.Unit)
					}
				}
				if tc.trace == "0" {
					for _, m := range []string{"verified_frac", "complete_frac"} {
						if res.Metrics[m].Value != 1 {
							t.Errorf("%s = %v, want 1", m, res.Metrics[m].Value)
						}
					}
				} else if v := res.Metrics["ilp.truncated_solves"].Value; v != 0 {
					t.Errorf("ilp.truncated_solves = %v, want 0", v)
				}
			}
		})
	}
}

// TestDeterminismGateAcrossRuns runs a seed twice in one work directory
// (the second run compares against the first run's record) and then
// plants a record with a wrong count, which must fail the run and name
// the counter.
func TestDeterminismGateAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if res, stderr, code := runTiny(t, "fast-ec", dir, "3", "0"); code != 0 || !res.Correct {
			t.Fatalf("run %d: exit %d, result %+v\n%s", i, code, res, stderr)
		}
	}
	id, err := programID()
	if err != nil {
		t.Fatal(err)
	}
	path := gateRecordPath(config{workload: "fast-ec", seed: 3, tiny: true, workDir: dir, program: id})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]counters
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec["0"]["solver_runs"] += "0"
	raw, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, stderr, code := runTiny(t, "fast-ec", dir, "3", "0")
	if code == 0 || res.Correct {
		t.Fatalf("a changed work count passed the gate: exit %d, result %+v", code, res)
	}
	if !strings.Contains(stderr, "counter solver_runs") {
		t.Errorf("gate failure does not name the counter:\n%s", stderr)
	}
}

// TestDeterminismGateKeyedByProgram checks that a record left by one
// program is not compared with the counts of another (a rebuilt or
// changed runner), while the same program's record still is.
func TestDeterminismGateKeyedByProgram(t *testing.T) {
	cfg := config{workload: "fast-ec", seed: 3, tiny: true, workDir: t.TempDir(), program: "parent"}
	counts := func(runs string) map[int]counters {
		c := counters{}
		for _, k := range gateCounters {
			c[k] = "1"
		}
		c["solver_runs"] = runs
		return map[int]counters{0: c}
	}
	if err := checkGateRecord(cfg, counts("10")); err != nil {
		t.Fatal(err)
	}
	changed := cfg
	changed.program = "change"
	if err := checkGateRecord(changed, counts("7")); err != nil {
		t.Errorf("another program's record was compared: %v", err)
	}
	if err := checkGateRecord(cfg, counts("7")); err == nil || !strings.Contains(err.Error(), "counter solver_runs") {
		t.Errorf("the same program's changed count passed the gate: %v", err)
	}
}

// TestTimedDomainsForwardOptionalInterfaces checks that the traced run's
// adapter decorators keep every optional interface of the adapters they
// wrap, so the traced run executes the same program.
func TestTimedDomainsForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, name := range domain.Names() {
		inner, _ := domain.Get(name)
		wrapped, ok := tr.domains.Get(name)
		if !ok {
			t.Fatalf("domain %s missing from the traced registry", name)
		}
		_, innerDelta := inner.(domain.DeltaEncoder)
		_, wrappedDelta := wrapped.(domain.DeltaEncoder)
		if innerDelta != wrappedDelta {
			t.Errorf("domain %s: DeltaEncoder %v, decorated %v", name, innerDelta, wrappedDelta)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}
