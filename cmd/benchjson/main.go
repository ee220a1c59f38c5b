// Command benchjson converts `go test -bench` output into a JSON map of
// benchmark name → metrics, for the CI bench artifact (BENCH_PR2.json and
// successors): machine-readable points on the repo's performance
// trajectory that successive PRs can diff.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' ./internal/ilp | benchjson -o BENCH.json
//
// With -compare BASELINE.json the freshly parsed results are also diffed
// against a committed baseline: any benchmark whose name matches the
// -match regular expression (unanchored, as in go test -bench, applied to
// the name without its "Benchmark" prefix; -match 'Solver|Resolve' gates
// every SolverX and every XResolve) and whose ns/op regressed by more than
// -threshold (default 20%) fails the run with exit code 1 — the CI bench
// job's regression gate for solver wall-clock. Benchmarks present on only
// one side are reported but never fail the gate.
//
// The GOMAXPROCS suffix (-8 in BenchmarkFoo-8) is stripped so names are
// stable across runner shapes. Benchmarks that appear multiple times (e.g.
// -count > 1) keep the best (lowest ns/op) run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measurement.
type Metrics struct {
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "baseline JSON to diff against; regressions past -threshold fail")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional ns/op regression vs the baseline")
	match := flag.String("match", "", "only gate benchmarks whose name matches this regular expression")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchjson: reads bench output from stdin; no arguments expected")
		os.Exit(2)
	}
	matchRE, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: bad -match:", err)
		os.Exit(2)
	}
	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer fh.Close()
		w = fh
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare != "" {
		baseline, err := loadBaseline(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		regressions := compareResults(os.Stderr, results, baseline, matchRE, *threshold)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%% vs %s\n",
				regressions, *threshold*100, *compare)
			os.Exit(1)
		}
	}
}

// loadBaseline reads a previously emitted benchjson file.
func loadBaseline(path string) (map[string]Metrics, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var baseline map[string]Metrics
	if err := json.NewDecoder(fh).Decode(&baseline); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return baseline, nil
}

// compareResults reports per-benchmark deltas to w and returns how many
// gated benchmarks (name matching match, present on both sides) regressed
// past the threshold. One-sided benchmarks are informational.
func compareResults(w io.Writer, results, baseline map[string]Metrics, match *regexp.Regexp, threshold float64) int {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		if !match.MatchString(name) {
			continue
		}
		old, ok := baseline[name]
		if !ok {
			fmt.Fprintf(w, "benchjson: %s: new benchmark (no baseline)\n", name)
			continue
		}
		if old.NsPerOp <= 0 {
			continue
		}
		ratio := results[name].NsPerOp / old.NsPerOp
		switch {
		case ratio > 1+threshold:
			fmt.Fprintf(w, "benchjson: REGRESSION %s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n",
				name, results[name].NsPerOp, old.NsPerOp, (ratio-1)*100)
			regressions++
		default:
			fmt.Fprintf(w, "benchjson: ok %s: %.0f ns/op vs baseline %.0f (%+.1f%%)\n",
				name, results[name].NsPerOp, old.NsPerOp, (ratio-1)*100)
		}
	}
	for name := range baseline {
		if !match.MatchString(name) {
			continue
		}
		if _, ok := results[name]; !ok {
			fmt.Fprintf(w, "benchjson: %s: baseline benchmark missing from this run\n", name)
		}
	}
	return regressions
}

// parse extracts benchmark results from go test -bench output. A result
// line is "BenchmarkName[-P] N <value> <unit> [<value> <unit>...]"; custom
// units (e.g. the solver's nodes/sec) are skipped, so B/op and allocs/op
// are found wherever they appear.
func parse(r io.Reader) (map[string]Metrics, error) {
	results := make(map[string]Metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo ... FAIL" status lines
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		var metrics Metrics
		metrics.Iterations = iters
		sawNs := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				ns, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
				}
				metrics.NsPerOp = ns
				sawNs = true
			case "B/op":
				b, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
				}
				metrics.BytesPerOp = &b
			case "allocs/op":
				a, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
				}
				metrics.AllocsPerOp = &a
			}
		}
		if !sawNs {
			continue
		}
		if prev, ok := results[name]; !ok || metrics.NsPerOp < prev.NsPerOp {
			results[name] = metrics
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return results, nil
}
