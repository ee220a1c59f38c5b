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
// every SolverX and every XResolve) and whose median ns/op rose by more
// than -threshold (default 20%) AND by more than the observed spread (the
// larger of the two sides' ns/op IQRs) fails the run with exit code 1 —
// the CI bench job's regression gate for solver wall-clock. Benchmarks
// present on only one side are reported but never fail the gate.
//
// The GOMAXPROCS suffix (-8 in BenchmarkFoo-8) is stripped so names are
// stable across runner shapes. A benchmark that appears multiple times
// (-count N) is summarized by its median run, and the interquartile range
// of its ns/op samples is recorded beside it, so the spread stays visible
// instead of being hidden behind the luckiest run.
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

// Metrics is one benchmark's measurement. With several runs, NsPerOp is
// the median run's ns/op (the mean of the middle two for an even count),
// the other fields are that median run's, Samples counts the runs and
// NsPerOpIQR is the interquartile range of their ns/op.
type Metrics struct {
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	NsPerOpIQR  float64  `json:"ns_per_op_iqr,omitempty"`
	Samples     int      `json:"samples,omitempty"`
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
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.0f%% and their spread vs %s\n",
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
// gated benchmarks (name matching match, present on both sides) regressed:
// their median ns/op rose by more than threshold of the baseline's and by
// more than the larger of the two sides' IQRs, so a rise the runs' own
// spread explains does not fail. One-sided benchmarks are informational.
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
		cur := results[name]
		rise := cur.NsPerOp - old.NsPerOp
		spread := max(cur.NsPerOpIQR, old.NsPerOpIQR)
		verdict := "ok"
		if rise > threshold*old.NsPerOp && rise > spread {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "benchjson: %s %s: %.0f ns/op vs baseline %.0f (%+.1f%%, IQR %.0f)\n",
			verdict, name, cur.NsPerOp, old.NsPerOp, rise/old.NsPerOp*100, spread)
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
// are found wherever they appear. Repeated runs of one benchmark are
// summarized by summarize.
func parse(r io.Reader) (map[string]Metrics, error) {
	runs := make(map[string][]Metrics)
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
		runs[name] = append(runs[name], metrics)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	results := make(map[string]Metrics, len(runs))
	for name, rs := range runs {
		results[name] = summarize(rs)
	}
	return results, nil
}

// summarize reduces one benchmark's runs to its median run, with the
// ns/op IQR and the run count when there is more than one run.
func summarize(runs []Metrics) Metrics {
	if len(runs) == 1 {
		return runs[0]
	}
	sort.SliceStable(runs, func(a, b int) bool { return runs[a].NsPerOp < runs[b].NsPerOp })
	ns := make([]float64, len(runs))
	for i, r := range runs {
		ns[i] = r.NsPerOp
	}
	mid := (len(runs) - 1) / 2
	m := runs[mid]
	m.NsPerOp = quantile(ns, 0.5)
	m.NsPerOpIQR = quantile(ns, 0.75) - quantile(ns, 0.25)
	m.Samples = len(runs)
	return m
}

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between the two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
