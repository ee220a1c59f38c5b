package ilp_test

import (
	"testing"

	"ilpec/internal/ilp"
)

// BenchmarkFastECSubModel solves fast-EC sub-models of the pin corpus the
// way a session does: presolve, cut separation through a retained pool,
// and search from the engine's warm start. f600 is a closure of 24
// columns and 24 rows, where setup costs as much as search; jnh201 one of
// 56 columns and 212 rows. The presolve-ns, cutsep-ns and search-ns
// metrics split ns/op by layer.
func BenchmarkFastECSubModel(b *testing.B) {
	corpus := pinCorpus(b)
	for _, name := range []string{"cnf/f600/step0/closure", "cnf/jnh201/step2/closure"} {
		var cm *corpusModel
		for i := range corpus {
			if corpus[i].name == name {
				cm = &corpus[i]
			}
		}
		if cm == nil {
			b.Fatalf("corpus has no %s", name)
		}
		b.Run(name, func(b *testing.B) {
			opts := ilp.Options{Presolve: true, Cuts: true, CutPool: ilp.NewCutPool(), WarmStart: cm.warm}
			var pre, cut, search int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := ilp.Solve(cm.m, opts)
				if res.Status != ilp.Optimal {
					b.Fatalf("status %s", res.Status)
				}
				pre += int64(res.PresolveTime)
				cut += int64(res.CutSepTime)
				search += int64(res.SearchTime)
			}
			b.ReportMetric(float64(pre)/float64(b.N), "presolve-ns")
			b.ReportMetric(float64(cut)/float64(b.N), "cutsep-ns")
			b.ReportMetric(float64(search)/float64(b.N), "search-ns")
		})
	}
}
