package core

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
)

// benchResult keeps the benchmarked builds observable, so the compiler
// cannot drop them.
var benchResult *Result

// BenchmarkPairerCrossover measures where PairerAuto should switch engines:
// one op routes eight seeded uniform placements of n sinks with the pairer
// forced to the all-pairs scan or to the grid, for ZST and for AST-DME with
// 4 intermingled groups at the paper's 10 ps bound. GridPairerThreshold is
// the smallest n at which grid beats scan on both. pair_scans is the op's
// counted candidate evaluations.
func BenchmarkPairerCrossover(b *testing.B) {
	for _, alg := range []string{"zst", "ast-k4"} {
		for _, n := range []int{32, 64, 128} {
			ins := make([]*ctree.Instance, 8)
			for s := range ins {
				ins[s] = bench.Small(n, int64(s+1))
				if alg == "ast-k4" {
					ins[s] = bench.Intermingled(ins[s], 4, int64(s+1))
				}
			}
			for _, pm := range []struct {
				name string
				mode PairerMode
			}{{"scan", PairerScan}, {"grid", PairerGrid}} {
				opt := Options{Pairer: pm.mode, IntraSkewBound: 10}
				if alg == "zst" {
					opt = Options{Pairer: pm.mode, SingleGroup: true}
				}
				b.Run(fmt.Sprintf("%s/n=%d/%s", alg, n, pm.name), func(b *testing.B) {
					var scans int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						scans = 0
						for _, in := range ins {
							res, err := Build(in, opt)
							if err != nil {
								b.Fatal(err)
							}
							scans += res.Stats.PairScans
							benchResult = res
						}
					}
					b.ReportMetric(float64(scans), "pair_scans")
				})
			}
		}
	}
}

// BenchmarkPaperRow routes one row of the paper's Table II as the
// experiments run it: r4 (1903 sinks), 4 intermingled groups at the
// grouping seed of experiments.Table, a 10 ps intra-group bound and the
// default (auto) pairer.
func BenchmarkPaperRow(b *testing.B) {
	sp := bench.Suite()[3]
	in := bench.Intermingled(bench.Generate(sp), 4, sp.Seed*1000+4)
	var scans int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Build(in, Options{IntraSkewBound: 10})
		if err != nil {
			b.Fatal(err)
		}
		scans = res.Stats.PairScans
		benchResult = res
	}
	b.ReportMetric(float64(scans), "pair_scans")
}
