// Benchmark harness regenerating every table and figure of the thesis's
// evaluation:
//
//	BenchmarkTableI    — Table I rows (clustered sink groups)
//	BenchmarkTableII   — Table II rows (intermingled sink groups)
//	BenchmarkEXTBST    — the EXT-BST baseline rows of both tables
//	BenchmarkFig1      — zero-skew vs bounded-skew trade-off (Fig. 1)
//	BenchmarkFig2      — stitch vs simultaneous merging (Fig. 2)
//	BenchmarkAblation  — design-choice ablations (order, deferral, offsets)
//	BenchmarkSpiceLite — transient validation of the delay model (Ch. III)
//	BenchmarkSubstrate — micro-benchmarks of the geometry/delay kernels
//
// Wirelength, reduction versus EXT-BST, and measured skews are attached as
// benchmark metrics, so `go test -bench=. -benchmem` reproduces the numbers
// ROADMAP.md open item 1 compares against the thesis (absolute CPU differs
// from the thesis's 2006 hardware; shapes are the comparison target).
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rctree"
	"repro/internal/shard"
	"repro/internal/spicelite"
)

// benchCircuits returns the circuits exercised by table benchmarks: the full
// r1–r5 suite, or r1–r2 under -short.
func benchCircuits(b *testing.B) []bench.Spec {
	if testing.Short() {
		return bench.Suite()[:2]
	}
	return bench.Suite()
}

// extBaseline routes the EXT-BST row for a circuit (memoized per circuit).
var extCache = map[string]*core.Result{}

func extBaseline(b *testing.B, sp bench.Spec) *core.Result {
	if res, ok := extCache[sp.Name]; ok {
		return res
	}
	res, err := core.EXTBST(bench.Generate(sp), experiments.EXTBoundPs, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	extCache[sp.Name] = res
	return res
}

func benchTable(b *testing.B, grouping experiments.Grouping) {
	for _, sp := range benchCircuits(b) {
		base := bench.Generate(sp)
		ext := extBaseline(b, sp)
		for _, k := range experiments.GroupCounts {
			b.Run(fmt.Sprintf("%s/k=%d", sp.Name, k), func(b *testing.B) {
				var in *ctree.Instance
				if grouping == experiments.Clustered {
					in = bench.Clustered(base, k)
				} else {
					in = bench.Intermingled(base, k, sp.Seed*1000+int64(k))
				}
				var res *core.Result
				var err error
				for i := 0; i < b.N; i++ {
					res, err = core.Build(in, core.Options{IntraSkewBound: experiments.ASTIntraBoundPs})
					if err != nil {
						b.Fatal(err)
					}
				}
				rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
				b.ReportMetric(res.Wirelength, "wirelen")
				b.ReportMetric(100*(ext.Wirelength-res.Wirelength)/ext.Wirelength, "reduction%")
				b.ReportMetric(rep.GlobalSkew, "maxskew_ps")
				b.ReportMetric(rep.MaxGroupSkew, "groupskew_ps")
			})
		}
	}
}

// BenchmarkTableI regenerates the AST-DME rows of thesis Table I.
func BenchmarkTableI(b *testing.B) { benchTable(b, experiments.Clustered) }

// BenchmarkTableII regenerates the AST-DME rows of thesis Table II.
func BenchmarkTableII(b *testing.B) { benchTable(b, experiments.Intermingled) }

// BenchmarkEXTBST regenerates the EXT-BST baseline rows of both tables.
func BenchmarkEXTBST(b *testing.B) {
	for _, sp := range benchCircuits(b) {
		b.Run(sp.Name, func(b *testing.B) {
			in := bench.Generate(sp)
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = core.EXTBST(in, experiments.EXTBoundPs, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
			b.ReportMetric(res.Wirelength, "wirelen")
			b.ReportMetric(rep.GlobalSkew, "maxskew_ps")
		})
	}
}

// BenchmarkFig1 regenerates the zero-skew versus bounded-skew comparison of
// thesis Fig. 1 (pathlength model).
func BenchmarkFig1(b *testing.B) {
	var res *experiments.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig1(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ZSTWire, "zst_wire")
	b.ReportMetric(res.BSTWire, "bst_wire")
	b.ReportMetric(res.BSTSkew, "bst_skew")
}

// BenchmarkFig2 regenerates the stitch-versus-AST comparison of thesis
// Fig. 2 on an intermingled instance.
func BenchmarkFig2(b *testing.B) {
	var res *experiments.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig2(200, 4, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.StitchWire, "stitch_wire")
	b.ReportMetric(res.ASTWire, "ast_wire")
	b.ReportMetric(res.SavingPct, "saving%")
}

// BenchmarkAblation measures the design-choice ablations of
// experiments.Ablations on one intermingled circuit.
func BenchmarkAblation(b *testing.B) {
	in := bench.Intermingled(bench.Small(300, 3), 6, 77)
	for _, ab := range experiments.Ablations() {
		b.Run(ab.Name, func(b *testing.B) {
			var wire, skew, gskew float64
			var err error
			for i := 0; i < b.N; i++ {
				wire, skew, gskew, err = experiments.RunAblation(in, ab)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(wire, "wirelen")
			b.ReportMetric(skew, "maxskew_ps")
			b.ReportMetric(gskew, "groupskew_ps")
		})
	}
}

// BenchmarkSpiceLite measures the transient RC validation used for the
// Ch. III delay-model argument.
func BenchmarkSpiceLite(b *testing.B) {
	in := bench.Small(60, 5)
	res, err := core.ZST(in, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var sim *spicelite.Result
	for i := 0; i < b.N; i++ {
		sim, err = spicelite.Simulate(res.Root, in, spicelite.Params{
			ROhmPerUnit: 0.1, CFFPerUnit: 0.02,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	rep := eval.Analyze(res.Root, in, core.DefaultModel(), in.Source)
	b.ReportMetric(sim.Skew(), "transient_skew_ps")
	b.ReportMetric(rep.GlobalSkew, "elmore_skew_ps")
}

// BenchmarkOrderScaling measures end-to-end zero-skew routing with the
// all-pairs oracle pairer versus the spatial grid pairer (internal/spatial)
// at increasing sink counts, on both uniform and power-law-clustered
// placements, plus the sharded pipeline (internal/shard) over the grid at
// 4 shards — single-group, and grouped (intermingled 4 groups) with the
// pilot offset pass, the sharded-quality configuration whose seam skew the
// scale sweeps track. wirelen must agree between scan and grid at equal n
// (the differential tests pin exact equality); the sharded variants trade a
// small wirelength increase for partition concurrency (the differential
// tests pin skew, seam and envelope). pair_scans records the pairing work
// the grid makes sub-quadratic. Under -short only the smallest size runs
// (the CI smoke); the full run includes the 10k-sink instance backing the
// ≥10× speedup target.
func BenchmarkOrderScaling(b *testing.B) {
	sizes := []int{1000, 10000}
	if testing.Short() {
		sizes = []int{1000}
	}
	for _, dist := range []string{"uniform", "powerlaw"} {
		for _, n := range sizes {
			var in *ctree.Instance
			if dist == "uniform" {
				in = bench.Small(n, 9)
			} else {
				in = bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, 9)
			}
			grouped := bench.Intermingled(in, 4, 9000+int64(n))
			for _, pc := range []struct {
				name   string
				mode   core.PairerMode
				shards int
				groups bool
			}{
				{"scan", core.PairerScan, 0, false},
				{"grid", core.PairerGrid, 0, false},
				{"grid-sh4", core.PairerGrid, 4, false},
				{"grid-sh4-g4p", core.PairerGrid, 4, true},
			} {
				b.Run(fmt.Sprintf("%s/n=%d/pairer=%s", dist, n, pc.name), func(b *testing.B) {
					b.ReportAllocs()
					bin, opt := in, core.Options{SingleGroup: true, Pairer: pc.mode, Shards: pc.shards}
					if pc.groups {
						bin = grouped
						opt = core.Options{Pairer: pc.mode, Shards: pc.shards, Pilot: true}
					}
					var res *shard.Result
					var err error
					for i := 0; i < b.N; i++ {
						res, err = shard.Build(bin, opt)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(res.Wirelength, "wirelen")
					b.ReportMetric(float64(res.Stats.PairScans), "pair_scans")
					if pc.groups {
						rep := eval.Analyze(res.Root, bin, core.DefaultModel(), bin.Source)
						_, seam := eval.SeamSkew(rep, bin, res.Parts)
						b.ReportMetric(seam, "seam_skew_ps")
						b.ReportMetric(float64(res.PilotSinks), "pilot_sinks")
					}
				})
			}
		}
	}
}

// TestRouteAllocBudget bounds the allocations of a full 10k-sink zero-skew
// grid route, so allocation regressions on the large-instance hot path fail
// CI instead of surfacing as silent slowdowns. The flat sorted-slice delay
// representation plus the slab-backed grid buckets route 10k sinks in ~300
// allocations (arena, slab chunks, queue and grid bootstrap); the budgets
// leave headroom while staying far below the ~27k the map-based delay
// bookkeeping needed. AllocsPerRun pins GOMAXPROCS to 1, so the count
// excludes goroutine fan-out and is stable across CI machines.
//
// Three variants per distribution:
//   - untraced (Options.Trace == nil): pins the zero-cost-when-disabled
//     contract of internal/obs — the nil-trace no-op path must not add a
//     single allocation over the pre-obs baseline.
//   - traced: the same route with a preconstructed Trace attached. All span
//     storage lives in the arena allocated by NewWithCap (outside the
//     measured closure), so enabling tracing may add only the handful of
//     bookkeeping allocations the builder makes for probe scratch.
//   - cancellation-armed: the same route under a live cancellable context
//     (Options.Ctx set). The per-round done-channel poll must be
//     allocation-free, so arming -timeout-style cancellation shares the
//     untraced budget exactly.
func TestRouteAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		budgetUntraced = 400 // observed ~300; tracing disabled must stay here
		budgetTraced   = 600 // arena preallocated: small fixed overhead only
	)
	for _, dist := range []string{"uniform", "powerlaw"} {
		var in *ctree.Instance
		if dist == "uniform" {
			in = bench.Small(10000, 9)
		} else {
			in = bench.PowerLaw(10000, bench.PowerLawClusters, bench.PowerLawAlpha, 9)
		}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := core.ZST(in, core.Options{Pairer: core.PairerGrid}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s 10k route: %.0f allocs untraced", dist, allocs)
		if allocs > budgetUntraced {
			t.Errorf("%s 10k route allocations = %.0f, budget %d", dist, allocs, budgetUntraced)
		}

		// Traces are single-use (Close freezes them), so construct a fresh
		// arena per run; AllocsPerRun measures only the closure body, and the
		// arena is charged here deliberately — the budget proves it is the
		// dominant cost of enabling tracing.
		tracedAllocs := testing.AllocsPerRun(1, func() {
			tr := obs.NewWithCap("alloc-budget", 64)
			if _, err := core.ZST(in, core.Options{Pairer: core.PairerGrid, Trace: tr}); err != nil {
				t.Fatal(err)
			}
			tr.Close()
		})
		t.Logf("%s 10k route: %.0f allocs traced", dist, tracedAllocs)
		if tracedAllocs > budgetTraced {
			t.Errorf("%s 10k traced route allocations = %.0f, budget %d", dist, tracedAllocs, budgetTraced)
		}

		ctx, cancelRoute := context.WithCancel(context.Background())
		ctxAllocs := testing.AllocsPerRun(1, func() {
			if _, err := core.ZST(in, core.Options{Pairer: core.PairerGrid, Ctx: ctx}); err != nil {
				t.Fatal(err)
			}
		})
		cancelRoute()
		t.Logf("%s 10k route: %.0f allocs cancellation-armed", dist, ctxAllocs)
		if ctxAllocs > budgetUntraced {
			t.Errorf("%s 10k cancellation-armed route allocations = %.0f, budget %d", dist, ctxAllocs, budgetUntraced)
		}
	}
}

// BenchmarkSubstrate micro-benchmarks the geometry and delay kernels every
// merge exercises.
func BenchmarkSubstrate(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rects := make([]geom.Rect, 256)
	octs := make([]geom.Octagon, 256)
	for i := range rects {
		p := geom.Point{X: r.Float64() * 1e5, Y: r.Float64() * 1e5}
		q := geom.Point{X: p.X + r.Float64()*1e3, Y: p.Y + r.Float64()*1e3}
		rects[i] = geom.Union(geom.RectFromPoint(p), geom.RectFromPoint(q))
		octs[i] = geom.SDR(geom.RectFromPoint(p), geom.RectFromPoint(q),
			geom.Dist(p, q), 0, geom.Dist(p, q))
	}
	b.Run("DistOO", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += geom.DistOO(octs[i%256], octs[(i+7)%256])
		}
		_ = sink
	})
	b.Run("SDR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, c := rects[i%256], rects[(i+9)%256]
			d := geom.DistRR(a, c)
			_ = geom.SDR(a, c, d, 0, d)
		}
	})
	b.Run("ClosestPoints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = geom.ClosestPoints(octs[i%256], octs[(i+3)%256])
		}
	})
	m := rctree.NewElmore(0.1, 0.02)
	b.Run("Balance", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			mg := rctree.Balance(m, 1000+float64(i%100), 50, 200, 60, 300)
			sink += mg.Ea
		}
		_ = sink
	})
}
