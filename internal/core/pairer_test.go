package core

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/order"
	"repro/internal/spatial"
)

// statsEqualModuloScans compares run stats ignoring the pairing-engine
// bookkeeping — PairScans and GridRebuilds — which legitimately differs
// between the oracle and the grid (that difference is the whole point of
// the grid). Everything the merge bodies produce must agree exactly.
func statsEqualModuloScans(a, b Stats) bool {
	a.PairScans, b.PairScans = 0, 0
	a.GridRebuilds, b.GridRebuilds = spatial.RebuildStats{}, spatial.RebuildStats{}
	return a == b
}

// TestGridPairerDifferentialZST: forcing the spatial grid pairer must
// reproduce the all-pairs oracle's zero-skew tree exactly — same wirelength
// bit for bit, same merge statistics — on a seeded (tie-free) instance, for
// both merging strategies.
func TestGridPairerDifferentialZST(t *testing.T) {
	in := bench.Small(700, 21)
	for _, st := range []order.Strategy{order.Multi, order.Greedy} {
		opts := func(pm PairerMode) Options {
			return Options{Pairer: pm, Order: order.Config{Strategy: st}}
		}
		scan, err := ZST(in, opts(PairerScan))
		if err != nil {
			t.Fatal(err)
		}
		grid, err := ZST(in, opts(PairerGrid))
		if err != nil {
			t.Fatal(err)
		}
		if scan.Wirelength != grid.Wirelength {
			t.Errorf("strategy %v: wirelength %v (scan) != %v (grid)", st, scan.Wirelength, grid.Wirelength)
		}
		if !statsEqualModuloScans(scan.Stats, grid.Stats) {
			t.Errorf("strategy %v: stats differ:\n scan: %v\n grid: %v", st, scan.Stats, grid.Stats)
		}
		if grid.Stats.PairScans <= 0 || scan.Stats.PairScans <= 0 {
			t.Errorf("strategy %v: pair scans not recorded (scan=%d grid=%d)",
				st, scan.Stats.PairScans, grid.Stats.PairScans)
		}
		if grid.Stats.PairScans >= scan.Stats.PairScans {
			t.Errorf("strategy %v: grid scans %d not below oracle scans %d",
				st, grid.Stats.PairScans, scan.Stats.PairScans)
		}
		rep := eval.Analyze(grid.Root, in, DefaultModel(), in.Source)
		if rep.GlobalSkew > 1e-6 {
			t.Errorf("strategy %v: grid tree skew %v, want 0", st, rep.GlobalSkew)
		}
	}
}

// TestGridPairerDifferentialAST extends the differential to full AST-DME
// with sink groups: the snaking-aware merge key still dominates the
// distance, so the grid must remain exact.
func TestGridPairerDifferentialAST(t *testing.T) {
	base := bench.Small(400, 33)
	for _, grouping := range []string{"clustered", "intermingled"} {
		var in = bench.Clustered(base, 4)
		if grouping == "intermingled" {
			in = bench.Intermingled(base, 4, 99)
		}
		for _, st := range []order.Strategy{order.Multi, order.Greedy} {
			opts := func(pm PairerMode) Options {
				return Options{IntraSkewBound: 0, Pairer: pm, Order: order.Config{Strategy: st}}
			}
			scan, err := Build(in, opts(PairerScan))
			if err != nil {
				t.Fatal(err)
			}
			grid, err := Build(in, opts(PairerGrid))
			if err != nil {
				t.Fatal(err)
			}
			if scan.Wirelength != grid.Wirelength {
				t.Errorf("%s/%v: wirelength %v (scan) != %v (grid)",
					grouping, st, scan.Wirelength, grid.Wirelength)
			}
			if !statsEqualModuloScans(scan.Stats, grid.Stats) {
				t.Errorf("%s/%v: stats differ:\n scan: %v\n grid: %v", grouping, st, scan.Stats, grid.Stats)
			}
		}
	}
	// The paper's regime, where PairerAuto picks the grid: r1 (267 sinks)
	// at a 10 ps bound, intermingled at the grouping seeds of
	// experiments.Table, plus its EXT-BST row. The sneak pass (with sneak
	// events at k=4), group unions and deferred merges all fire here, so
	// every merge-body path sees the grid's pairs. Auto must be the grid,
	// scan for scan.
	sp := bench.Suite()[0]
	r1 := bench.Generate(sp)
	rows := []struct {
		name  string
		in    *ctree.Instance
		opt   Options
		paths bool // the sneak pass, unions and deferral must all fire
	}{
		{"r1/k=4", bench.Intermingled(r1, 4, sp.Seed*1000+4), Options{IntraSkewBound: 10}, true},
		{"r1/k=10", bench.Intermingled(r1, 10, sp.Seed*1000+10), Options{IntraSkewBound: 10}, true},
		{"r1/EXT-BST", r1, Options{SingleGroup: true, GlobalBound: 10}, false},
	}
	for _, row := range rows {
		res := map[PairerMode]*Result{}
		for _, pm := range []PairerMode{PairerScan, PairerGrid, PairerAuto} {
			opt := row.opt
			opt.Pairer = pm
			r, err := Build(row.in, opt)
			if err != nil {
				t.Fatal(err)
			}
			res[pm] = r
		}
		scan, grid, auto := res[PairerScan], res[PairerGrid], res[PairerAuto]
		if math.Float64bits(scan.Wirelength) != math.Float64bits(grid.Wirelength) {
			t.Errorf("%s: wirelength %v (scan) != %v (grid)", row.name, scan.Wirelength, grid.Wirelength)
		}
		if !statsEqualModuloScans(scan.Stats, grid.Stats) {
			t.Errorf("%s: stats differ:\n scan: %v\n grid: %v", row.name, scan.Stats, grid.Stats)
		}
		if auto.Stats != grid.Stats || math.Float64bits(auto.Wirelength) != math.Float64bits(grid.Wirelength) {
			t.Errorf("%s: auto is not the grid:\n auto: %v\n grid: %v", row.name, auto.Stats, grid.Stats)
		}
		if grid.Stats.PairScans >= scan.Stats.PairScans {
			t.Errorf("%s: grid scans %d not below oracle scans %d", row.name, grid.Stats.PairScans, scan.Stats.PairScans)
		}
		if st := scan.Stats; row.paths && (st.SneakIters == 0 || st.GroupUnions == 0 || st.Deferred == 0) {
			t.Errorf("%s: regime not exercised: sneak iters=%d unions=%d deferred=%d",
				row.name, st.SneakIters, st.GroupUnions, st.Deferred)
		}
	}
}

// TestPairerAutoSelection: auto mode must keep the oracle under the
// threshold and under key modes the grid cannot prune exactly, and take the
// grid from the threshold on.
func TestPairerAutoSelection(t *testing.T) {
	if GridPairerThreshold != 64 {
		t.Errorf("GridPairerThreshold = %d, want the measured crossover 64", GridPairerThreshold)
	}
	b := &builder{opt: Options{}}
	if b.useGridPairer(GridPairerThreshold, false) != true {
		t.Error("auto at threshold: want grid")
	}
	if b.useGridPairer(bench.Suite()[0].Sinks, false) != true {
		t.Error("auto on the smallest paper circuit: want grid")
	}
	if b.useGridPairer(GridPairerThreshold-1, false) != false {
		t.Error("auto below threshold: want scan")
	}
	if b.useGridPairer(GridPairerThreshold, true) != false {
		t.Error("auto with user key: want scan")
	}
	b = &builder{opt: Options{DelayTargetBias: 0.5}}
	if b.useGridPairer(1<<20, false) != false {
		t.Error("auto with delay bias: want scan (key may drop below distance)")
	}
	b = &builder{opt: Options{Pairer: PairerGrid}}
	if b.useGridPairer(10, false) != true {
		t.Error("forced grid: want grid")
	}
	b = &builder{opt: Options{Pairer: PairerScan}}
	if b.useGridPairer(1<<20, false) != false {
		t.Error("forced scan: want scan")
	}
	// Below the threshold auto routes on the oracle, scan for scan.
	small := bench.Small(GridPairerThreshold-1, 4)
	auto, err := ZST(small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scan, err := ZST(small, Options{Pairer: PairerScan})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Stats != scan.Stats {
		t.Errorf("auto below threshold is not the oracle:\n auto: %v\n scan: %v", auto.Stats, scan.Stats)
	}
	// Forcing the grid together with the biased key is unsound and must be
	// refused outright rather than silently mis-pruned.
	_, err = Build(bench.Small(20, 4), Options{Pairer: PairerGrid, DelayTargetBias: 0.5})
	if err == nil {
		t.Error("PairerGrid + DelayTargetBias: want error, got nil")
	}
}
