package stitch

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/shard"
)

func TestStitchZeroIntraGroupSkew(t *testing.T) {
	in := bench.Intermingled(bench.Small(80, 4), 3, 17)
	res, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eval.CheckTree(res.Root, in); err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	rep := res.Analyze(nil)
	if rep.Sinks != len(in.Sinks) {
		t.Fatalf("reached %d sinks", rep.Sinks)
	}
	// Per-group trees are exact zero-skew; stitching adds only common path.
	if rep.MaxGroupSkew > 1e-6*(1+rep.MaxDelay) {
		t.Errorf("intra-group skew %v", rep.MaxGroupSkew)
	}
	if res.Wirelength <= 0 {
		t.Error("no wire")
	}
	var groupsWire float64
	for _, wlen := range res.GroupWire {
		groupsWire += wlen
	}
	if diff := res.Wirelength - groupsWire - res.StitchWire; diff > 1e-6*res.Wirelength || diff < -1e-6*res.Wirelength {
		t.Errorf("wire accounting: total %v vs groups %v + stitch %v", res.Wirelength, groupsWire, res.StitchWire)
	}
}

func TestStitchWorseThanASTOnIntermingled(t *testing.T) {
	// The thesis's Ch. IV observation: separate trees overlap on
	// intermingled instances, so stitching costs more wire than AST-DME's
	// simultaneous merging. Aggregate over seeds for a stable comparison.
	var stitchSum, astSum float64
	for _, seed := range []int64{1, 2, 3} {
		in := bench.Intermingled(bench.Small(120, seed), 5, seed*7)
		st, err := Build(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ast, err := core.Build(in, core.Options{IntraSkewBound: 10})
		if err != nil {
			t.Fatal(err)
		}
		stitchSum += st.Wirelength
		astSum += ast.Wirelength
	}
	if astSum >= stitchSum {
		t.Errorf("AST-DME %v not below stitch %v on intermingled groups", astSum, stitchSum)
	}
}

func TestStitchFig2Shape(t *testing.T) {
	// Thesis Fig. 2: four collinear sinks, alternating groups. Building
	// per-group trees and stitching wastes wire versus merging neighbors
	// across groups; the thesis quotes savings up to one third.
	in := &ctree.Instance{
		Name: "fig2",
		Sinks: []ctree.Sink{
			{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 10, Group: 0},
			{ID: 1, Loc: geom.Point{X: 100, Y: 0}, CapFF: 10, Group: 1},
			{ID: 2, Loc: geom.Point{X: 200, Y: 0}, CapFF: 10, Group: 0},
			{ID: 3, Loc: geom.Point{X: 300, Y: 0}, CapFF: 10, Group: 1},
		},
		Source:    geom.Point{X: 150, Y: 0},
		NumGroups: 2,
	}
	st, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ast, err := core.Build(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ast.Wirelength >= st.Wirelength {
		t.Fatalf("AST %v not below stitch %v", ast.Wirelength, st.Wirelength)
	}
	saving := (st.Wirelength - ast.Wirelength) / st.Wirelength
	if saving < 0.2 {
		t.Errorf("Fig.2 saving = %.1f%%, want ≥ 20%%", saving*100)
	}
	t.Logf("Fig.2: stitch=%v ast=%v saving=%.1f%%", st.Wirelength, ast.Wirelength, saving*100)
}

// TestStitchGridPairedLargeInstance exercises the stitch baseline at a
// scale where each per-group build (2500 sinks) runs the spatial grid pairer
// through many merge rounds and window rebuilds, far past
// core.GridPairerThreshold: tree structure, per-group zero skew and the
// wire accounting must all hold there.
func TestStitchGridPairedLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	in := bench.Intermingled(bench.Small(5000, 31), 2, 77) // 2500 sinks/group ≥ threshold
	res, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eval.CheckTree(res.Root, in); err != nil {
		t.Fatalf("CheckTree: %v", err)
	}
	rep := res.Analyze(nil)
	if rep.Sinks != len(in.Sinks) {
		t.Fatalf("reached %d sinks", rep.Sinks)
	}
	if rep.MaxGroupSkew > 1e-6*(1+rep.MaxDelay) {
		t.Errorf("intra-group skew %v on grid-paired per-group trees", rep.MaxGroupSkew)
	}
	var groupsWire float64
	for _, wlen := range res.GroupWire {
		groupsWire += wlen
	}
	if diff := math.Abs(res.Wirelength - groupsWire - res.StitchWire); diff > 1e-6*res.Wirelength {
		t.Errorf("wire accounting: total %v vs groups %v + stitch %v", res.Wirelength, groupsWire, res.StitchWire)
	}
}

// TestStitchAgreesWithShardTopLevel is the regression pinning the stitch
// baseline and the sharded pipeline's top-level merge to the same result
// where their contracts coincide: on a single-group instance the stitch
// builds one ZST tree and stitches nothing, and shard.BuildDispatch with one
// shard routes the same tree through core's stitch machinery — wirelength and
// the per-sink delays must agree bitwise with each other and with core.ZST.
func TestStitchAgreesWithShardTopLevel(t *testing.T) {
	in := bench.Small(3000, 13) // one group, above the grid-pairer threshold
	st, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := shard.BuildDispatch(in, core.Options{SingleGroup: true, Shards: 1}, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	zst, err := core.ZST(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sw, zw := math.Float64bits(st.Wirelength), math.Float64bits(zst.Wirelength); sw != zw {
		t.Errorf("stitch wirelength bits 0x%016x != ZST 0x%016x", sw, zw)
	}
	if hw, zw := math.Float64bits(sh.Wirelength), math.Float64bits(zst.Wirelength); hw != zw {
		t.Errorf("shard top-level wirelength bits 0x%016x != ZST 0x%016x", hw, zw)
	}
	m := core.DefaultModel()
	stDelays := eval.Analyze(st.Root, in, m, in.Source).SinkDelay
	shDelays := eval.Analyze(sh.Root, in, m, in.Source).SinkDelay
	for i := range stDelays {
		if stDelays[i] != shDelays[i] {
			t.Fatalf("sink %d delay: stitch %v != shard %v", i, stDelays[i], shDelays[i])
		}
	}
}

func TestStitchSingleGroupEqualsZST(t *testing.T) {
	in := bench.Small(60, 11) // one group
	st, err := Build(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zst, err := core.ZST(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := st.Wirelength - zst.Wirelength; d > 1e-6*zst.Wirelength || d < -1e-6*zst.Wirelength {
		t.Errorf("single group stitch %v != ZST %v", st.Wirelength, zst.Wirelength)
	}
}

func TestStitchRejectsInvalid(t *testing.T) {
	if _, err := Build(&ctree.Instance{Name: "bad", NumGroups: 1}, Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}
