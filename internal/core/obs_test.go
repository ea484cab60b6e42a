package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// TestTracedBuildBitwiseIdentical: tracing is purely observational — a
// traced build (with a sneak probe armed) reproduces the untraced build
// exactly.
func TestTracedBuildBitwiseIdentical(t *testing.T) {
	in := bench.Intermingled(bench.Small(400, 3), 4, 11)
	opt := Options{IntraSkewBound: 0}
	plain, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Trace = obs.New("test")
	opt.SneakProbe = obs.NewProbe("sneak", 4096, 4096*in.NumGroups)
	traced, err := Build(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Wirelength != plain.Wirelength {
		t.Fatalf("traced wirelength %v != untraced %v", traced.Wirelength, plain.Wirelength)
	}
	if traced.Stats != plain.Stats {
		t.Fatalf("traced stats %+v != untraced %+v", traced.Stats, plain.Stats)
	}
	sameTree(t, "traced@", plain.Root, traced.Root)
}

// TestTracedBuildRecordsPhasesAndMetrics: a traced Build records the route
// and embed spans and exports every Stats field as a metric.
func TestTracedBuildRecordsPhasesAndMetrics(t *testing.T) {
	in := bench.Intermingled(bench.Small(600, 5), 4, 13)
	tr := obs.New("test")
	res, err := Build(in, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()

	s := tr.Summary()
	names := map[string]bool{}
	for _, p := range s.Phases {
		names[p.Name] = true
	}
	if !names["route"] || !names["embed"] {
		t.Fatalf("top-level phases missing route/embed: %+v", s.Phases)
	}

	// Stats export by reflection: spot-check scalar and nested names.
	if v, ok := tr.MetricValue("merges"); !ok || int(v) != res.Stats.Merges {
		t.Fatalf("merges metric = %v, %v; want %d", v, ok, res.Stats.Merges)
	}
	if v, ok := tr.MetricValue("pair_scans"); !ok || int64(v) != res.Stats.PairScans {
		t.Fatalf("pair_scans metric = %v, %v; want %d", v, ok, res.Stats.PairScans)
	}
	if _, ok := tr.MetricValue("grid_rebuilds_live_drop"); !ok {
		t.Fatal("nested GridRebuilds fields not exported")
	}
	if _, ok := tr.MetricValue("sneak_iters"); !ok {
		t.Fatal("sneak_iters not exported")
	}
	if _, ok := tr.MetricValue(obs.MetricPairingNS); !ok {
		t.Fatal("pairing_ns not recorded")
	}
}

// TestTracedRouteRecordsStarvedPairs: a traced route exports how many pairs
// the queue's anti-starvation rule forced, next to pairing_ns. Forced pairs
// are routine on power-law placements, so a 20k-sink ZST route must report
// some; the count stays out of Stats.
func TestTracedRouteRecordsStarvedPairs(t *testing.T) {
	in := bench.PowerLaw(20_000, bench.PowerLawClusters, bench.PowerLawAlpha, 2)
	tr := obs.New("test")
	if _, err := Build(in, Options{SingleGroup: true, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	v, ok := tr.MetricValue(obs.MetricStarvedPairs)
	if !ok || v <= 0 {
		t.Fatalf("%s metric = %v, %v; want > 0", obs.MetricStarvedPairs, v, ok)
	}
	t.Logf("%s = %v", obs.MetricStarvedPairs, v)
}

// TestSneakProbeRecordsIterations: on an instance known to sneak (the
// probe's reason to exist), the armed probe sees window evaluations and the
// recorded offsets vector spans every group.
func TestSneakProbeRecordsIterations(t *testing.T) {
	in := bench.Intermingled(bench.Small(300, 9), 6, 17)
	p := obs.NewProbe("sneak", 1<<14, (1<<14)*in.NumGroups)
	res, err := Build(in, Options{SneakProbe: p})
	if err != nil {
		t.Fatal(err)
	}
	ev := p.Events()
	if len(ev) == 0 {
		t.Fatal("probe recorded nothing")
	}
	var windows, sneaks int
	for _, e := range ev {
		switch e.Label {
		case "window":
			windows++
			if len(e.Vals) != in.NumGroups {
				t.Fatalf("window event offsets len %d, want %d groups", len(e.Vals), in.NumGroups)
			}
		case "sneak", "revert":
			sneaks++
			if e.Wire <= 0 {
				t.Fatalf("%s event with non-positive wire %v", e.Label, e.Wire)
			}
		default:
			t.Fatalf("unknown probe label %q", e.Label)
		}
	}
	if windows == 0 {
		t.Fatal("no window evaluations recorded")
	}
	// SneakIters counts gap-closing iterations; each applied one records a
	// "sneak" (or "revert") event unless the plan/budget aborted first, so
	// iterations bound the sneak events from above.
	if res.Stats.SneakIters < sneaks {
		t.Fatalf("SneakIters %d < recorded sneak events %d", res.Stats.SneakIters, sneaks)
	}
	if res.Stats.SneakEvents > 0 && sneaks == 0 {
		t.Fatalf("build sneaked %d times but the probe saw none", res.Stats.SneakEvents)
	}
}
