package main

import (
	"strings"

	"repro/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; the tests hold the two in step.
type metricDef struct {
	name, unit, better string
	// setup marks a per-layer metric measured over the set-ups rather
	// than over the ops.
	setup bool
}

// endToEnd are the metrics of untraced runs: what an astdme user pays per
// op and for set-up, and the wire of the routed output.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s_p50", unit: "s", better: "lower"},
	{name: "cpu_s_p50", unit: "s", better: "lower"},
	{name: "alloc_mb_p50", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "wirelength", unit: "layout_units", better: "lower"},
}

// perLayer are the metrics of traced runs, grouped by the repository's
// modules. Op metrics are medians over the traced ops, set-up metrics
// medians over the set-ups; a layer a workload does not use reads 0.
var perLayer = []metricDef{
	{name: "bench.gen_s", unit: "s", better: "lower", setup: true},
	{name: "instio.read_s", unit: "s", better: "lower", setup: true},
	{name: "instio.json_mb", unit: "MB", better: "lower", setup: true},
	{name: "instio.perturb_s", unit: "s", better: "lower"},

	{name: "shard.partition_s", unit: "s", better: "lower"},
	{name: "shard.pilot_s", unit: "s", better: "lower"},
	{name: "shard.pilot_scans", unit: "count", better: "lower"},
	{name: "shard.shards_s", unit: "s", better: "lower"},
	{name: "shard.shard_route_s_max", unit: "s", better: "lower"},
	{name: "shard.shard_imbalance", unit: "ratio", better: "lower"},
	{name: "shard.stitch_s", unit: "s", better: "lower"},
	{name: "shard.finalize_s", unit: "s", better: "lower"},
	{name: "shard.stitch_wire_frac", unit: "frac", better: "lower"},
	{name: "shard.retain_s", unit: "s", better: "lower", setup: true},
	{name: "shard.eco_dirty_s", unit: "s", better: "lower"},
	{name: "shard.eco_rebuild_s", unit: "s", better: "lower"},
	{name: "shard.eco_restitch_s", unit: "s", better: "lower"},
	{name: "shard.eco_reused_frac", unit: "frac", better: "higher"},

	{name: "dispatch.attempts_per_task", unit: "ratio", better: "lower"},
	{name: "dispatch.retries", unit: "count", better: "lower"},
	{name: "dispatch.hedges", unit: "count", better: "lower"},

	{name: "core.route_s", unit: "s", better: "lower"},
	{name: "core.embed_s", unit: "s", better: "lower"},
	{name: "core.merge_wave_slot_s", unit: "s", better: "lower"},
	{name: "core.merge_wave_idle_frac", unit: "frac", better: "lower"},
	{name: "core.merges", unit: "count", better: "lower"},
	{name: "core.deferred", unit: "count", better: "higher"},
	{name: "core.group_unions", unit: "count", better: "lower"},
	{name: "core.sneak_iters", unit: "count", better: "lower"},
	{name: "core.sneak_events_per_iter", unit: "ratio", better: "higher"},
	{name: "core.sneak_unresolved", unit: "count", better: "lower"},
	{name: "core.rows_over_bound", unit: "count", better: "lower"},
	{name: "core.extbst_s", unit: "s", better: "lower"},
	{name: "core.scan_rows_s", unit: "s", better: "lower"},
	{name: "core.grid_rows_s", unit: "s", better: "lower"},

	{name: "order.pairing_s", unit: "s", better: "lower"},
	{name: "order.pairing_frac", unit: "frac", better: "lower"},
	{name: "order.pair_scans", unit: "count", better: "lower"},
	{name: "order.scans_per_merge", unit: "ratio", better: "lower"},

	{name: "spatial.grid_rebuilds.live_drop", unit: "count", better: "lower"},
	{name: "spatial.grid_rebuilds.edge_clamp", unit: "count", better: "lower"},
	{name: "spatial.grid_rebuilds.scan_rate", unit: "count", better: "lower"},
	{name: "spatial.grid_rebuilds.cell_walk", unit: "count", better: "lower"},
	{name: "spatial.grid_rebuild_s", unit: "s", better: "lower"},

	{name: "wire.unmarshal_s", unit: "s", better: "lower"},
	{name: "wire.marshal_s", unit: "s", better: "lower"},
	{name: "wire.cache_mb", unit: "MB", better: "lower"},
	{name: "wire.bytes_per_sink", unit: "B/sink", better: "lower"},

	{name: "eval.check_s", unit: "s", better: "lower"},
	{name: "eval.analyze_s", unit: "s", better: "lower"},
	{name: "eval.bound_excess_ps", unit: "ps", better: "lower"},

	{name: "obs.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "obs.attributed_frac", unit: "frac", better: "higher"},
}

// phaseSeconds sums a trace's top-level spans by name, in seconds.
func phaseSeconds(t *obs.Trace) map[string]float64 {
	m := map[string]float64{}
	if s := t.Summary(); s != nil {
		for _, p := range s.Phases {
			m[p.Name] += p.MS / 1e3
		}
	}
	return m
}

// walk visits t and every descendant trace.
func walk(t *obs.Trace, f func(*obs.Trace)) {
	f(t)
	for _, c := range t.Children() {
		walk(c, f)
	}
}

func traceMetric(t *obs.Trace, name string) float64 {
	v, _ := t.MetricValue(name)
	return v
}

// setupLayers derives the set-up metrics from one traced set-up: the
// benchmark's spans around generation and instio, and the retain phase of
// the eco workload's retained build.
func setupLayers(root *obs.Trace, r runner) map[string]float64 {
	top := phaseSeconds(root)
	m := map[string]float64{
		"bench.gen_s":    top["gen"],
		"instio.read_s":  top["read"],
		"instio.json_mb": r.jsonMB(),
	}
	for _, c := range root.Children() {
		m["shard.retain_s"] += phaseSeconds(c)["retain"]
	}
	return m
}

// opLayers derives the op metrics of one traced op. root holds the
// benchmark's spans around each public call; each call that takes a trace
// got a child of root labelled like its span, under which the program's
// own spans and counters nest.
func opLayers(root *obs.Trace, out opOut) map[string]float64 {
	m := map[string]float64{}
	for k, v := range out.layers {
		m[k] = v
	}
	top := phaseSeconds(root)
	m["eval.check_s"] = top["check"]
	m["eval.analyze_s"] = top["analyze"]
	m["wire.unmarshal_s"] = top["unmarshal"]
	m["wire.marshal_s"] = top["marshal"]
	m["core.extbst_s"] = top["extbst"]
	m["core.scan_rows_s"] = top["build_scan"]
	m["core.grid_rows_s"] = top["build_grid"]

	// The shard pipeline's phases are the top-level spans of the trace a
	// shard call received; its shard builds are that trace's children.
	var shardRoutes []float64
	for _, c := range root.Children() {
		ph := phaseSeconds(c)
		m["shard.partition_s"] += ph["partition"]
		m["shard.pilot_s"] += ph["pilot"]
		m["shard.shards_s"] += ph["shards"]
		m["shard.stitch_s"] += ph["stitch"] + ph["restitch"]
		m["shard.finalize_s"] += ph["finalize"]
		m["shard.eco_dirty_s"] += ph["dirty"]
		m["shard.eco_rebuild_s"] += ph["rebuild"]
		m["shard.eco_restitch_s"] += ph["restitch"]
		for _, g := range c.Children() {
			switch {
			case g.Label() == "pilot":
				m["shard.pilot_scans"] += traceMetric(g, "pair_scans")
			case strings.HasPrefix(g.Label(), "shard"):
				shardRoutes = append(shardRoutes, phaseSeconds(g)["route"])
			}
		}
	}
	if len(shardRoutes) > 0 {
		var max, sum float64
		for _, s := range shardRoutes {
			sum += s
			if s > max {
				max = s
			}
		}
		m["shard.shard_route_s_max"] = max
		if sum > 0 {
			m["shard.shard_imbalance"] = max / (sum / float64(len(shardRoutes)))
		}
	}

	// Core phases at any depth: unsharded builds, pilot patches, shard
	// builds and stitches all record "route", core.Build also "embed".
	var route, embed float64
	walk(root, func(t *obs.Trace) {
		ph := phaseSeconds(t)
		route += ph["route"]
		embed += ph["embed"]
	})
	m["core.route_s"] = route
	m["core.embed_s"] = embed
	slot := traceMetric(root, obs.MetricWaveSlotNS)
	m["core.merge_wave_slot_s"] = slot / 1e9
	if slot > 0 {
		m["core.merge_wave_idle_frac"] = traceMetric(root, obs.MetricWaveIdleNS) / slot
	}
	pairing := traceMetric(root, obs.MetricPairingNS) / 1e9
	m["order.pairing_s"] = pairing
	if route > 0 {
		m["order.pairing_frac"] = pairing / route
	}
	m["spatial.grid_rebuild_s"] = traceMetric(root, obs.MetricGridRebuildNS) / 1e9

	s := out.stats
	m["core.merges"] = float64(s.Merges)
	m["core.deferred"] = float64(s.Deferred)
	m["core.group_unions"] = float64(s.GroupUnions)
	m["core.sneak_iters"] = float64(s.SneakIters)
	if s.SneakIters > 0 {
		m["core.sneak_events_per_iter"] = float64(s.SneakEvents) / float64(s.SneakIters)
	}
	m["core.sneak_unresolved"] = float64(s.SneakUnresolved)
	m["core.rows_over_bound"] = float64(out.overBound)
	m["order.pair_scans"] = float64(s.PairScans)
	if s.Merges > 0 {
		m["order.scans_per_merge"] = float64(s.PairScans) / float64(s.Merges)
	}
	m["spatial.grid_rebuilds.live_drop"] = float64(s.GridRebuilds.LiveDrop)
	m["spatial.grid_rebuilds.edge_clamp"] = float64(s.GridRebuilds.EdgeClamp)
	m["spatial.grid_rebuilds.scan_rate"] = float64(s.GridRebuilds.ScanRate)
	m["spatial.grid_rebuilds.cell_walk"] = float64(s.GridRebuilds.CellWalk)
	m["eval.bound_excess_ps"] = out.excess

	// Attribution: each top-level span of the op counts whole unless the
	// call it wraps received a child trace, which then counts with the
	// program's own top-level spans only.
	covered := 0.0
	for name, sec := range top {
		kids := 0
		for _, c := range root.Children() {
			if c.Label() == name {
				kids++
				covered += c.Summary().CoveredMS / 1e3
			}
		}
		if kids == 0 {
			covered += sec
		}
	}
	if wall := root.Wall().Seconds(); wall > 0 {
		m["obs.attributed_frac"] = covered / wall
	}
	return m
}
