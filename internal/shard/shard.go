package shard

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ShardInfo describes one routed shard of a sharded run.
type ShardInfo struct {
	// Sinks is the shard's sink count.
	Sinks int
	// Wirelength is the committed wire of the shard's subtree, measured
	// after the stitch: a shard root the stitch resolved jointly (a
	// BuildSubtree root is left deferred for exactly that) commits its edges
	// during the stitch but they are the shard's wire, and sneak elongations
	// the stitch applies to edges inside the shard's subtree are included
	// too. Result.StitchWire is then the wire of the stitch-created nodes
	// alone, so Σ ShardInfo.Wirelength + StitchWire equals the tree wire
	// exactly and StitchWire can never be negative (the accounting test in
	// this package pins both on grouped multi-shard runs).
	Wirelength float64
	// Stats are the shard build's run stats (scans, rebuilds, merges, …).
	Stats core.Stats
}

// Result is a completed sharded routing. The embedded core.Result carries
// the stitched tree and the aggregate stats of every shard plus the stitch.
type Result struct {
	core.Result
	// Shards describes each routed shard in partition order; nil when
	// sharding was off (Options.Shards == 0) and the build was delegated to
	// core.Build unchanged.
	Shards []ShardInfo
	// StitchStats are the top-level stitch's own run stats (also included
	// in the aggregate).
	StitchStats core.Stats
	// StitchWire is the wire committed by the top-level stitch merges: the
	// total tree wire minus the shard subtrees' wire (never negative; see
	// ShardInfo.Wirelength for the attribution rules).
	StitchWire float64
	// Parts is the spatial partition backing the shard records: Parts[i]
	// lists shard i's sink IDs in partition order (shard.Partition output).
	// Nil when sharding was off. Consumers use it to attribute per-sink
	// measurements to shards — e.g. eval.SeamSkew's residual intra-group
	// skew across shard seams.
	Parts [][]int
	// PilotOffsets are the inter-group offsets the pilot offset pass
	// prescribed to every shard and the stitch (the Options.GroupOffsets
	// form: entry g is group g's delay minus group 0's, in ps). Nil when
	// the pilot was off or skipped (single-group instance).
	PilotOffsets []float64
	// PilotSinks is the number of sinks the pilot pass routed (0 = no
	// pilot); PilotStats are that route's run stats. Both are included in
	// the aggregate Result.Stats — the pilot is part of the run's cost —
	// and broken out here so its share is observable.
	PilotSinks int
	PilotStats core.Stats
	// Trace is the run's trace node (Options.Trace echoed back; nil when
	// untraced): top-level spans for the partition/pilot/shards/stitch/
	// finalize phases, with the pilot, each shard build, and the stitch
	// recording into child traces ("pilot", "shard0"…, "stitch").
	Trace *obs.Trace
	// Dispatch sums what fault handling cost across the run's dispatched
	// phases (pilot patches + shard builds): attempts, retries, hedged
	// straggler duplicates, contained panics, injected faults, and — under
	// remote dispatch (dispatch.Options.Remote) — tasks that degraded to
	// the in-process fallback and workers lost to blacklisting. All zero on
	// a fault-free run with no stragglers. The same counters are exported
	// as dispatch_* metrics on Trace.
	Dispatch dispatch.Report
	// Eco is the retained incremental-rebuild contract: the partition, the
	// frozen base registry, the pilot offset contract and every shard's
	// pre-stitch subtree, from which EcoCache.RebuildDispatch re-routes an
	// edited instance by rebuilding only the dirty shards. Nil unless the
	// build retained it (BuildEco) or the result itself came from a rebuild
	// (rebuild results always chain).
	Eco *EcoCache
	// EcoRebuilt lists the shard indices an incremental rebuild re-routed,
	// ascending (nil on a from-scratch build); EcoReused counts the cached
	// subtrees adopted unchanged. The differential tests pin "only dirty
	// shards were rebuilt" on these.
	EcoRebuilt []int
	EcoReused  int
}

// shardOut is one shard execution's product: the built subtree and the
// private registry whose offsets it committed. Both the local runner and
// the remote transport's decoder (remote.go) produce it, so the stitch
// never knows where a shard was routed.
type shardOut struct {
	sub *core.Subtree
	reg *core.Registry
}

// BuildDispatch routes the instance according to opt.Shards: 0 delegates to
// the unsharded core.Build; k ≥ 1 partitions the instance into k shards,
// routes them concurrently against private clones of one frozen offset
// registry, and stitches the shard roots skew-aware with core.MergeRoots.
// Shards = 1 is bitwise-identical to core.Build; Shards > 1 is deterministic
// for fixed (instance, options) regardless of scheduling (see the package
// comment).
//
// opt.Pilot additionally runs the pilot offset pass before the concurrent
// builds: deterministic full-density sink patches (cut by the same
// partitioner, independent of k) are routed unsharded, and the inter-group
// offsets they commit are prescribed to every shard and to the stitch via
// GroupOffsets, so the shards agree on one global offset contract instead
// of committing k contradictory ones (the package comment has the design).
// The pass is skipped on single-group instances, where no inter-group
// offset exists to prescribe.
//
// Sub-builds execute through the internal/dispatch coordinator under the
// policy dopt: a panicking shard or pilot patch surfaces as an error naming
// the phase (never a process crash), contained crashes retry with capped
// backoff, stragglers are hedged first-result-wins, and opt.Ctx cancellation
// propagates into every merge loop. Determinism is unaffected: every
// execution of a sub-build is a pure function of its inputs, so retried and
// hedged runs are bitwise-identical to undisturbed ones. dopt tunes the
// retry budget and backoff, the hedging deadline, the worker cap, fault
// injection (dopt.Faults) and remote workers (dopt.Remote); dopt.Phase and
// dopt.Trace are overridden per pipeline phase ("pilot", "shard"). The zero
// value is the default policy.
func BuildDispatch(in *ctree.Instance, opt core.Options, dopt dispatch.Options) (*Result, error) {
	return buildDispatch(in, opt, dopt, false)
}

// BuildEco is BuildDispatch with contract retention: the result additionally
// carries an EcoCache (partition, frozen base registry, pilot offsets,
// per-shard pre-stitch subtree encodings) from which an edited instance can
// be re-routed incrementally (EcoCache.RebuildDispatch). Retention costs one
// serialization pass over the shard subtrees, so it is opt-in rather than
// the BuildDispatch default. Requires opt.Shards ≥ 1 — the contract is the
// sharded pipeline's, an unsharded build has no partition to reuse.
func BuildEco(in *ctree.Instance, opt core.Options, dopt dispatch.Options) (*Result, error) {
	if opt.Shards <= 0 {
		return nil, fmt.Errorf("shard: eco retention requires Shards ≥ 1 (got %d)", opt.Shards)
	}
	return buildDispatch(in, opt, dopt, true)
}

func buildDispatch(in *ctree.Instance, opt core.Options, dopt dispatch.Options, retain bool) (*Result, error) {
	k := opt.Shards
	if k <= 0 {
		res, err := core.Build(in, opt) // rejects a stray opt.Pilot itself
		if err != nil {
			return nil, err
		}
		return &Result{Result: *res, Trace: opt.Trace}, nil
	}
	tr := opt.Trace
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if k > len(in.Sinks) {
		return nil, fmt.Errorf("shard: %d shards for %d sinks", k, len(in.Sinks))
	}
	if opt.Order.Pairer != nil {
		return nil, fmt.Errorf("shard: Order.Pairer cannot be shared across concurrent shard builds; leave it nil (each build constructs its own engine)")
	}

	// The pilot pass (which runs before GroupOffsets are prescribed below)
	// validates opt.Pilot's flag compatibility through core's option
	// normalization.
	subOpt := subBuildOptions(opt)
	if _, err := core.NewRegistry(in, opt); err != nil {
		return nil, err // surface Pilot/GroupOffsets/… option conflicts early
	}

	partRgn := tr.Begin("partition")
	var parts [][]int
	if err := dispatch.Protect("partition", func() error {
		parts = Partition(in, k)
		return nil
	}); err != nil {
		return nil, err
	}
	partRgn.End()

	res := &Result{Result: core.Result{Options: opt}, Trace: tr}
	if opt.Pilot && in.NumGroups > 1 {
		pilotRgn := tr.Begin("pilot")
		pilotOpt := subOpt
		if tr != nil {
			pilotOpt.Trace = tr.Child("pilot")
		}
		// Protect the pass's serial sections (sampling, median aggregation)
		// too: the dispatcher only contains panics inside patch executions.
		err := dispatch.Protect("pilot", func() error {
			var err error
			res.PilotOffsets, res.PilotStats, res.PilotSinks, res.Dispatch, err = runPilot(in, pilotOpt, dopt)
			return err
		})
		pilotOpt.Trace.Close()
		if err != nil {
			return nil, err
		}
		pilotRgn.Attr("sinks", float64(res.PilotSinks)).End()
		// From here on the offsets are a prescribed contract: the base
		// registry pre-registers them, so every shard's leash and the
		// stitch's enforce the same inter-group alignment.
		subOpt.GroupOffsets = res.PilotOffsets
	}

	base, err := core.NewRegistry(in, subOpt)
	if err != nil {
		return nil, err
	}
	p := pipeline{in: in, parts: parts, subOpt: subOpt, base: base, dirty: seq(k), retain: retain}
	return p.run(res, dopt)
}

// pipeline is the back half of the sharded build — route the dirty shards,
// adopt the clean ones from a cache, retain, stitch, finalize — shared by the
// cold build (every shard dirty, nothing cached) and the incremental rebuild
// (eco.go).
type pipeline struct {
	in     *ctree.Instance
	parts  [][]int
	subOpt core.Options   // sub-build options (subBuildOptions, pilot contract applied)
	base   *core.Registry // the frozen base registry every shard build clones
	dirty  []int          // shard indices to route, ascending
	// from, when non-nil, is the cache every shard outside dirty is adopted
	// from; oldToNew renumbers from.Instance's sink ids onto in's.
	from     *EcoCache
	oldToNew []int
	// retain snapshots every shard's pre-stitch subtree into Result.Eco.
	retain bool
}

// run completes res, which arrives carrying the caller's Options, Trace,
// pilot fields, Dispatch report and Eco bookkeeping. The cold build records
// the spans shards/retain/stitch/finalize, the rebuild
// rebuild/adopt/retain/restitch/finalize.
func (p *pipeline) run(res *Result, dopt dispatch.Options) (*Result, error) {
	tr := res.Trace
	k := len(p.parts)
	routeSpan, stitchSpan := "shards", "stitch"
	if p.from != nil {
		routeSpan, stitchSpan = "rebuild", "restitch"
	}

	// The shard builds go through the dispatch coordinator: each execution
	// (first attempt, retry or hedge alike) clones the frozen base registry
	// privately and routes its shard from scratch — a pure function of
	// (instance, part, options, base), so whichever execution wins, the
	// adopted subtree is bitwise the one the undisturbed build produces.
	routeRgn := tr.Begin(routeSpan).Attr("shards", float64(len(p.dirty)))
	shards := tasks{
		in: p.in, opt: deriveShardOpt(p.subOpt, k), sets: p.parts, ids: p.dirty, label: "shard",
		local: func(sinks []int, so core.Options) (any, error) {
			reg := p.base.Clone() // private view of the frozen base
			sub, err := core.BuildSubtree(p.in, sinks, so, reg)
			if err != nil {
				return nil, err
			}
			return shardOut{sub: sub, reg: reg}, nil
		},
		kind: wire.KindBuild, reg: p.base,
		result: func(br *wire.BuildResult, reg *core.Registry) any {
			return shardOut{sub: &core.Subtree{Root: br.Root, Stats: br.Stats}, reg: reg}
		},
	}
	dopt.Phase = "shard"
	outs, rep, err := shards.run(tr, dopt)
	res.Dispatch.Add(rep)
	routeRgn.End()
	if err != nil {
		return nil, err
	}
	subs := make([]*core.Subtree, k)
	regs := make([]*core.Registry, k)
	for j, i := range p.dirty {
		so := outs[j].(shardOut)
		subs[i], regs[i] = so.sub, so.reg
	}

	// remaps[i] is adopted shard i's cached-blob → in sink-id map (nil for a
	// routed shard). Decoding yields fresh nodes every time, so the cache
	// itself stays reusable.
	remaps := make([][]int, k)
	if p.from != nil {
		adoptRgn := tr.Begin("adopt")
		err := dispatch.Protect("adopt", func() error {
			for i := range subs {
				if subs[i] != nil {
					continue // dirty, freshly built
				}
				var err error
				if subs[i], regs[i], remaps[i], err = p.from.adopt(i, p.in, p.oldToNew, len(p.parts[i])); err != nil {
					return err
				}
			}
			return nil
		})
		adoptRgn.End()
		if err != nil {
			return nil, err
		}
	}
	roots := make([]*ctree.Node, k)
	for i, s := range subs {
		roots[i] = s.Root
	}

	// Contract retention snapshots every shard subtree BEFORE the stitch:
	// MergeRoots adopts the roots and mutates them in place (deferred-root
	// resolution, sneak elongation), so the reusable form only exists here.
	// The blobs are the remote-dispatch result encoding — decoding one is
	// bitwise the build that produced it, which is what lets a later rebuild
	// adopt clean shards without re-routing them. Only routed shards pay an
	// encode: an adopted shard's subtree is untouched geometry, so its cached
	// bytes chain verbatim with the composed renumbering left pending for the
	// next decode.
	// The base registry is snapshotted here too, before the stitch commits
	// offsets into it: a later rebuild's dirty shards and re-stitch must see
	// the registry the shards cloned.
	var blobs [][]byte
	var baseSnap core.RegistrySnapshot
	if p.retain {
		retainRgn := tr.Begin("retain")
		blobs = make([][]byte, k)
		baseSnap = p.base.Snapshot()
		err := dispatch.Protect("retain", func() error {
			for i, s := range subs {
				if remaps[i] != nil {
					blobs[i] = p.from.Blobs[i]
					continue
				}
				br := wire.BuildResult{
					Root:       s.Root,
					Stats:      s.Stats,
					Wirelength: roots[i].Wirelength(),
					Registry:   regs[i].Snapshot(),
				}
				var err error
				if blobs[i], err = br.Encode(); err != nil {
					return err
				}
			}
			return nil
		})
		retainRgn.End()
		if err != nil {
			return nil, err
		}
	}

	// The stitch routes against the frozen base: offsets committed inside a
	// shard are already baked into its root's delay intervals, and the
	// shards' private registries may disagree — the stitch windows are what
	// reconcile them. With a single shard there is nothing to reconcile, so
	// the stitch adopts the shard's own registry, making the whole pipeline
	// (stats included) exactly the unsharded sequence.
	topReg := p.base
	if k == 1 {
		topReg = regs[0]
	}
	stitchRgn := tr.Begin(stitchSpan)
	stitchOpt := p.subOpt
	if tr != nil {
		stitchOpt.Trace = tr.Child("stitch")
	}
	// The stitch is a single serial merge pass on this goroutine; Protect
	// gives it the same containment guarantee as the dispatched builds — a
	// panic surfaces as an error naming the phase, never a crash.
	var top *core.Subtree
	err = dispatch.Protect("stitch", func() error {
		var err error
		top, err = core.MergeRoots(p.in, roots, stitchOpt, topReg)
		return err
	})
	stitchOpt.Trace.Close()
	stitchRgn.End()
	if err != nil {
		return nil, err
	}

	finRgn := tr.Begin("finalize")
	if err := dispatch.Protect("finalize", func() error {
		p.finalize(res, subs, roots, top)
		return nil
	}); err != nil {
		return nil, err
	}
	finRgn.End()
	if !p.retain {
		return res, nil
	}
	res.Eco = &EcoCache{
		Instance:     p.in,
		Opt:          stripLocalOnly(res.Options),
		Parts:        p.parts,
		PilotOffsets: res.PilotOffsets,
		PilotSinks:   res.PilotSinks,
		Blobs:        blobs,
		remaps:       remaps,
		Base:         baseSnap,
	}
	return res, nil
}

// tasks is one dispatched phase of sub-builds: task j routes the sink set
// sets[ids[j]] of in.
type tasks struct {
	in   *ctree.Instance
	opt  core.Options // every execution's options; Ctx and Trace are set per execution
	sets [][]int
	// ids[j] also names task j: it records into the child trace
	// label+ids[j] and runs under the pprof label <phase>=ids[j], so
	// -cpuprofile samples attribute to it.
	ids   []int
	label string
	// local is a task's in-process execution.
	local func(sinks []int, opt core.Options) (any, error)
	// Under dispatch.Options.Remote a task ships as a work unit of this
	// kind over a snapshot of reg, and result maps the decoded worker
	// result onto what local returns for the same task (remote.go).
	kind   int
	reg    *core.Registry
	result func(br *wire.BuildResult, reg *core.Registry) any
}

// run executes the tasks through dispatch.Run under dopt.Phase, with child
// traces of tr. Only a task's first attempt records into its child trace:
// the trace contract is single-goroutine per node, and a retry or hedge may
// race the attempt it replaces, so under faults a child trace shows the
// failed attempt while the metrics-bearing result comes from the winner.
func (ts *tasks) run(tr *obs.Trace, dopt dispatch.Options) ([]any, dispatch.Report, error) {
	traces := make([]*obs.Trace, len(ts.ids))
	local := dispatch.RunnerFunc(func(ctx context.Context, t dispatch.Task) (any, error) {
		o := ts.opt
		o.Ctx = ctx
		o.Trace = nil
		if t.Attempt == 0 {
			o.Trace = traces[t.Index]
		}
		var out any
		var err error
		pprof.Do(ctx, pprof.Labels(dopt.Phase, strconv.Itoa(ts.ids[t.Index])), func(context.Context) {
			out, err = ts.local(ts.sets[ts.ids[t.Index]], o)
		})
		return out, err
	})
	// With a worker pool attached, tasks ship to routeworkers and degrade
	// back to the local runner when the fleet cannot take them (see
	// remote.go); the report picks up the degradation counters after the run
	// drains.
	var runner dispatch.Runner = local
	if dopt.Remote != nil {
		rr, err := ts.remote(dopt, local)
		if err != nil {
			return nil, dispatch.Report{}, err
		}
		runner = rr
	}
	if tr != nil {
		for j, id := range ts.ids {
			traces[j] = tr.Child(ts.label + strconv.Itoa(id))
		}
	}
	dopt.Trace = tr
	outs, rep, err := dispatch.Run(ts.opt.Ctx, len(ts.ids), runner, dopt)
	for _, t := range traces {
		t.Close()
	}
	return outs, rep, err
}

// seq returns the indices 0..n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// subBuildOptions derives the options every sub-build of the sharded
// pipeline starts from: the sub-builds and the stitch route unsharded, and
// pipeline components record into their own child traces while the parent
// trace holds the phase spans and stays on the coordinating goroutine.
func subBuildOptions(opt core.Options) core.Options {
	opt.Shards = 0
	opt.Pilot = false
	opt.Trace = nil
	return opt
}

// deriveShardOpt derives the per-shard build options from the sub-build
// options. For k > 1 the sneak probe is dropped: a Probe is
// single-goroutine, and concurrent shard builds would race on it (the serial
// components — pilot, stitch — still record; runs wanting complete sneak
// capture use Shards ≤ 1). The incremental rebuild routes its dirty shards
// through the same pipeline, so they see exactly the options the original
// shards saw.
func deriveShardOpt(subOpt core.Options, k int) core.Options {
	shardOpt := subOpt
	if k > 1 {
		shardOpt.SneakProbe = nil
	}
	return shardOpt
}

// finalize assembles the Result around the stitched tree: per-shard wire
// attribution, stats aggregation (the pilot's included), dense internal-ID
// renumbering (k > 1) and the source embedding.
func (p *pipeline) finalize(res *Result, subs []*core.Subtree, roots []*ctree.Node, top *core.Subtree) {
	k := len(subs)
	res.Instance, res.Root, res.Parts = p.in, top.Root, p.parts
	res.Shards = make([]ShardInfo, k)
	res.StitchStats = top.Stats
	var agg core.Stats
	agg.AddRun(res.PilotStats) // zero when the pilot was off
	var shardWire float64
	for i, s := range subs {
		w := roots[i].Wirelength()
		res.Shards[i] = ShardInfo{Sinks: len(p.parts[i]), Wirelength: w, Stats: s.Stats}
		shardWire += w
		agg.AddRun(s.Stats)
	}
	agg.AddRun(top.Stats)
	agg.GroupUnions += p.base.PreUnions()
	res.Stats = agg

	if k > 1 {
		// Internal node IDs were assigned per shard (and restart in the
		// stitch); renumber them densely above the sink IDs so IDs are
		// unique within the run, as core.Build guarantees. Shards = 1 takes
		// the unsharded numbering as-is, preserving bitwise identity.
		next := len(p.in.Sinks)
		top.Root.Visit(func(n *ctree.Node) {
			if !n.IsLeaf() {
				n.ID = next
				next++
			}
		})
	}

	treeWire := top.Root.Wirelength()
	res.SourceWire = geom.DistRP(top.Root.Region, geom.ToUV(p.in.Source))
	res.Wirelength = treeWire + res.SourceWire
	res.StitchWire = treeWire - shardWire
	res.Root.Embed(geom.ToUV(p.in.Source))
}
