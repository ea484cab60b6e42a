// Command astdme routes a clock routing instance with one of the
// implemented algorithms and reports wirelength and measured skews.
//
// Usage:
//
//	astdme -algo ast     -in inst.json            # AST-DME (the paper)
//	astdme -algo extbst  -bound 10 -in inst.json  # EXT-BST baseline
//	astdme -algo zst     -in inst.json            # greedy-DME zero skew
//	astdme -algo stitch  -in inst.json            # per-group trees + stitch
//	astdme -algo zst -shards 4 -in inst.json      # sharded routing (internal/shard)
//	astdme -algo ast -shards 4 -pilot -in i.json  # sharded + pilot offset pass
//	astdme -algo ast -svg out.svg -in inst.json   # also render the tree
//	astdme -algo ast -trace out.json -in i.json   # phase trace + provenance
//	astdme -algo ast -timeout 30s -in i.json      # abort the build after 30s
//	astdme -algo zst -shards 4 -chaos 1 -in i.json # fault-injected dispatch
//	astdme -algo ast -shards 4 -workers 127.0.0.1:9301,127.0.0.1:9302 -in i.json
//	                                              # remote shard dispatch
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/profutil"
	"repro/internal/shard"
	"repro/internal/stitch"
	"repro/internal/svgplot"
)

func main() {
	var (
		inPath     = flag.String("in", "", "instance JSON file (required)")
		algo       = flag.String("algo", "ast", "algorithm: ast | extbst | zst | stitch")
		bound      = flag.Float64("bound", 10, "skew bound in ps (extbst: global; ast: intra-group)")
		shards     = flag.Int("shards", 0, "spatial shards routed concurrently and stitched (0 = off; ast/extbst/zst only)")
		pilot      = flag.Bool("pilot", false, "pilot offset pass: pre-commit the inter-group offset contract and prescribe it to every shard (ast with -shards only)")
		svgPath    = flag.String("svg", "", "write an SVG rendering of the embedded tree")
		regions    = flag.Bool("regions", false, "draw merging regions in the SVG (requires -svg)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		tracePath  = flag.String("trace", "", "write a JSON phase trace (spans, metrics, provenance) to this file (ast/extbst/zst only)")
		timeout    = flag.Duration("timeout", 0, "abort the build after this long, e.g. 30s (ast/extbst/zst only; 0 = unbounded)")
		chaosSeed  = flag.Int64("chaos", 0, "seeded fault injection into the shard dispatcher: panics, transient errors, stragglers (requires -shards; the routed tree stays bitwise identical)")
		workers    = flag.String("workers", "", "comma-separated routeworker addresses (host:port) to ship shard and pilot builds to (requires -shards; degrades to in-process on fleet loss)")
		cachePath  = flag.String("cache", "", "incremental-rebuild contract file: a sharded ast build writes it, -eco reads it and writes the chained contract back (requires -shards with -in, or -eco)")
		ecoPath    = flag.String("eco", "", "edit-script JSON (instio edits): incrementally re-route the cached instance from -cache instead of building from -in")
	)
	flag.Parse()
	if *inPath == "" && *ecoPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Flag-combination validation: refuse contradictory flags instead of
	// silently ignoring one of them.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, cliFlags{
		Algo:    *algo,
		Shards:  *shards,
		Pilot:   *pilot,
		Timeout: *timeout,
		Trace:   *tracePath,
		Workers: *workers,
		Cache:   *cachePath,
		Eco:     *ecoPath,
	}); err != nil {
		fatal(err)
	}

	stopProf, err := profutil.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()
	var in *ctree.Instance
	var ecoCache *shard.EcoCache
	if *ecoPath != "" {
		// The instance comes out of the cached contract, not -in.
		blob, err := os.ReadFile(*cachePath)
		if err != nil {
			fatal(err)
		}
		if ecoCache, err = shard.UnmarshalEcoCache(blob); err != nil {
			fatal(err)
		}
		in = ecoCache.Instance
	} else {
		if in, err = instio.LoadInstance(*inPath); err != nil {
			fatal(err)
		}
	}
	if *pilot && in.NumGroups < 2 {
		// shard.BuildDispatch would skip the pass (nothing to prescribe);
		// refuse the silently ignored flag like every other contradictory
		// combination.
		fatal(fmt.Errorf("-pilot prescribes inter-group offsets, but %s has a single group; drop -pilot", in.Name))
	}

	// Construct the trace immediately before the routing work so its wall
	// time is the time being attributed (nil when -trace is off: the whole
	// pipeline then runs on the zero-cost disabled path).
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.New("astdme")
		tr.SetProvenance(obs.CollectProvenance())
	}

	// -timeout maps to context cancellation: the merge loops check the
	// deadline once per round and unwind with a cancellation error.
	ctx := context.Background()
	if *timeout > 0 {
		var cancelBuild context.CancelFunc
		ctx, cancelBuild = context.WithTimeout(ctx, *timeout)
		defer cancelBuild()
	}
	var dopt dispatch.Options
	if set["chaos"] {
		n := *shards
		if n < 5 {
			n = 5 // the pilot phase dispatches up to 5 patch routes
		}
		plan := dispatch.SeededPlan(*chaosSeed, n, 2*time.Millisecond, "pilot", "shard")
		if *workers != "" {
			// Remote chaos also exercises the transport: seeded connection
			// drops and corrupted responses at the same (phase, task,
			// attempt) coordinates, all surfacing transient.
			plan = plan.Merge(dispatch.SeededNetPlan(*chaosSeed, n, "pilot", "shard"))
		}
		dopt.Faults = plan
	}
	var pool *dispatch.WorkerPool
	if *workers != "" {
		pool, err = dispatch.NewWorkerPool(strings.Split(*workers, ","), dispatch.PoolOptions{})
		if err != nil {
			fatal(err)
		}
		defer pool.Close()
		dopt.Remote = pool
	}

	var root *ctree.Node
	var wirelen float64
	var sharded *shard.Result
	switch {
	case *ecoPath != "":
		script, err := instio.LoadEdits(*ecoPath)
		if err != nil {
			fatal(err)
		}
		res, err := ecoCache.RebuildDispatch(script, shard.RebuildOptions{Trace: tr, Ctx: ctx}, dopt)
		if err != nil {
			fatal(buildFailure(err, *timeout))
		}
		in = res.Instance // the edited instance; everything below reports against it
		root, wirelen, sharded = res.Root, res.Wirelength, res
		fmt.Printf("stats: %v\n", res.Stats)
		fmt.Printf("eco:              %d edits, %d of %d shards rebuilt (%d reused)\n",
			len(script.Edits), len(res.EcoRebuilt), len(res.Shards), res.EcoReused)
		// Chain the contract: the next ECO rebuilds against the edited
		// instance without ever paying a full build.
		blob, err := res.Eco.Marshal()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*cachePath, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("cache:            %s (chained, %d bytes)\n", *cachePath, len(blob))
	case *algo == "ast":
		opt := core.Options{IntraSkewBound: *bound, Shards: *shards, Pilot: *pilot, Trace: tr, Ctx: ctx}
		var res *shard.Result
		if *cachePath != "" {
			res, err = shard.BuildEco(in, opt, dopt)
		} else {
			res, err = shard.BuildDispatch(in, opt, dopt)
		}
		if err != nil {
			fatal(buildFailure(err, *timeout))
		}
		root, wirelen, sharded = res.Root, res.Wirelength, res
		fmt.Printf("stats: %v\n", res.Stats)
		if *cachePath != "" {
			blob, err := res.Eco.Marshal()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*cachePath, blob, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("cache:            %s (%d bytes)\n", *cachePath, len(blob))
		}
	case *algo == "extbst":
		res, err := shard.BuildDispatch(in, core.Options{SingleGroup: true, GlobalBound: *bound, Shards: *shards, Trace: tr, Ctx: ctx}, dopt)
		if err != nil {
			fatal(buildFailure(err, *timeout))
		}
		root, wirelen, sharded = res.Root, res.Wirelength, res
	case *algo == "zst":
		res, err := shard.BuildDispatch(in, core.Options{SingleGroup: true, Shards: *shards, Trace: tr, Ctx: ctx}, dopt)
		if err != nil {
			fatal(buildFailure(err, *timeout))
		}
		root, wirelen, sharded = res.Root, res.Wirelength, res
	case *algo == "stitch":
		res, err := stitch.Build(in, stitch.Options{IntraSkewBound: *bound})
		if err != nil {
			fatal(err)
		}
		root, wirelen = res.Root, res.Wirelength
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	checkRgn := tr.Begin("check")
	if err := eval.CheckTree(root, in); err != nil {
		fatal(fmt.Errorf("tree validation failed: %w", err))
	}
	checkRgn.End()
	rep := eval.AnalyzeTraced(tr, root, in, core.DefaultModel(), in.Source)
	tr.Close()
	fmt.Printf("instance:         %s (%d sinks, %d groups)\n", in.Name, len(in.Sinks), in.NumGroups)
	fmt.Printf("algorithm:        %s\n", *algo)
	fmt.Printf("wirelength:       %.0f\n", wirelen)
	fmt.Printf("global skew:      %.2f ps\n", rep.GlobalSkew)
	fmt.Printf("max group skew:   %.2f ps\n", rep.MaxGroupSkew)
	fmt.Printf("delay range:      %.1f .. %.1f ps\n", rep.MinDelay, rep.MaxDelay)
	if sharded != nil && len(sharded.Shards) > 0 {
		fmt.Printf("shards:           %d (stitch wire %.0f)\n", len(sharded.Shards), sharded.StitchWire)
		// Seam skew is the grouped sharded-quality metric; single-group
		// modes (zst/extbst) never promise it, so reporting it there would
		// present a meaningless regression.
		if *algo == "ast" && len(sharded.Parts) > 1 && in.NumGroups > 1 {
			_, seam := eval.SeamSkew(rep, in, sharded.Parts)
			fmt.Printf("seam group skew:  %.2f ps\n", seam)
		}
		if sharded.PilotSinks > 0 {
			fmt.Printf("pilot:            %d sinks routed, %d scans, offsets", sharded.PilotSinks, sharded.PilotStats.PairScans)
			for _, o := range sharded.PilotOffsets {
				fmt.Printf(" %.2f", o)
			}
			fmt.Println()
		}
		for i, si := range sharded.Shards {
			fmt.Printf("  shard %d:        %d sinks, wire %.0f, scans %d, rebuilds %d\n",
				i, si.Sinks, si.Wirelength, si.Stats.PairScans, si.Stats.GridRebuilds.Total())
		}
		if d := sharded.Dispatch; d.Retries+d.Hedges+d.PanicsRecovered+d.FaultsInjected+d.RemoteFallbacks+d.WorkersLost > 0 {
			fmt.Printf("dispatch:         %d retries, %d hedges, %d panics recovered, %d faults injected\n",
				d.Retries, d.Hedges, d.PanicsRecovered, d.FaultsInjected)
		}
		if pool != nil {
			d := sharded.Dispatch
			fmt.Printf("remote:           %d workers (%d healthy), %d fallbacks, %d lost\n",
				pool.Workers(), pool.Healthy(), d.RemoteFallbacks, d.WorkersLost)
		}
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fatal(err)
		}
		opt := svgplot.Options{Title: fmt.Sprintf("%s / %s", in.Name, *algo), ShowRegions: *regions}
		if err := svgplot.Render(f, root, in, opt); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("svg:              %s\n", *svgPath)
	}

	if tr != nil {
		if err := obs.WriteJSONFile(*tracePath, tr); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:            %s\n", *tracePath)
		fmt.Printf("phases:           %s\n", tr.Report())
	}
}

// cliFlags carries the parsed flag values validateFlags cross-checks
// (set-ness travels separately, in the visit map, because several rules
// distinguish "explicitly given" from "default value").
type cliFlags struct {
	Algo    string
	Shards  int
	Pilot   bool
	Timeout time.Duration
	Trace   string
	Workers string
	Cache   string
	Eco     string
}

// validateFlags refuses contradictory flag combinations instead of silently
// ignoring one of them. Extracted from main so the rejection matrix is unit
// testable.
func validateFlags(set map[string]bool, f cliFlags) error {
	// The eco rules run first: with -eco, the cached contract owns the
	// sharding configuration, so its rejections name the actual conflict
	// rather than a generic sharding rule firing on a flag eco refuses
	// anyway.
	if set["eco"] {
		if f.Eco == "" {
			return fmt.Errorf("-eco needs an edit-script file")
		}
		if f.Cache == "" {
			return fmt.Errorf("-eco rebuilds against a cached contract and requires -cache (write one with -algo ast -shards N -cache file)")
		}
		if set["in"] {
			return fmt.Errorf("-eco routes the instance stored in the cached contract; drop -in")
		}
		if f.Algo != "ast" {
			return fmt.Errorf("-eco rebuilds a cached ast routing and requires -algo ast")
		}
		if set["shards"] || set["pilot"] {
			return fmt.Errorf("-shards and -pilot are fixed by the cached contract; drop them with -eco")
		}
		if set["chaos"] {
			return fmt.Errorf("-chaos is not supported with -eco yet; inject faults through a from-scratch sharded build")
		}
	}
	if set["cache"] && f.Eco == "" {
		if f.Cache == "" {
			return fmt.Errorf("-cache needs a file path")
		}
		if f.Algo != "ast" {
			return fmt.Errorf("-cache retains an incremental-rebuild contract for ast routings; -algo %s cannot write one", f.Algo)
		}
		if f.Shards == 0 {
			return fmt.Errorf("-cache retains per-shard subtrees and requires -shards ≥ 1")
		}
	}
	if set["regions"] && !set["svg"] {
		return fmt.Errorf("-regions draws into the SVG rendering and requires -svg")
	}
	if f.Shards > 0 && f.Algo == "stitch" {
		return fmt.Errorf("-shards applies to the core router (ast/extbst/zst); the stitch baseline builds per-group trees and cannot shard")
	}
	if set["bound"] && f.Algo == "zst" {
		return fmt.Errorf("-bound is meaningless for zst (exact zero skew); drop it or use -algo extbst")
	}
	if f.Trace != "" && f.Algo == "stitch" {
		return fmt.Errorf("-trace records the core router's phase timings (ast/extbst/zst); the stitch baseline is untraced")
	}
	if f.Pilot {
		if f.Algo != "ast" {
			return fmt.Errorf("-pilot aligns inter-group offsets across shards and requires -algo ast (%s has no groups to align)", f.Algo)
		}
		if f.Shards == 0 {
			return fmt.Errorf("-pilot requires -shards ≥ 1 (the pilot pass exists to align shard builds)")
		}
	}
	if set["timeout"] {
		if f.Timeout <= 0 {
			return fmt.Errorf("-timeout must be positive (got %v); drop it to run unbounded", f.Timeout)
		}
		if f.Algo == "stitch" {
			return fmt.Errorf("-timeout cancels the core router's merge loop (ast/extbst/zst); the stitch baseline does not observe it")
		}
	}
	if set["chaos"] && f.Shards == 0 {
		return fmt.Errorf("-chaos injects faults into the shard dispatcher and requires -shards ≥ 1")
	}
	if set["workers"] {
		if f.Workers == "" {
			return fmt.Errorf("-workers needs at least one host:port address")
		}
		if f.Shards == 0 && f.Eco == "" {
			return fmt.Errorf("-workers ships shard builds to routeworkers and requires -shards ≥ 1")
		}
	}
	return nil
}

// buildFailure maps a deadline-driven cancellation onto a one-line
// diagnosis naming the flag that armed it; every other error passes through.
func buildFailure(err error, timeout time.Duration) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("build cancelled after %s (-timeout)", timeout)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "astdme:", err)
	os.Exit(1)
}
