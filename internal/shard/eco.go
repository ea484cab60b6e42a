package shard

// Incremental (ECO) rerouting. A retained sharded build (BuildEco) leaves
// behind an EcoCache: the partition, the frozen base registry with the pilot
// offset contract baked in, and every shard's pre-stitch subtree in the
// remote-dispatch result encoding. RebuildDispatch applies an edit script
// (move/reload/add/remove sinks) to the cached instance, derives the dirty
// shard set from the cached partition — an edited sink dirties the shard
// that owns it; an added sink dirties the shard of its nearest surviving
// neighbor, found through an incrementally patched spatial index over the
// sink placements — and runs the cold build's back half (pipeline in
// shard.go) with ONLY the dirty shards routed: retry, hedging, panic
// containment and remote workers apply unchanged. Clean shards are adopted
// from the cache by decoding their blobs and remapping leaf identity to the
// edited instance; all roots are then re-stitched with MergeRoots against a
// fresh reconstruction of the frozen base, i.e. under the cached pilot
// contract, so the rebuilt tree keeps the from-scratch build's inter-group
// alignment (seam skew at float noise) without re-running the pilot.
//
// The contract is sound because a sub-build is a pure function of
// (instance, sink subset, options, frozen registry): a clean shard's sinks
// are untouched by the edit script, its options and registry are cached, so
// the decoded subtree is bitwise the subtree a from-scratch build of the
// edited instance would produce for that shard. What the contract cannot
// absorb — edits that empty a shard or leave no sink to anchor an addition —
// surfaces as ErrFullBuild; edits that empty a group are rejected by
// EditScript.Apply outright. Every rebuild result chains: it carries a new
// EcoCache for the edited instance, so ECO sequences compound without ever
// paying a full build.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/geom"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/spatial"
	"repro/internal/wire"
)

// ErrFullBuild marks an edit script the cached contract cannot absorb
// incrementally (an emptied shard, or no surviving sink to anchor an added
// one). Callers should fall back to a from-scratch BuildEco of the edited
// instance; errors.Is recognizes the sentinel through the wrapping detail.
var ErrFullBuild = errors.New("shard: edits invalidate the cached contract; run a full build")

// EcoCache is a retained incremental-rebuild contract (see the file
// comment). It is produced by BuildEco and by every rebuild, and survives
// process boundaries through Marshal/UnmarshalEcoCache. A cache is safe to
// rebuild from repeatedly, also after a failed rebuild (each call re-derives
// its scratch state), but not from concurrent goroutines.
type EcoCache struct {
	// Instance is the routed instance the contract describes.
	Instance *ctree.Instance
	// Opt is the build's option set (Shards/Pilot included) with the
	// local-only fields stripped; rebuilds re-derive the sub-build and
	// per-shard options from it exactly as the from-scratch pipeline does.
	Opt core.Options
	// Parts is the cached partition: Parts[i] lists shard i's sink IDs.
	Parts [][]int
	// Base is the frozen base registry every shard cloned, with the pilot
	// offsets pre-registered; PilotOffsets is the offset contract itself
	// (nil when the pilot was off) and PilotSinks its routed sample size.
	Base         core.RegistrySnapshot
	PilotOffsets []float64
	PilotSinks   int
	// Blobs[i] is shard i's pre-stitch subtree (wire.BuildResult encoding).
	// A blob decodes against Instance directly unless remaps[i] is set, in
	// which case its leaf sink ids live in the id space of the ancestor
	// instance it was encoded for and remaps[i] carries them forward.
	Blobs [][]byte
	// remaps[i], when non-nil, is the pending leaf renumbering of Blobs[i]:
	// rebuilds chain a clean shard's cached bytes verbatim and merely compose
	// the edit script's renumbering onto this map, instead of paying a
	// decode-rewrite-reencode round trip per hop for subtrees that did not
	// change. The map is applied (and disappears) whenever the blob is next
	// decoded — on rebuild adoption or Marshal materialization.
	remaps [][]int

	// Scratch state, derived lazily per rebuild: the sink→shard map of
	// Parts, and a spatial index over the sink placements used to assign
	// added sinks to shards. A rebuild takes the index out of the cache,
	// patches it as the edit script is walked, and hands it only to the
	// chained cache when sink identity survives the edit (no removals); a
	// taken or invalidated index is simply rebuilt on the next use.
	sinkShard []int
	idx       *spatial.Index
}

// RebuildOptions carries the local-only knobs of a rebuild — observation and
// cancellation, the two option fields that never live in the cache.
type RebuildOptions struct {
	// Trace, when non-nil, records the rebuild's phase spans (dirty,
	// rebuild, adopt, retain, restitch, finalize) with per-dirty-shard
	// child traces.
	Trace *obs.Trace
	// Ctx cancels the rebuild (merge loops and dispatch alike).
	Ctx context.Context
}

// RebuildDispatch is the incremental rebuild (see the file comment): apply
// the edit script, then run the cold build's back half — re-route the dirty
// shards, adopt the clean ones from the cache, chain the contract, and
// re-stitch under the cached pilot contract.
// The result is a full sharded Result for the edited instance — quality
// metrics, per-shard attribution, dispatch report — plus EcoRebuilt/EcoReused
// recording what was actually re-routed, and a chained EcoCache. The zero
// RebuildOptions and dispatch.Options are the untraced default policy.
func (c *EcoCache) RebuildDispatch(script *instio.EditScript, ropt RebuildOptions, dopt dispatch.Options) (*Result, error) {
	k := len(c.Parts)
	if k == 0 || len(c.Blobs) != k || c.Instance == nil {
		return nil, fmt.Errorf("shard: malformed eco cache (%d parts, %d blobs)", k, len(c.Blobs))
	}
	tr := ropt.Trace

	// ---- dirty: apply the edits, derive the dirty shard set ----
	dirtyRgn := tr.Begin("dirty")
	var edited *ctree.Instance
	var rm *instio.Remap
	var newParts [][]int
	var dirtyIdx []int
	var idx *spatial.Index
	if err := dispatch.Protect("dirty", func() error {
		var err error
		edited, rm, err = script.Apply(c.Instance)
		if err != nil {
			return err
		}
		newParts, dirtyIdx, idx, err = c.dirtySet(script, rm)
		return err
	}); err != nil {
		return nil, err
	}
	dirtyRgn.Attr("edits", float64(len(script.Edits))).Attr("shards", float64(len(dirtyIdx))).End()
	tr.Metric("eco_edits", float64(len(script.Edits)))
	tr.Metric("eco_dirty_shards", float64(len(dirtyIdx)))
	tr.Metric("eco_reused_shards", float64(k-len(dirtyIdx)))

	// Re-derive the sub-build options exactly as the from-scratch pipeline
	// would for the edited instance, under the cached offset contract.
	subOpt := subBuildOptions(c.Opt)
	subOpt.Ctx = ropt.Ctx
	if c.PilotOffsets != nil {
		subOpt.GroupOffsets = c.PilotOffsets
	}
	base, err := core.NewRegistryFromSnapshot(c.Base)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Result:       core.Result{Options: c.Opt},
		PilotOffsets: c.PilotOffsets,
		PilotSinks:   c.PilotSinks,
		Trace:        tr,
		EcoRebuilt:   dirtyIdx,
		EcoReused:    k - len(dirtyIdx),
	}
	p := pipeline{in: edited, parts: newParts, subOpt: subOpt, base: base, dirty: dirtyIdx,
		from: c, oldToNew: rm.OldToNew, retain: true}
	if res, err = p.run(res, dopt); err != nil {
		return nil, err
	}
	res.Eco.idx = idx
	return res, nil
}

// dirtySet walks the edit script and derives the dirty shards and the edited
// partition. Moves, reloads and removals dirty the shard owning the targeted
// sink; an addition is assigned to the shard of its nearest live sink, found
// through the lazily built, incrementally patched spatial index (removed
// sinks are deleted from it before later additions query, moved sinks are
// re-filed at their new placement, and each added sink is filed immediately
// so a subsequent addition can cluster onto it). Returns the partition in
// edited-instance sink ids, the ascending dirty shard indices, and the
// patched index for the chained cache.
//
// The walk takes the index out of the cache before patching it, so this
// cache never keeps an index edited by a script it did not absorb — a failed
// rebuild leaves it exactly as a fresh decode of it would be. The index is
// handed on only when sink identity survived the edits (no removals; adds
// extend the ids densely) and it is therefore exactly the edited instance's;
// after removals ids shifted and it is wrong for either cache, so it is
// dropped and the next use rebuilds it.
func (c *EcoCache) dirtySet(script *instio.EditScript, rm *instio.Remap) (newParts [][]int, dirtyIdx []int, idx *spatial.Index, err error) {
	k := len(c.Parts)
	nOld := len(c.Instance.Sinks)
	if c.sinkShard == nil {
		c.sinkShard = make([]int, nOld)
		for i, p := range c.Parts {
			for _, s := range p {
				c.sinkShard[s] = i
			}
		}
	}
	idx, c.idx = c.idx, nil
	if idx == nil {
		boxes := make([]geom.Rect, nOld)
		for i := range c.Instance.Sinks {
			boxes[i] = geom.RectFromPoint(c.Instance.Sinks[i].Loc)
		}
		idx = spatial.New(spatial.DensityCell(boxes))
		idx.InsertAll(boxes)
	}

	dirty := make([]bool, k)
	removals := false
	var addShard []int // shard assigned to each addition, in script order
	nextID := nOld     // index ids for additions: dense continuation of the old ids
	for _, e := range script.Edits {
		switch e.Op {
		case instio.OpMove:
			dirty[c.sinkShard[e.Sink]] = true
			idx.Delete(e.Sink)
			idx.Insert(e.Sink, geom.RectFromPoint(e.Loc))
		case instio.OpReload:
			dirty[c.sinkShard[e.Sink]] = true
		case instio.OpRemove:
			dirty[c.sinkShard[e.Sink]] = true
			idx.Delete(e.Sink)
			removals = true
		case instio.OpAdd:
			q := geom.RectFromPoint(e.Loc)
			nb, _, ok := idx.Nearest(q, nil, func(id int) float64 {
				return geom.DistRR(q, idx.Box(id))
			})
			if !ok {
				return nil, nil, nil, fmt.Errorf("%w (no surviving sink to anchor an added one)", ErrFullBuild)
			}
			sh := 0
			if nb < nOld {
				sh = c.sinkShard[nb]
			} else {
				sh = addShard[nb-nOld]
			}
			dirty[sh] = true
			addShard = append(addShard, sh)
			idx.Insert(nextID, q)
			nextID++
		}
	}

	// The edited partition: survivors keep their cached shard (a moved sink
	// stays where it was filed — the quality envelope, not the partition,
	// owns placement quality), additions join their assigned shard.
	newParts = make([][]int, k)
	for i, p := range c.Parts {
		np := make([]int, 0, len(p))
		for _, s := range p {
			if ns := rm.OldToNew[s]; ns >= 0 {
				np = append(np, ns)
			}
		}
		newParts[i] = np
	}
	for j, sh := range addShard {
		newParts[sh] = append(newParts[sh], rm.Added[j])
	}
	for i := range newParts {
		if len(newParts[i]) == 0 {
			return nil, nil, nil, fmt.Errorf("%w (edits emptied shard %d)", ErrFullBuild, i)
		}
		if dirty[i] {
			dirtyIdx = append(dirtyIdx, i)
		}
	}
	sort.Ints(dirtyIdx)
	if removals {
		idx = nil
	}
	return newParts, dirtyIdx, idx, nil
}

// adopt decodes clean shard i straight into the edited instance in: one
// decode pass applies the blob's own pending renumbering (if it was chained
// past earlier edits) composed with the script's oldToNew. It also returns
// that composed renumbering, which the chained cache keeps pending for the
// bytes it carries forward.
func (c *EcoCache) adopt(i int, in *ctree.Instance, oldToNew []int, sinks int) (*core.Subtree, *core.Registry, []int, error) {
	var pending []int
	if c.remaps != nil {
		pending = c.remaps[i]
	}
	remap := composeRemap(pending, oldToNew)
	br, err := wire.DecodeResultRemapped(c.Blobs[i], in, remap)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("shard: cached shard %d: %w", i, err)
	}
	if got := countLeaves(br.Root); got != sinks {
		return nil, nil, nil, fmt.Errorf("shard: cached shard %d: clean subtree has %d leaves, partition expects %d",
			i, got, sinks)
	}
	reg, err := core.NewRegistryFromSnapshot(br.Registry)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("shard: cached shard %d: %w", i, err)
	}
	return &core.Subtree{Root: br.Root, Stats: br.Stats}, reg, remap, nil
}

// composeRemap carries a pending blob renumbering forward through an edit
// script's old→new map: the result maps the blob's native id space directly
// onto the edited instance (-1 = removed along the way). A nil pending map is
// the identity, so the script's own map passes through unchanged.
func composeRemap(pending, oldToNew []int) []int {
	if pending == nil {
		return oldToNew
	}
	out := make([]int, len(pending))
	for o, m := range pending {
		if m >= 0 {
			out[o] = oldToNew[m]
		} else {
			out[o] = -1
		}
	}
	return out
}

// countLeaves verifies a decoded clean-shard subtree against the partition: a
// leaf-count mismatch means the cache and the edit script disagree about the
// instance, which must surface at adoption rather than as a corrupt tree
// three layers down.
func countLeaves(root *ctree.Node) int {
	leaves := 0
	root.Visit(func(n *ctree.Node) {
		if n.IsLeaf() {
			leaves++
		}
	})
	return leaves
}

// Marshal serializes the cache for a later process (astdme -cache / -eco).
// Chained blobs with pending renumberings are materialized into the
// instance's own id space first — the disk format stays exactly the retained
// build's, and the decode-reencode cost is paid once at the process boundary
// instead of on every in-process hop.
func (c *EcoCache) Marshal() ([]byte, error) {
	blobs := c.Blobs
	if c.remaps != nil {
		blobs = make([][]byte, len(c.Blobs))
		for i, b := range c.Blobs {
			if c.remaps[i] == nil {
				blobs[i] = b
				continue
			}
			br, err := wire.DecodeResultRemapped(b, c.Instance, c.remaps[i])
			if err != nil {
				return nil, fmt.Errorf("shard: chained shard %d: %w", i, err)
			}
			if blobs[i], err = br.Encode(); err != nil {
				return nil, fmt.Errorf("shard: chained shard %d: %w", i, err)
			}
		}
	}
	wc := &wire.Cache{
		Shards:     len(c.Parts),
		Pilot:      c.Opt.Pilot,
		Opt:        stripLocalOnly(subBuildOptions(c.Opt)),
		Instance:   c.Instance,
		Parts:      c.Parts,
		Base:       c.Base,
		Offsets:    c.PilotOffsets,
		PilotSinks: c.PilotSinks,
		Blobs:      blobs,
	}
	return wc.Encode()
}

// UnmarshalEcoCache reconstructs a cache serialized by Marshal, through the
// wire layer's defensive validation (partition cover, registry forest,
// option ranges; the shard blobs stay individually sealed and are verified
// when a rebuild decodes them).
func UnmarshalEcoCache(data []byte) (*EcoCache, error) {
	wc, err := wire.DecodeCache(data)
	if err != nil {
		return nil, err
	}
	opt := wc.Opt
	opt.Shards = wc.Shards
	opt.Pilot = wc.Pilot
	return &EcoCache{
		Instance:     wc.Instance,
		Opt:          opt,
		Parts:        wc.Parts,
		Base:         wc.Base,
		PilotOffsets: wc.Offsets,
		PilotSinks:   wc.PilotSinks,
		Blobs:        wc.Blobs,
	}, nil
}
