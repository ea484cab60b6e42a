// Package wire is the remote-dispatch serialization layer: a compact,
// deterministic, versioned binary codec for the sharded pipeline's work
// units (a sink subset plus a frozen registry snapshot and the
// remote-relevant subset of core.Options, inbound) and for built subtrees
// (nodes, delay sets, stats, registry state, outbound). The codec's
// contract is the pipeline's determinism contract made portable: decoding
// an encoding reproduces the value bitwise — floats travel as their IEEE
// bit patterns and are never recomputed — so a sub-build executed by a
// remote worker is indistinguishable from the in-process build, byte for
// byte. Every message carries a magic tag, a format version, and a trailing
// FNV-64a checksum; decoders are defensive end to end (bounds-checked
// counts, no panics on arbitrary input), so a corrupted or malicious
// payload yields an error, never a crash — the dispatch layer classifies
// such errors as transient and re-dispatches.
//
// Observation does not travel: Options.Trace, Options.Ctx and
// Options.SneakProbe are deliberately not encoded (a worker build runs
// untraced; the coordinator owns tracing and cancellation).
package wire

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/geom"
	"repro/internal/order"
	"repro/internal/rctree"
)

// Version tags the wire format. Bump on any layout change; decoders reject
// other versions outright rather than guessing.
const Version uint16 = 3

// Message magic tags (work unit vs result), so one can never decode as the
// other.
var (
	magicWork   = [4]byte{'A', 'S', 'T', 'W'}
	magicResult = [4]byte{'A', 'S', 'T', 'R'}
)

// Work-unit kinds.
const (
	// KindBuild is a shard sub-build: BuildSubtree over the sink subset.
	KindBuild = 1
	// KindPatch is a pilot patch: BuildSubtree over the sample followed by
	// a single-root MergeRoots, the pair the pilot's local runner performs.
	KindPatch = 2
)

// Defensive decode limits. These bound allocations against adversarial
// counts; real payloads sit far below them.
const (
	maxNameLen = 4096
	// minimum encoded bytes per repeated element, used to bound counts
	// against the remaining payload before allocating.
	minSinkBytes  = 25 // 3 floats + group varint
	minNodeBytes  = 32
	minEntryBytes = 8
)

// WorkUnit is one remote task: route SinkIDs of Instance under Opt against
// a private registry reconstructed from Registry.
type WorkUnit struct {
	Kind     int
	Instance *ctree.Instance
	SinkIDs  []int
	Opt      core.Options
	Registry core.RegistrySnapshot
}

// BuildResult is a worker's product: the built (unembedded) subtree, its
// stats, its wirelength as built, and the worker-side registry's final
// state (the offsets the sub-build committed, which the coordinator reads
// back).
type BuildResult struct {
	Root       *ctree.Node
	Stats      core.Stats
	Wirelength float64
	Registry   core.RegistrySnapshot
}

// EncodeWork serializes a work unit. It errors on options the format cannot
// carry faithfully (closure-valued order overrides, non-Elmore models,
// nested sharding) rather than silently dropping them.
func (u *WorkUnit) Encode() ([]byte, error) {
	if u.Instance == nil {
		return nil, fmt.Errorf("wire: work unit without instance")
	}
	if u.Kind != KindBuild && u.Kind != KindPatch {
		return nil, fmt.Errorf("wire: unknown work kind %d", u.Kind)
	}
	w := &writer{}
	w.raw(magicWork[:])
	w.u16(Version)
	w.u8(byte(u.Kind))
	if err := encodeOptions(w, u.Opt); err != nil {
		return nil, err
	}
	encodeSnapshot(w, u.Registry)
	encodeInstance(w, u.Instance)
	w.uv(uint64(len(u.SinkIDs)))
	for _, id := range u.SinkIDs {
		if id < 0 || id >= len(u.Instance.Sinks) {
			return nil, fmt.Errorf("wire: sink id %d out of range", id)
		}
		w.uv(uint64(id))
	}
	return w.seal(), nil
}

// DecodeWork parses and validates a work unit: version and checksum first,
// then every count and index against the instance, and the registry
// snapshot through the same forest validation the executor will apply.
func DecodeWork(data []byte) (*WorkUnit, error) {
	r, err := open(data, magicWork)
	if err != nil {
		return nil, err
	}
	u := &WorkUnit{Kind: int(r.u8())}
	if r.err == nil && u.Kind != KindBuild && u.Kind != KindPatch {
		return nil, fmt.Errorf("wire: unknown work kind %d", u.Kind)
	}
	u.Opt, err = decodeOptions(r)
	if err != nil {
		return nil, err
	}
	u.Registry = decodeSnapshot(r)
	u.Instance, err = decodeInstance(r)
	if err != nil {
		return nil, err
	}
	n := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if n < 0 || n > len(u.Instance.Sinks) {
		return nil, fmt.Errorf("wire: %d sink ids for %d sinks", n, len(u.Instance.Sinks))
	}
	if n > 0 {
		u.SinkIDs = make([]int, n)
		seen := make([]bool, len(u.Instance.Sinks))
		for i := range u.SinkIDs {
			id := int(r.uv())
			if r.err != nil {
				return nil, r.err
			}
			if id < 0 || id >= len(u.Instance.Sinks) {
				return nil, fmt.Errorf("wire: sink id %d out of range", id)
			}
			if seen[id] {
				return nil, fmt.Errorf("wire: duplicate sink id %d", id)
			}
			seen[id] = true
			u.SinkIDs[i] = id
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	if _, err := core.NewRegistryFromSnapshot(u.Registry); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	if len(u.Registry.Parent) != u.Instance.NumGroups {
		return nil, fmt.Errorf("wire: registry over %d groups for instance with %d",
			len(u.Registry.Parent), u.Instance.NumGroups)
	}
	return u, nil
}

// Encode serializes a build result.
func (b *BuildResult) Encode() ([]byte, error) {
	if b.Root == nil {
		return nil, fmt.Errorf("wire: result without root")
	}
	w := &writer{}
	w.raw(magicResult[:])
	w.u16(Version)
	if err := encodeTree(w, b.Root); err != nil {
		return nil, err
	}
	if err := encodeStats(w, b.Stats); err != nil {
		return nil, err
	}
	w.f64(b.Wirelength)
	encodeSnapshot(w, b.Registry)
	return w.seal(), nil
}

// DecodeResult parses a build result against the instance the work was cut
// from (leaf nodes resolve their sink pointers into it).
func DecodeResult(data []byte, in *ctree.Instance) (*BuildResult, error) {
	return DecodeResultRemapped(data, in, nil)
}

// DecodeResultRemapped parses a build result whose leaf sink ids live in an
// OLDER id space than the instance's: remap[old] names the sink of in that
// old id became (-1 = removed, which a retained subtree must not reference).
// The incremental-rerouting cache uses this to adopt a clean shard's blob
// across instance edits in a single decode pass — no decode-rewrite-reencode
// round trip. A nil remap is the identity (plain DecodeResult).
func DecodeResultRemapped(data []byte, in *ctree.Instance, remap []int) (*BuildResult, error) {
	if in == nil {
		return nil, fmt.Errorf("wire: decode result without instance")
	}
	r, err := open(data, magicResult)
	if err != nil {
		return nil, err
	}
	b := &BuildResult{}
	b.Root, err = decodeTree(r, in, remap)
	if err != nil {
		return nil, err
	}
	if err := decodeStats(r, &b.Stats); err != nil {
		return nil, err
	}
	b.Wirelength = r.f64()
	b.Registry = decodeSnapshot(r)
	if err := r.done(); err != nil {
		return nil, err
	}
	if _, err := core.NewRegistryFromSnapshot(b.Registry); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return b, nil
}

// ---- options ----

// encodeOptions writes the remote-relevant subset of core.Options. Trace,
// Ctx and SneakProbe are intentionally skipped (observation stays with the
// coordinator); anything else the format cannot represent is an error.
func encodeOptions(w *writer, o core.Options) error {
	switch m := o.Model.(type) {
	case nil:
		w.u8(0)
	case rctree.Elmore:
		w.u8(1)
		w.f64(m.ROhmPerUnit)
		w.f64(m.CFFPerUnit)
	default:
		return fmt.Errorf("wire: model %q is not serializable", o.Model.Name())
	}
	if o.Order.Key != nil || o.Order.Pairer != nil {
		return fmt.Errorf("wire: order overrides (Key/Pairer closures) are not serializable")
	}
	if o.Shards > 0 || o.Pilot {
		return fmt.Errorf("wire: nested sharding options do not travel (Shards=%d Pilot=%v)", o.Shards, o.Pilot)
	}
	w.f64(o.IntraSkewBound)
	w.f64(o.InterSkewBound)
	w.bool(o.SingleGroup)
	w.f64(o.GlobalBound)
	w.iv(int64(o.Order.Strategy))
	w.f64(o.Order.BatchFraction)
	w.iv(int64(o.Pairer))
	w.f64(o.DelayTargetBias)
	w.bool(o.EndpointSplit)
	w.uv(uint64(len(o.PairConstraints)))
	for _, pc := range o.PairConstraints {
		w.iv(int64(pc.I))
		w.iv(int64(pc.J))
		w.f64(pc.MinPs)
		w.f64(pc.MaxPs)
	}
	w.bool(o.GroupOffsets != nil)
	if o.GroupOffsets != nil {
		w.uv(uint64(len(o.GroupOffsets)))
		for _, v := range o.GroupOffsets {
			w.f64(v)
		}
	}
	w.iv(int64(o.MaxSneakIter))
	w.f64(o.SneakCostCap)
	return nil
}

func decodeOptions(r *reader) (core.Options, error) {
	var o core.Options
	switch k := r.u8(); {
	case r.err != nil:
	case k == 0:
	case k == 1:
		rr, c := r.f64(), r.f64()
		if r.err == nil {
			if !(rr > 0 && c > 0) || math.IsInf(rr, 0) || math.IsInf(c, 0) {
				return o, fmt.Errorf("wire: bad elmore parameters r=%v c=%v", rr, c)
			}
			o.Model = rctree.NewElmore(rr, c)
		}
	default:
		return o, fmt.Errorf("wire: unknown model tag %d", k)
	}
	o.IntraSkewBound = r.f64()
	o.InterSkewBound = r.f64()
	o.SingleGroup = r.bool()
	o.GlobalBound = r.f64()
	o.Order.Strategy = order.Strategy(r.iv())
	o.Order.BatchFraction = r.f64()
	o.Pairer = core.PairerMode(r.iv())
	o.DelayTargetBias = r.f64()
	o.EndpointSplit = r.bool()
	npc := int(r.uv())
	if r.err != nil {
		return o, r.err
	}
	if npc < 0 || npc > r.remaining()/minEntryBytes {
		return o, fmt.Errorf("wire: pair-constraint count %d exceeds payload", npc)
	}
	for i := 0; i < npc; i++ {
		pc := core.PairConstraint{I: int(r.iv()), J: int(r.iv()), MinPs: r.f64(), MaxPs: r.f64()}
		if r.err != nil {
			return o, r.err
		}
		o.PairConstraints = append(o.PairConstraints, pc)
	}
	if r.bool() {
		ng := int(r.uv())
		if r.err != nil {
			return o, r.err
		}
		if ng < 0 || ng > r.remaining()/minEntryBytes+1 {
			return o, fmt.Errorf("wire: group-offset count %d exceeds payload", ng)
		}
		o.GroupOffsets = make([]float64, ng)
		for i := range o.GroupOffsets {
			o.GroupOffsets[i] = r.f64()
		}
	}
	o.MaxSneakIter = int(r.iv())
	o.SneakCostCap = r.f64()
	if r.err != nil {
		return o, r.err
	}
	if o.Order.Strategy < order.Multi || o.Order.Strategy > order.Greedy {
		return o, fmt.Errorf("wire: unknown order strategy %d", o.Order.Strategy)
	}
	if o.Pairer < core.PairerAuto || o.Pairer > core.PairerGrid {
		return o, fmt.Errorf("wire: unknown pairer mode %d", o.Pairer)
	}
	if o.MaxSneakIter < 0 {
		return o, fmt.Errorf("wire: negative sneak iteration cap %d", o.MaxSneakIter)
	}
	fs := []float64{o.IntraSkewBound, o.InterSkewBound, o.GlobalBound,
		o.Order.BatchFraction, o.DelayTargetBias, o.SneakCostCap}
	for _, pc := range o.PairConstraints {
		fs = append(fs, pc.MinPs, pc.MaxPs)
	}
	for _, f := range append(fs, o.GroupOffsets...) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return o, fmt.Errorf("wire: non-finite option value %v", f)
		}
	}
	return o, nil
}

// ---- registry snapshot ----

func encodeSnapshot(w *writer, s core.RegistrySnapshot) {
	w.uv(uint64(len(s.Parent)))
	for _, p := range s.Parent {
		w.uv(uint64(p))
	}
	for _, v := range s.Off {
		w.f64(v)
	}
	w.iv(int64(s.PreUnions))
}

// decodeSnapshot reads the raw snapshot; structural validation (forest,
// ranges) is core.NewRegistryFromSnapshot's job and the message decoders
// invoke it before returning.
func decodeSnapshot(r *reader) core.RegistrySnapshot {
	var s core.RegistrySnapshot
	n := int(r.uv())
	if r.err != nil {
		return s
	}
	if n < 0 || n > r.remaining() {
		r.fail(fmt.Errorf("wire: registry group count %d exceeds payload", n))
		return s
	}
	s.Parent = make([]int, n)
	for i := range s.Parent {
		s.Parent[i] = int(r.uv())
	}
	s.Off = make([]float64, n)
	for i := range s.Off {
		if s.Off[i] = r.f64(); math.IsNaN(s.Off[i]) || math.IsInf(s.Off[i], 0) {
			r.fail(fmt.Errorf("wire: non-finite registry offset on group %d", i))
		}
	}
	s.PreUnions = int(r.iv())
	return s
}

// ---- instance ----

func encodeInstance(w *writer, in *ctree.Instance) {
	w.str(in.Name)
	w.f64(in.Source.X)
	w.f64(in.Source.Y)
	w.iv(int64(in.NumGroups))
	w.uv(uint64(len(in.Sinks)))
	for i := range in.Sinks {
		s := &in.Sinks[i]
		w.f64(s.Loc.X)
		w.f64(s.Loc.Y)
		w.f64(s.CapFF)
		w.iv(int64(s.Group))
	}
}

func decodeInstance(r *reader) (*ctree.Instance, error) {
	in := &ctree.Instance{Name: r.str(maxNameLen)}
	in.Source = geom.Point{X: r.f64(), Y: r.f64()}
	in.NumGroups = int(r.iv())
	n := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if n <= 0 || n > r.remaining()/minSinkBytes+1 {
		return nil, fmt.Errorf("wire: sink count %d exceeds payload", n)
	}
	in.Sinks = make([]ctree.Sink, n)
	for i := range in.Sinks {
		s := &in.Sinks[i]
		s.ID = i
		s.Loc = geom.Point{X: r.f64(), Y: r.f64()}
		s.CapFF = r.f64()
		s.Group = int(r.iv())
		if r.err != nil {
			return nil, r.err
		}
		for _, f := range []float64{s.Loc.X, s.Loc.Y, s.CapFF} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("wire: non-finite coordinate on sink %d", i)
			}
		}
	}
	if math.IsNaN(in.Source.X) || math.IsInf(in.Source.X, 0) ||
		math.IsNaN(in.Source.Y) || math.IsInf(in.Source.Y, 0) {
		return nil, fmt.Errorf("wire: non-finite source location")
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return in, nil
}

// ---- node tree ----

// Node record flags.
const (
	nodeLeaf     = 1 << 0
	nodePlaced   = 1 << 1
	nodeDeferred = 1 << 2
	nodeHandles  = 1 << 3
)

// handleFix is a handle reference read before its target node existed; it
// resolves after the whole pre-order is reconstructed.
type handleFix struct {
	node  *ctree.Node
	group int
	idx   int // pre-order index of the handle edge's parent node
	side  ctree.Side
}

// encodeTree writes the subtree as a pre-order sequence of flat records;
// handle references name their parent node by pre-order index, so the
// format needs no pointers and decoding needs no recursion.
func encodeTree(w *writer, root *ctree.Node) error {
	// Pre-order index every node first so handles can refer across the tree.
	index := map[*ctree.Node]int{}
	var nodes []*ctree.Node
	stack := []*ctree.Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil {
			return fmt.Errorf("wire: nil node in tree")
		}
		if _, dup := index[n]; dup {
			return fmt.Errorf("wire: node %d appears twice in tree", n.ID)
		}
		index[n] = len(nodes)
		nodes = append(nodes, n)
		if n.IsLeaf() {
			if n.Left != nil || n.Right != nil {
				return fmt.Errorf("wire: leaf %d has children", n.ID)
			}
			continue
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("wire: internal node %d missing a child", n.ID)
		}
		// Push right first so the left subtree pops (and encodes) first —
		// records must appear in pre-order.
		stack = append(stack, n.Right, n.Left)
	}
	w.uv(uint64(len(nodes)))
	for _, n := range nodes {
		if err := encodeNode(w, n, index); err != nil {
			return err
		}
	}
	return nil
}

func encodeNode(w *writer, n *ctree.Node, index map[*ctree.Node]int) error {
	var flags byte
	if n.IsLeaf() {
		flags |= nodeLeaf
	}
	if n.Placed {
		flags |= nodePlaced
	}
	if n.Deferred {
		flags |= nodeDeferred
	}
	if len(n.Handles) > 0 {
		flags |= nodeHandles
	}
	w.u8(flags)
	w.iv(int64(n.ID))
	if n.IsLeaf() {
		w.uv(uint64(n.Sink.ID))
	}
	w.f64(n.EdgeL)
	w.f64(n.EdgeR)
	w.f64(n.Region.ULo)
	w.f64(n.Region.UHi)
	w.f64(n.Region.VLo)
	w.f64(n.Region.VHi)
	w.f64(n.Cap)
	w.uv(uint64(len(n.Groups)))
	for _, g := range n.Groups {
		w.iv(int64(g))
	}
	if len(n.Delay.Groups) != len(n.Delay.Ivs) {
		return fmt.Errorf("wire: node %d delay set with %d groups, %d intervals",
			n.ID, len(n.Delay.Groups), len(n.Delay.Ivs))
	}
	w.bool(!n.Delay.IsZero())
	w.uv(uint64(n.Delay.Len()))
	for i := 0; i < n.Delay.Len(); i++ {
		g, iv := n.Delay.At(i)
		w.iv(int64(g))
		w.f64(iv.Lo)
		w.f64(iv.Hi)
	}
	if flags&nodeHandles != 0 {
		// Sorted by group: map iteration order must not leak into the bytes
		// (same tree, same bytes — the determinism contract).
		groups := make([]int, 0, len(n.Handles))
		for g := range n.Handles {
			groups = append(groups, g)
		}
		slices.Sort(groups)
		w.uv(uint64(len(groups)))
		for _, g := range groups {
			ref := n.Handles[g]
			pi, ok := index[ref.Parent]
			if !ok {
				return fmt.Errorf("wire: node %d handle for group %d points outside the tree", n.ID, g)
			}
			w.iv(int64(g))
			w.uv(uint64(pi))
			w.u8(byte(ref.Side))
		}
	}
	w.f64(n.Loc.U)
	w.f64(n.Loc.V)
	if flags&nodeDeferred != 0 {
		w.f64(n.DefD)
		w.f64(n.DefELo)
		w.f64(n.DefEHi)
		for _, f := range []float64{n.DefRegion.ULo, n.DefRegion.UHi, n.DefRegion.VLo, n.DefRegion.VHi,
			n.DefRegion.SLo, n.DefRegion.SHi, n.DefRegion.TLo, n.DefRegion.THi} {
			w.f64(f)
		}
	}
	return nil
}

// decodeTree reconstructs the pre-order iteratively (a stack of open
// internal nodes, never the goroutine stack — adversarially deep chains
// cannot overflow it).
func decodeTree(r *reader, in *ctree.Instance, remap []int) (*ctree.Node, error) {
	count := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if count <= 0 || count > r.remaining()/minNodeBytes+1 {
		return nil, fmt.Errorf("wire: node count %d exceeds payload", count)
	}
	nodes := make([]*ctree.Node, 0, count)
	var open []*ctree.Node // internal nodes still missing a child
	var root *ctree.Node
	var fixes []handleFix
	for i := 0; i < count; i++ {
		if root != nil && len(open) == 0 {
			return nil, fmt.Errorf("wire: node record %d after the tree completed", i)
		}
		n, err := decodeNode(r, in, remap, &fixes)
		if err != nil {
			return nil, err
		}
		if root == nil {
			root = n
		} else {
			top := open[len(open)-1]
			if top.Left == nil {
				top.Left = n
			} else {
				top.Right = n
				open = open[:len(open)-1]
			}
		}
		nodes = append(nodes, n)
		if !n.IsLeaf() {
			open = append(open, n)
		}
	}
	if len(open) > 0 {
		return nil, fmt.Errorf("wire: tree truncated, %d internal nodes missing children", len(open))
	}
	for _, fx := range fixes {
		if fx.idx < 0 || fx.idx >= len(nodes) {
			return nil, fmt.Errorf("wire: handle parent index %d out of range", fx.idx)
		}
		parent := nodes[fx.idx]
		if fx.side != ctree.SideL && fx.side != ctree.SideR {
			return nil, fmt.Errorf("wire: handle with bad side %d", fx.side)
		}
		if (fx.side == ctree.SideL && parent.Left == nil) || (fx.side == ctree.SideR && parent.Right == nil) {
			return nil, fmt.Errorf("wire: handle edge (%d, side %d) does not exist", fx.idx, fx.side)
		}
		if fx.node.Handles == nil {
			fx.node.Handles = make(map[int]ctree.EdgeRef)
		}
		fx.node.Handles[fx.group] = ctree.EdgeRef{Parent: parent, Side: fx.side}
	}
	return root, nil
}

func decodeNode(r *reader, in *ctree.Instance, remap []int, fixes *[]handleFix) (*ctree.Node, error) {
	flags := r.u8()
	if r.err != nil {
		return nil, r.err
	}
	n := &ctree.Node{ID: int(r.iv())}
	if flags&nodeLeaf != 0 {
		sid := int(r.uv())
		if r.err != nil {
			return nil, r.err
		}
		if remap != nil {
			if sid < 0 || sid >= len(remap) || remap[sid] < 0 {
				return nil, fmt.Errorf("wire: leaf sink id %d has no image under the remap", sid)
			}
			// Leaf identity follows the sink into the new id space.
			sid = remap[sid]
			n.ID = sid
		}
		if sid < 0 || sid >= len(in.Sinks) {
			return nil, fmt.Errorf("wire: leaf sink id %d out of range", sid)
		}
		n.Sink = &in.Sinks[sid]
	}
	n.EdgeL = r.f64()
	n.EdgeR = r.f64()
	n.Region = geom.Rect{ULo: r.f64(), UHi: r.f64(), VLo: r.f64(), VHi: r.f64()}
	n.Cap = r.f64()
	ng := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if ng < 0 || ng > r.remaining() {
		return nil, fmt.Errorf("wire: group count %d exceeds payload", ng)
	}
	if ng > 0 {
		n.Groups = make([]int, ng)
		for i := range n.Groups {
			n.Groups[i] = int(r.iv())
			if i > 0 && r.err == nil && n.Groups[i] <= n.Groups[i-1] {
				return nil, fmt.Errorf("wire: node %d groups not ascending", n.ID)
			}
		}
	}
	hasDelay := r.bool()
	nd := int(r.uv())
	if r.err != nil {
		return nil, r.err
	}
	if nd < 0 || nd > r.remaining()/minEntryBytes+1 {
		return nil, fmt.Errorf("wire: delay count %d exceeds payload", nd)
	}
	if hasDelay {
		n.Delay = rctree.DelaySet{Groups: make([]int32, nd), Ivs: make([]rctree.Interval, nd)}
		for i := 0; i < nd; i++ {
			g := r.iv()
			if g < math.MinInt32 || g > math.MaxInt32 {
				return nil, fmt.Errorf("wire: delay group %d out of int32 range", g)
			}
			n.Delay.Groups[i] = int32(g)
			n.Delay.Ivs[i] = rctree.Interval{Lo: r.f64(), Hi: r.f64()}
			if i > 0 && r.err == nil && n.Delay.Groups[i] <= n.Delay.Groups[i-1] {
				return nil, fmt.Errorf("wire: node %d delay groups not ascending", n.ID)
			}
		}
	} else if nd != 0 {
		return nil, fmt.Errorf("wire: zero delay set with %d entries", nd)
	}
	if flags&nodeHandles != 0 {
		nh := int(r.uv())
		if r.err != nil {
			return nil, r.err
		}
		if nh <= 0 || nh > r.remaining()/3+1 {
			return nil, fmt.Errorf("wire: handle count %d exceeds payload", nh)
		}
		last := math.MinInt
		for i := 0; i < nh; i++ {
			g := int(r.iv())
			idx := int(r.uv())
			side := ctree.Side(r.u8())
			if r.err != nil {
				return nil, r.err
			}
			if g <= last {
				return nil, fmt.Errorf("wire: node %d handles not ascending", n.ID)
			}
			last = g
			*fixes = append(*fixes, handleFix{node: n, group: g, idx: idx, side: side})
		}
	}
	n.Loc = geom.UV{U: r.f64(), V: r.f64()}
	n.Placed = flags&nodePlaced != 0
	if flags&nodeDeferred != 0 {
		n.Deferred = true
		n.DefD = r.f64()
		n.DefELo = r.f64()
		n.DefEHi = r.f64()
		n.DefRegion = geom.Octagon{
			ULo: r.f64(), UHi: r.f64(), VLo: r.f64(), VHi: r.f64(),
			SLo: r.f64(), SHi: r.f64(), TLo: r.f64(), THi: r.f64(),
		}
	}
	return n, r.err
}
