package wire

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/eval"
)

// buildWork constructs a realistic grouped work unit: an intermingled
// 4-group instance, a sink subset, a registry with some committed state.
func buildWork(t *testing.T, kind int) *WorkUnit {
	t.Helper()
	in := bench.Intermingled(bench.Small(300, 7), 4, 11)
	opt := core.Options{IntraSkewBound: 2}
	reg, err := core.NewRegistry(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, len(in.Sinks)/2)
	for i := 0; i < len(in.Sinks); i += 2 {
		ids = append(ids, i)
	}
	if kind == KindPatch {
		ids = nil // a patch routes its full sample; nil = all sinks
	}
	return &WorkUnit{Kind: kind, Instance: in, SinkIDs: ids, Opt: opt, Registry: reg.Snapshot()}
}

func digestTree(t *testing.T, root *ctree.Node, in *ctree.Instance) uint64 {
	t.Helper()
	rep := eval.Analyze(root, in, core.DefaultModel(), in.Source)
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range rep.SinkDelay {
		bits := math.Float64bits(d)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestWorkUnitRoundTrip pins decode(encode(u)) == u for the fields that
// matter, including float bit patterns.
func TestWorkUnitRoundTrip(t *testing.T) {
	u := buildWork(t, KindBuild)
	u.Opt.Model = core.DefaultModel()
	u.Opt.PairConstraints = []core.PairConstraint{{I: 0, J: 2, MinPs: -3.5, MaxPs: 7.25}}
	u.Opt.GroupOffsets = nil
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWork(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != u.Kind {
		t.Errorf("kind = %d, want %d", got.Kind, u.Kind)
	}
	if !reflect.DeepEqual(got.SinkIDs, u.SinkIDs) {
		t.Error("sink ids did not round-trip")
	}
	if !reflect.DeepEqual(got.Registry, u.Registry) {
		t.Errorf("registry did not round-trip: %+v vs %+v", got.Registry, u.Registry)
	}
	if !reflect.DeepEqual(got.Opt, u.Opt) {
		t.Errorf("options did not round-trip:\n got %+v\nwant %+v", got.Opt, u.Opt)
	}
	if got.Instance.Name != u.Instance.Name || got.Instance.NumGroups != u.Instance.NumGroups ||
		got.Instance.Source != u.Instance.Source || !reflect.DeepEqual(got.Instance.Sinks, u.Instance.Sinks) {
		t.Error("instance did not round-trip")
	}
	// Determinism of the encoding itself: same value, same bytes.
	data2, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encoding is not deterministic")
	}
}

// TestResultRoundTripThroughFullBuild is the golden contract: a real
// BuildSubtree product — delay sets, handles, deferred root, stats,
// registry — survives encode/decode bitwise. The decoded subtree then
// finishes the pipeline (MergeRoots + Embed) side by side with the
// original, and the two trees agree on wirelength bits, per-sink delay
// digest, and stats.
func TestResultRoundTripThroughFullBuild(t *testing.T) {
	u := buildWork(t, KindBuild)
	ref, err := Execute(u) // the worker-side path over the original structs
	if err != nil {
		t.Fatal(err)
	}
	data, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data, u.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != ref.Stats {
		t.Errorf("stats did not round-trip:\n got %+v\nwant %+v", got.Stats, ref.Stats)
	}
	if math.Float64bits(got.Wirelength) != math.Float64bits(ref.Wirelength) {
		t.Errorf("wirelength bits differ: %x vs %x",
			math.Float64bits(got.Wirelength), math.Float64bits(ref.Wirelength))
	}
	if !reflect.DeepEqual(got.Registry, ref.Registry) {
		t.Error("registry state did not round-trip")
	}

	// Drive both roots through the stitch and compare the final trees.
	finish := func(root *ctree.Node) (*core.Subtree, *core.Registry) {
		reg, err := core.NewRegistryFromSnapshot(got.Registry)
		if err != nil {
			t.Fatal(err)
		}
		top, err := core.MergeRoots(u.Instance, []*ctree.Node{root}, u.Opt, reg)
		if err != nil {
			t.Fatal(err)
		}
		return top, reg
	}
	refTop, _ := finish(ref.Root)
	gotTop, _ := finish(got.Root)
	if refTop.Stats != gotTop.Stats {
		t.Errorf("stitch stats diverge: %+v vs %+v", gotTop.Stats, refTop.Stats)
	}
	refW := math.Float64bits(refTop.Root.Wirelength())
	gotW := math.Float64bits(gotTop.Root.Wirelength())
	if refW != gotW {
		t.Errorf("stitched wirelength bits differ: %x vs %x", gotW, refW)
	}
	if dr, dg := digestTree(t, refTop.Root, u.Instance), digestTree(t, gotTop.Root, u.Instance); dr != dg {
		t.Errorf("per-sink delay digests differ: %x vs %x", dg, dr)
	}
}

func TestDecodeRejectsVersionFlip(t *testing.T) {
	u := buildWork(t, KindBuild)
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The version lives right after the 4-byte magic; flip it and reseal
	// (an honest version mismatch, not transit corruption).
	bad := append([]byte(nil), data[:len(data)-8]...)
	bad[4] ^= 0xFF
	if _, err := DecodeWork(reseal(bad)); err == nil {
		t.Fatal("flipped version accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	u := buildWork(t, KindBuild)
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{7, len(data) / 2, len(data) - 9, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := DecodeWork(bad); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		}
	}
	if _, err := DecodeWork(data[:len(data)/3]); err == nil {
		t.Error("truncated message accepted")
	}
	if _, err := DecodeWork(nil); err == nil {
		t.Error("empty message accepted")
	}
}

func TestWorkCannotDecodeAsResult(t *testing.T) {
	u := buildWork(t, KindBuild)
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult(data, u.Instance); err == nil {
		t.Fatal("work unit decoded as a result")
	}
}

func TestEncodeRejectsUnserializableOptions(t *testing.T) {
	u := buildWork(t, KindBuild)
	u.Opt.Order.Key = func(i, j int, d float64) float64 { return d }
	if _, err := u.Encode(); err == nil {
		t.Error("Order.Key closure encoded")
	}
	u = buildWork(t, KindBuild)
	u.Opt.Shards = 4
	if _, err := u.Encode(); err == nil {
		t.Error("nested Shards encoded")
	}
	u = buildWork(t, KindBuild)
	u.Opt.Pilot = true
	if _, err := u.Encode(); err == nil {
		t.Error("nested Pilot encoded")
	}
}

// reseal seals a message body (a message without its checksum trailer)
// with a fresh checksum. The fuzzers mutate bodies and reseal them, so the
// mutations reach the decoders instead of failing the FNV check in front.
func reseal(body []byte) []byte {
	w := &writer{b: append([]byte(nil), body...)}
	return w.seal()
}

// TestDecodeRejectsGroupCountAboveSinks pins the bound on a decoded group
// count: a sealed work unit or cache whose instance claims more groups than
// it has sinks is rejected. A count of 4e11 used to reach an allocation
// sized by it and kill the process with an out-of-memory error, which
// dispatch.Protect cannot contain.
func TestDecodeRejectsGroupCountAboveSinks(t *testing.T) {
	u := buildWork(t, KindBuild)
	u.Instance.NumGroups = 400_000_000_000
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWork(data); err == nil {
		t.Error("work unit with more groups than sinks accepted")
	}
	c := buildCache(t)
	c.Instance.NumGroups = 400_000_000_000
	if data, err = c.Encode(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCache(data); err == nil {
		t.Error("cache with more groups than sinks accepted")
	}
}

// TestDecodeRejectsNonFiniteRegistryOffset pins that a registry snapshot
// crossing the wire carries finite offsets: a NaN would reach every leash
// and window of the build that clones it (and broke FuzzDecodeWork's
// round-trip property, NaN never equalling itself).
func TestDecodeRejectsNonFiniteRegistryOffset(t *testing.T) {
	u := buildWork(t, KindBuild)
	u.Registry.Off[1] = math.NaN()
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWork(data); err == nil {
		t.Error("NaN registry offset accepted")
	}
}

// TestDecodeRejectsNonFiniteGroupOffset pins that prescribed group offsets
// crossing the wire are finite: a NaN target would reach every window the
// pre-registered registry derives from it.
func TestDecodeRejectsNonFiniteGroupOffset(t *testing.T) {
	u := buildWork(t, KindBuild)
	u.Opt.GroupOffsets = []float64{0, 3, math.NaN(), 0}
	data, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWork(data); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN group offset: got %v, want a non-finite rejection", err)
	}
}

// TestDecodeRejectsNonFinitePairConstraint pins the same for both ends of
// an inter-group skew range: an infinite end turns the window's midpoint
// and half-width into NaN or ±Inf.
func TestDecodeRejectsNonFinitePairConstraint(t *testing.T) {
	for _, pc := range []core.PairConstraint{
		{I: 0, J: 1, MinPs: math.Inf(-1), MaxPs: 5},
		{I: 0, J: 1, MinPs: -5, MaxPs: math.NaN()},
	} {
		u := buildWork(t, KindBuild)
		u.Opt.PairConstraints = []core.PairConstraint{pc}
		data, err := u.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeWork(data); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("pair constraint %+v: got %v, want a non-finite rejection", pc, err)
		}
	}
}

// TestFuzzSeedHugeNumGroupsReachesGroupCount pins that the committed
// FuzzDecodeCache seed is a body of the current wire version: resealed, it
// must get past the version check and fail on its group count, the bound it
// was saved to exercise.
func TestFuzzSeedHugeNumGroupsReachesGroupCount(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeCache/huge_num_groups")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	if !ok || !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("unexpected corpus file layout: %q", raw)
	}
	body, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeCache(reseal([]byte(body)))
	if err == nil || !strings.Contains(err.Error(), "NumGroups") {
		t.Errorf("seed: got %v, want a group-count rejection", err)
	}
}

// FuzzDecodeWork asserts the decoder's no-crash contract on arbitrary
// resealed bodies, and full round-trip fidelity on valid encodings.
func FuzzDecodeWork(f *testing.F) {
	u := &WorkUnit{}
	func() {
		in := bench.Intermingled(bench.Small(40, 3), 2, 5)
		reg, err := core.NewRegistry(in, core.Options{})
		if err != nil {
			f.Fatal(err)
		}
		u = &WorkUnit{Kind: KindBuild, Instance: in, SinkIDs: []int{0, 3, 9}, Registry: reg.Snapshot()}
	}()
	seed, err := u.Encode()
	if err != nil {
		f.Fatal(err)
	}
	body := seed[:len(seed)-8]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add([]byte("ASTW"))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeWork(reseal(body)) // must never panic
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same thing.
		again, err := got.Encode()
		if err != nil {
			t.Fatalf("decoded unit fails to re-encode: %v", err)
		}
		got2, err := DecodeWork(again)
		if err != nil {
			t.Fatalf("re-encoded unit fails to decode: %v", err)
		}
		if !reflect.DeepEqual(got.Registry, got2.Registry) || !reflect.DeepEqual(got.SinkIDs, got2.SinkIDs) {
			t.Fatal("round-trip through re-encode diverged")
		}
	})
}

// FuzzDecodeResult asserts the result decoder's no-crash contract on
// resealed bodies, including the iterative tree reconstruction and handle
// resolution.
func FuzzDecodeResult(f *testing.F) {
	in := bench.Intermingled(bench.Small(40, 3), 2, 5)
	reg, err := core.NewRegistry(in, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	u := &WorkUnit{Kind: KindBuild, Instance: in, Opt: core.Options{}, Registry: reg.Snapshot()}
	ref, err := Execute(u)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := ref.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed[:len(seed)-8])
	f.Add([]byte("ASTR"))
	f.Fuzz(func(t *testing.T, body []byte) {
		br, err := DecodeResult(reseal(body), in) // must never panic
		if err != nil {
			return
		}
		if br.Root == nil {
			t.Fatal("decoded result with nil root")
		}
	})
}
