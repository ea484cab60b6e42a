package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/order"
)

// hashDelays folds the bit patterns of every per-sink delay into one FNV-64a
// digest, in sink-ID order: any single-ULP drift in any sink's delay changes
// the digest.
func hashDelays(ds []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range ds {
		bits := math.Float64bits(d)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestFlatDelayMatchesMapBaseline pins the flat sorted-slice delay
// representation bitwise to the behavior of the map-based implementation it
// replaced: the wirelength bits and the per-sink delay digest below were
// recorded from the last map-based build (commit 45acbe1) on these exact
// instances, across the batching strategies and ZST as well as grouped
// AST-DME. The flat build must reproduce every one of them
// exactly — the representation change is not allowed to move a single bit
// of any routed tree.
func TestFlatDelayMatchesMapBaseline(t *testing.T) {
	zst := bench.Small(600, 21)
	grouped := bench.Intermingled(bench.Small(400, 33), 4, 99)
	golden := []struct {
		inst      string
		strategy  order.Strategy
		wireBits  uint64
		delayHash uint64
	}{
		{"zst", order.Multi, 0x414296d0dd5b8f80, 0xdec0bd6930b8fb07},
		{"zst", order.Greedy, 0x41430837095ad6e4, 0x6b80f108b7b8c1b6},
		{"grouped", order.Multi, 0x4139ccbe875e55da, 0xe7123630ad067931},
		{"grouped", order.Greedy, 0x413ce17e677c3108, 0x79c49fbb85a3a9ef},
	}
	for _, tc := range golden {
		label := fmt.Sprintf("%s/strategy=%v", tc.inst, tc.strategy)
		var in *ctree.Instance
		var res *Result
		var err error
		switch tc.inst {
		case "zst":
			in = zst
			res, err = ZST(in, Options{Order: order.Config{Strategy: tc.strategy}})
		default:
			in = grouped
			res, err = Build(in, Options{IntraSkewBound: 0, Order: order.Config{Strategy: tc.strategy}})
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if bits := math.Float64bits(res.Wirelength); bits != tc.wireBits {
			t.Errorf("%s: wirelength bits 0x%016x (%v), want 0x%016x (%v)",
				label, bits, res.Wirelength, tc.wireBits, math.Float64frombits(tc.wireBits))
		}
		rep := eval.Analyze(res.Root, in, DefaultModel(), in.Source)
		if h := hashDelays(rep.SinkDelay); h != tc.delayHash {
			t.Errorf("%s: per-sink delay digest 0x%016x, want 0x%016x", label, h, tc.delayHash)
		}
	}
}
