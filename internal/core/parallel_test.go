package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/order"
)

// sameTree recursively compares topology and every committed quantity of
// two merge trees: sink identity at leaves, bitwise edge lengths, regions
// and per-group delay intervals. Any difference fails the test with a path.
func sameTree(t *testing.T, label string, a, b *ctree.Node) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: nil mismatch", label)
	}
	if a == nil {
		return
	}
	if a.IsLeaf() != b.IsLeaf() {
		t.Fatalf("%s: leaf/internal mismatch", label)
	}
	if a.IsLeaf() {
		if a.Sink.ID != b.Sink.ID {
			t.Fatalf("%s: sink %d != %d", label, a.Sink.ID, b.Sink.ID)
		}
		return
	}
	if a.EdgeL != b.EdgeL || a.EdgeR != b.EdgeR {
		t.Fatalf("%s: edges (%v,%v) != (%v,%v)", label, a.EdgeL, a.EdgeR, b.EdgeL, b.EdgeR)
	}
	if a.Region != b.Region {
		t.Fatalf("%s: regions differ", label)
	}
	if !a.Delay.Equal(b.Delay) {
		t.Fatalf("%s: delay sets differ: %v vs %v", label, a.Delay, b.Delay)
	}
	sameTree(t, label+"L", a.Left, b.Left)
	sameTree(t, label+"R", a.Right, b.Right)
}

// TestParallelMergeAcrossGOMAXPROCS: batch pairing fans its nearest-partner
// queries out across GOMAXPROCS goroutines, so the merge order — and hence
// the tree — must not depend on the setting. Every build is checked bitwise
// (wirelength, stats, topology, regions, delay sets) against the
// GOMAXPROCS=1 build, for both pairing engines, both strategies, and ZST as
// well as grouped AST-DME runs.
func TestParallelMergeAcrossGOMAXPROCS(t *testing.T) {
	zst := bench.Small(600, 21)
	grouped := bench.Intermingled(bench.Small(500, 7), 5, 11)
	cases := []struct {
		name string
		run  func(p PairerMode, st order.Strategy) (*Result, error)
	}{
		{"zst", func(p PairerMode, st order.Strategy) (*Result, error) {
			return ZST(zst, Options{Pairer: p, Order: order.Config{Strategy: st}})
		}},
		{"grouped", func(p PairerMode, st order.Strategy) (*Result, error) {
			return Build(grouped, Options{IntraSkewBound: 0, Pairer: p, Order: order.Config{Strategy: st}})
		}},
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, tc := range cases {
		for _, pairer := range []PairerMode{PairerScan, PairerGrid} {
			for _, st := range []order.Strategy{order.Multi, order.Greedy} {
				runtime.GOMAXPROCS(1)
				serial, err := tc.run(pairer, st)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{2, 4} {
					runtime.GOMAXPROCS(procs)
					res, err := tc.run(pairer, st)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/pairer=%v/strategy=%v/GOMAXPROCS=%d", tc.name, pairer, st, procs)
					if res.Wirelength != serial.Wirelength {
						t.Errorf("%s: wirelength %v != GOMAXPROCS=1 %v", label, res.Wirelength, serial.Wirelength)
					}
					if res.Stats != serial.Stats {
						t.Errorf("%s: stats differ:\n got:    %+v\n serial: %+v", label, res.Stats, serial.Stats)
					}
					sameTree(t, label+"@", serial.Root, res.Root)
				}
			}
		}
	}
}
