package spatial

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/order"
)

// workCounters is everything the index's rebuild policy reads from its
// queries: the cumulative scan, query and cell-walk counters, and the
// rebuilds they have triggered.
type workCounters struct {
	scans, queries, cells int64
	rebuilds              RebuildStats
}

func countersOf(x *Index) workCounters {
	return workCounters{x.Scans(), x.queries.Load(), x.cellsWalked.Load(), x.Rebuilds()}
}

// TestNearestByDistanceMatchesScan is the differential of the
// anti-starvation query: for every live id under random used masks, the
// grid's ring search must return exactly the oracle scan's partner and
// distance bits, and must leave every counter the rebuild policy reads
// where it was. It runs over boxes of mixed sizes (some in the overflow
// list), coincident points on a lattice (exact distance ties), and octagons
// indexed by their bounds, before and after churn that rebuilds the grid.
func TestNearestByDistanceMatchesScan(t *testing.T) {
	type shape struct {
		name string
		// gen draws the next region; oct selects the exact octagon distance
		// over the bounding-box distance; overflow asserts that some
		// regions land in the index's overflow list.
		gen      func(r *rand.Rand) geom.Octagon
		oct      bool
		overflow bool
	}
	shapes := []shape{
		{name: "boxes", gen: func(r *rand.Rand) geom.Octagon {
			w, h := r.ExpFloat64()*40, r.ExpFloat64()*40
			if r.Intn(10) == 0 {
				w, h = w*30, h*30 // oversized: lands in the overflow list
			}
			u, v := r.Float64()*1e4, r.Float64()*1e4
			return geom.OctFromRect(geom.Rect{ULo: u, UHi: u + w, VLo: v, VHi: v + h})
		}, overflow: true},
		{name: "coincident", gen: func(r *rand.Rand) geom.Octagon {
			// 120 lattice sites for several hundred points: many exact
			// duplicates and distance ties.
			return geom.OctFromUV(geom.UV{U: float64(r.Intn(12) * 100), V: float64(r.Intn(10) * 100)})
		}},
		{name: "octagons", gen: func(r *rand.Rand) geom.Octagon {
			u, v := r.Float64()*1e4, r.Float64()*1e4
			w, h := 1+r.ExpFloat64()*60, 1+r.ExpFloat64()*60
			o := geom.OctFromRect(geom.Rect{ULo: u, UHi: u + w, VLo: v, VHi: v + h})
			// Cut the corners by up to half the smaller edge each.
			m := math.Min(w, h) / 2
			o.SLo += r.Float64() * m
			o.SHi -= r.Float64() * m
			o.TLo += r.Float64() * m
			o.THi -= r.Float64() * m
			return o.Close()
		}, oct: true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(14))
			const n = 600
			regs := make([]geom.Octagon, n)
			boxes := make([]geom.Rect, n)
			for i := range regs {
				regs[i] = sh.gen(r)
				boxes[i] = regs[i].Bounds()
			}
			box := func(id int) geom.Rect { return regs[id].Bounds() }
			dist := func(i, j int) float64 { return geom.DistRR(regs[i].Bounds(), regs[j].Bounds()) }
			if sh.oct {
				dist = func(i, j int) float64 { return geom.DistOO(regs[i], regs[j]) }
			}
			grid := NewGridPairerFor(boxes, box, dist, nil)
			if sh.overflow && len(grid.Index().over) == 0 {
				t.Fatal("no region in the overflow list")
			}
			oracle := order.NewScanPairer(dist, nil)
			alive := make([]bool, n)
			for i := range alive {
				grid.Insert(i)
				oracle.Insert(i)
				alive[i] = true
			}
			check := func(stage string) {
				for _, density := range []float64{0, 0.3, 0.7, 0.97} {
					used := make([]bool, len(regs))
					for i := range used {
						used[i] = r.Float64() < density
					}
					x := grid.Index()
					before, oracleScans := countersOf(x), oracle.Scans()
					for id, a := range alive {
						if !a {
							continue
						}
						g, gok := grid.NearestByDistance(id, used)
						o, ook := oracle.NearestByDistance(id, used)
						if gok != ook || g.I != id || g.J != o.J || math.Float64bits(g.Key) != math.Float64bits(o.Key) {
							t.Fatalf("%s, density %.2f, id %d: grid (%v, %v) != oracle (%v, %v)",
								stage, density, id, g, gok, o, ook)
						}
					}
					if after := countersOf(x); after != before {
						t.Fatalf("%s, density %.2f: query moved the grid's counters %+v → %+v", stage, density, before, after)
					}
					if s := oracle.Scans(); s != oracleScans {
						t.Fatalf("%s: query counted %d oracle scans", stage, s-oracleScans)
					}
				}
			}
			check("initial")
			none := make([]bool, len(regs))
			if a := testing.AllocsPerRun(50, func() { grid.NearestByDistance(1, none) }); a != 0 {
				t.Fatalf("NearestByDistance allocates %v times per query", a)
			}
			// Churn: retire 60% (a live-drop rebuild), then file a third as
			// many new items, as the merge queue does.
			for id := range alive {
				if r.Float64() < 0.6 {
					alive[id] = false
					grid.Delete(id)
					oracle.Delete(id)
				}
			}
			for k := 0; k < n/3; k++ {
				id := len(regs)
				regs = append(regs, sh.gen(r))
				alive = append(alive, true)
				grid.Insert(id)
				oracle.Insert(id)
			}
			if grid.Index().Rebuilds().Total() == 0 {
				t.Fatal("churn did not rebuild the grid")
			}
			check("after churn")
		})
	}
}

// TestAntiStarvationGridPairer runs the order package's pariah scenario
// (TestAntiStarvation there) through the grid pairer: one item whose every
// pairing key carries a huge penalty must be force-paired well before the
// final merge, and the merge sequence must be the oracle scan's.
func TestAntiStarvationGridPairer(t *testing.T) {
	const n = 32
	const pariah = 0
	run := func(useGrid bool) (seq [][2]int, starved int) {
		coords := make([]float64, 0, 2*n)
		for i := 0; i < n; i++ {
			coords = append(coords, float64(i))
		}
		dist := func(i, j int) float64 { return math.Abs(coords[i] - coords[j]) }
		key := func(i, j int, d float64) float64 {
			if i == pariah || j == pariah {
				return d + 1e9
			}
			return d
		}
		cfg := order.Config{Strategy: order.Multi, Key: key}
		if useGrid {
			box := func(id int) geom.Rect { return geom.RectFromUV(geom.UV{U: coords[id]}) }
			cfg.Pairer = NewGridPairer(1, box, dist, key)
		}
		q := order.New(cfg, n, dist)
		for {
			i, j, ok := q.Next()
			if !ok {
				break
			}
			seq = append(seq, [2]int{i, j})
			coords = append(coords, (coords[i]+coords[j])/2)
			q.Merged(len(coords) - 1)
		}
		return seq, q.Starved()
	}
	scanSeq, scanStarved := run(false)
	gridSeq, gridStarved := run(true)
	if len(gridSeq) != n-1 || len(scanSeq) != n-1 {
		t.Fatalf("merged %d (grid) / %d (scan) pairs, want %d", len(gridSeq), len(scanSeq), n-1)
	}
	for k := range scanSeq {
		if scanSeq[k] != gridSeq[k] {
			t.Fatalf("merge %d = %v (scan) != %v (grid)", k, scanSeq[k], gridSeq[k])
		}
	}
	if gridStarved == 0 || gridStarved != scanStarved {
		t.Fatalf("forced pairs: grid %d, scan %d; want equal and > 0", gridStarved, scanStarved)
	}
	for k, p := range gridSeq {
		if p[0] == pariah || p[1] == pariah {
			if k >= n-2 {
				t.Errorf("pariah merged at index %d (the final merge) — starved", k)
			}
			return
		}
	}
	t.Fatal("pariah never merged")
}

// powerLawPoints returns the sink locations of bench.PowerLaw(n) at seed in
// the uv-plane.
func powerLawPoints(n int, seed int64) []geom.UV {
	in := bench.PowerLaw(n, bench.PowerLawClusters, bench.PowerLawAlpha, seed)
	pts := make([]geom.UV, len(in.Sinks))
	for i, s := range in.Sinks {
		pts[i] = geom.ToUV(s.Loc)
	}
	return pts
}

// drainPoints runs a Multi merge queue with a preloaded grid pairer over
// pts down to one item, keyed by plain distance; a merged pair is replaced
// by its midpoint. evals, if not nil, counts every distance evaluation.
func drainPoints(pts []geom.UV, evals *atomic.Int64) *order.Queue {
	p := append([]geom.UV(nil), pts...)
	box := func(id int) geom.Rect { return geom.RectFromUV(p[id]) }
	dist := func(i, j int) float64 {
		if evals != nil {
			evals.Add(1)
		}
		return geom.DistUV(p[i], p[j])
	}
	boxes := make([]geom.Rect, len(p))
	for i := range boxes {
		boxes[i] = box(i)
	}
	q := order.New(order.Config{Strategy: order.Multi, Pairer: NewGridPairerFor(boxes, box, dist, nil)}, len(p), dist)
	for {
		i, j, ok := q.Next()
		if !ok {
			return q
		}
		p = append(p, geom.UV{U: (p[i].U + p[j].U) / 2, V: (p[i].V + p[j].V) / 2})
		q.Merged(len(p) - 1)
	}
}

// TestPairingDoesNoUncountedWork: every distance the pairing layer
// evaluates is accounted for by Scans. Draining 20k power-law points may
// evaluate the distance no more often than Scans counts candidates (the box
// lower bound skips some counted candidates, which leaves room for the
// uncounted anti-starvation queries, but only while those stay local). A
// queue or engine that evaluates distances outside its counted queries —
// the anti-starvation rule once scanned every live item for each starved
// one — fails it.
func TestPairingDoesNoUncountedWork(t *testing.T) {
	var evals atomic.Int64
	q := drainPoints(powerLawPoints(20_000, 2), &evals)
	if q.Starved() == 0 {
		t.Fatal("no forced pairs: the drain does not exercise the anti-starvation rule")
	}
	if e, s := evals.Load(), q.Scans(); e > s {
		t.Fatalf("%d distance evaluations exceed the %d counted pair scans (%d forced pairs)", e, s, q.Starved())
	}
	t.Logf("%d distance evaluations, %d pair scans, %d forced pairs", evals.Load(), q.Scans(), q.Starved())
}
