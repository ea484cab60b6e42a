package spatial

import (
	"repro/internal/geom"
	"repro/internal/order"
)

// GridPairer adapts Index to order.Pairer, the pluggable nearest-partner
// contract of the merging queue. It is the default engine above the router's
// size threshold; the all-pairs scan built into package order remains the
// oracle below it and for keys the grid cannot prune exactly.
//
// box supplies the current bounding box of an item at Insert time (for the
// router: the u/v bounds of the node's active region). dist is the exact
// pair distance and key the pair priority; key == nil means priority =
// distance. For exact results key(i,j,d) must be ≥ d, and d ≥ the distance
// of the two items' boxes, for every pair — see the package documentation on
// pruning soundness.
type GridPairer struct {
	idx  *Index
	box  func(id int) geom.Rect
	dist func(i, j int) float64
	key  func(i, j int, d float64) float64
	out  []order.Pair
	// prefilled marks ids bulk-inserted at construction (NewGridPairerFor):
	// the queue's initial Insert calls for them are no-ops, since their
	// boxes are already filed and boxes of live items never change.
	prefilled int
}

var _ order.Pairer = (*GridPairer)(nil)
var _ Keyer = (*GridPairer)(nil)

// NewGridPairer builds a GridPairer over an empty index with the given cell
// edge (see AutoCell and DensityCell). The index window is established from
// the first insert; NewGridPairerFor presizes it instead.
func NewGridPairer(cell float64, box func(id int) geom.Rect, dist func(i, j int) float64, key func(i, j int, d float64) float64) *GridPairer {
	if key == nil {
		key = func(_, _ int, d float64) float64 { return d }
	}
	return &GridPairer{idx: New(cell), box: box, dist: dist, key: key}
}

// NewGridPairerFor builds a GridPairer preloaded with the initial
// population under ids 0..len(boxes)-1: density-adapted cell edge
// (DensityCell), a window presized to the boxes' bounding box, and a bulk
// fill, so the merge queue's initial per-item inserts are no-ops and the
// warm-up triggers no rebuilds. box(id) must equal boxes[id] for the
// initial ids.
func NewGridPairerFor(boxes []geom.Rect, box func(id int) geom.Rect, dist func(i, j int) float64, key func(i, j int, d float64) float64) *GridPairer {
	p := NewGridPairer(DensityCell(boxes), box, dist, key)
	if len(boxes) > 0 {
		p.idx = NewBounded(p.idx.cell, boundsOf(boxes))
		p.idx.InsertAll(boxes)
		p.prefilled = len(boxes)
	}
	return p
}

// Index exposes the underlying grid (diagnostics and tests).
func (p *GridPairer) Index() *Index { return p.idx }

// Insert files the item under its current bounding box. The initial ids of
// a preloaded pairer (NewGridPairerFor) are already filed and skip refiling.
func (p *GridPairer) Insert(id int) {
	if id < p.prefilled {
		return
	}
	p.idx.Insert(id, p.box(id))
}

// Delete retires a merged item.
func (p *GridPairer) Delete(id int) { p.idx.Delete(id) }

// PairKey implements Keyer: the configured pair priority over the exact
// pair distance.
func (p *GridPairer) PairKey(self, cand int) float64 {
	return p.key(self, cand, p.dist(self, cand))
}

// Nearest returns id's best live partner by key, smallest index on ties.
func (p *GridPairer) Nearest(id int) (order.Pair, bool) {
	j, k, ok := p.idx.NearestScored(id, p)
	if !ok {
		return order.Pair{I: id, J: -1}, false
	}
	return order.Pair{Key: k, I: id, J: j}, true
}

// distKeyer scores candidates by the exact pair distance alone, the
// priority of the anti-starvation query. It is the pairer under another
// method set, so passing it as a Keyer allocates nothing.
type distKeyer GridPairer

func (p *distKeyer) PairKey(self, cand int) float64 { return p.dist(self, cand) }

// NearestByDistance returns id's nearest live partner by raw distance among
// the ids not marked in used, through the grid's ring search (exact: box
// distances lower-bound dist). The query is not counted: Scans, the
// query-rate trigger counters and so every rebuild decision stay exactly
// what they would be without it.
func (p *GridPairer) NearestByDistance(id int, used []bool) (order.Pair, bool) {
	j, d, _, _ := p.idx.nearestScored(id, (*distKeyer)(p), used)
	if j < 0 {
		return order.Pair{I: id, J: -1}, false
	}
	return order.Pair{Key: d, I: id, J: j}, true
}

// NearestAll shards the batch of queries across CPUs. Queries only read the
// index, and every result is written by position with smallest-index
// tie-breaking, so the output is identical at any GOMAXPROCS. The returned
// slice aliases an internal buffer valid until the next call.
func (p *GridPairer) NearestAll(ids []int) []order.Pair {
	if cap(p.out) < len(ids) {
		p.out = make([]order.Pair, len(ids))
	}
	out := p.out[:len(ids)]
	order.ParallelChunks(len(ids), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			out[t], _ = p.Nearest(ids[t])
		}
	})
	return out
}

// Scans reports cumulative candidate evaluations (the pairing-work metric).
func (p *GridPairer) Scans() int64 { return p.idx.Scans() }
