package spatial

import (
	"testing"

	"repro/internal/geom"
)

// BenchmarkNearestScored isolates the grid's key query: one op is one
// NearestScored call against the preloaded leaf boxes of the 100k-sink
// power-law placement at seed 9 (the placement of the pairing-bound
// benchmark workload), keyed by the exact box distance. scans/op is the
// candidate count per query; the query itself must not allocate.
func BenchmarkNearestScored(b *testing.B) {
	pts := powerLawPoints(100_000, 9)
	boxes := make([]geom.Rect, len(pts))
	for i, q := range pts {
		boxes[i] = geom.RectFromUV(q)
	}
	box := func(id int) geom.Rect { return boxes[id] }
	dist := func(i, j int) float64 { return geom.DistRR(boxes[i], boxes[j]) }
	p := NewGridPairerFor(boxes, box, dist, nil)
	x := p.Index()
	start := x.Scans()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A large odd stride walks the ids in a scattered order, so
		// consecutive queries do not share cache lines.
		x.NearestScored(i*7919%len(boxes), p)
	}
	b.StopTimer()
	b.ReportMetric(float64(x.Scans()-start)/float64(b.N), "scans/op")
}

// BenchmarkQueueDrain measures the pairing layer on its own: one op drains
// a Multi merge queue with a preloaded grid pairer over the 20k-sink
// power-law placement at seed 2, merging each pair to its midpoint (no
// merge bodies, no router). pair_scans and starved are the op's counted
// candidate evaluations and anti-starvation pairs.
func BenchmarkQueueDrain(b *testing.B) {
	pts := powerLawPoints(20_000, 2)
	var scans int64
	var starved int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := drainPoints(pts, nil)
		scans, starved = q.Scans(), q.Starved()
	}
	b.StopTimer()
	b.ReportMetric(float64(scans), "pair_scans")
	b.ReportMetric(float64(starved), "starved")
}
