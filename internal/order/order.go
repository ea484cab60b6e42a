// Package order implements the bottom-up merging order for DME-family clock
// routers: the minimum merging-cost scheme of greedy-DME (Edahiro 1993),
// optionally with the two enhancements named in the thesis (Ch. V.F):
//
//  1. simultaneous multiple mergings per round, which cuts the number of
//     nearest-neighbor recomputations and hence runtime; and
//  2. a delay-target-aware priority that merges subtrees with large delays
//     first, reducing delay-target imbalance and thus wire snaking.
//
// The queue works on abstract item indices: the router supplies a distance
// function (typically geom.DistRR over node regions) and, after each merge,
// registers the replacement item. Distances between two live items never
// change during a run (regions are committed at creation), which the greedy
// strategy exploits for a simple lazy-deletion pairing heap.
//
// # Pairers
//
// All nearest-partner queries go through the pluggable Pairer interface.
// The built-in implementation (Config.Pairer == nil) is the all-pairs scan:
// exact for any key function and O(n) per query, which makes every round of
// the Multi strategy O(n²) — the oracle that caps practical instances at a
// few thousand sinks. Sub-quadratic engines (see internal/spatial for the
// uniform-grid pairer after Edahiro's bucket decomposition) plug in through
// Config.Pairer and must reproduce the oracle's results exactly on tie-free
// inputs; differential tests in internal/spatial enforce this.
//
// Batch pairing (NearestAll) may shard its queries across goroutines. All
// results are written by position and ties break toward the smallest item
// index, so merge sequences are reproducible across GOMAXPROCS settings.
//
// # Batched consumption
//
// NextBatch exposes each round's disjoint merge set at once (the pairs of
// one batch never share a subtree); the router merges them in batch order
// and registers the results with Merged in the same order. Next remains the
// one-pair-at-a-time view of the same sequence; mixing the two mid-run is
// supported, and both produce identical merge orders.
package order

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Strategy selects how aggressively merges are batched.
type Strategy int

const (
	// Multi (the default) performs simultaneous multiple mergings — the
	// thesis's enhancement 1, after Edahiro: each round it computes the
	// nearest-neighbor pairing of all live items and merges the shortest
	// disjoint fraction of those pairs before re-pairing.
	Multi Strategy = iota
	// Greedy merges exactly one globally minimum-cost pair at a time
	// (classic greedy-DME order).
	Greedy
)

// Pair is a candidate merge: item I paired with its best partner J at
// priority Key. J is -1 when no partner exists.
type Pair struct {
	Key  float64
	I, J int
}

// Pairer is the nearest-partner engine behind a Queue. Contract:
//
//   - Insert and Delete maintain the live set; item ids are never reused and
//     only grow. Both are called from a single goroutine.
//   - Nearest returns the live partner j ≠ id minimizing the pair key. Exact
//     key ties break toward the smallest j, so results are deterministic.
//     ok is false when no candidate remains.
//   - NearestAll is the batch form over a slice of live ids. It may shard the
//     queries across goroutines but must return, at each position, exactly
//     what Nearest(ids[t]) would (J = -1 when no partner exists). The
//     returned slice may alias an internal buffer: it is valid only until
//     the next NearestAll call.
//   - Scans reports the cumulative number of candidate key evaluations — the
//     pairing-work metric recorded by the scaling benchmarks.
type Pairer interface {
	Insert(id int)
	Delete(id int)
	Nearest(id int) (Pair, bool)
	NearestAll(ids []int) []Pair
	Scans() int64
}

// Config parameterizes a Queue.
type Config struct {
	// Strategy selects Multi (the default) or Greedy.
	Strategy Strategy
	// BatchFraction is the fraction of live items merged per Multi round,
	// in (0, 0.5]; 0 selects the default 0.5.
	BatchFraction float64
	// Key optionally overrides the pair priority. It receives the two item
	// indices and their distance and returns the priority (lower merges
	// first). Nil means priority = distance. Used for the delay-target
	// enhancement. Batch pairing evaluates Key from concurrent goroutines,
	// so it must be safe for concurrent calls (pure functions are; closures
	// that memoize or otherwise mutate shared state are not).
	Key func(i, j int, dist float64) float64
	// Pairer overrides the nearest-partner engine. Nil selects the built-in
	// all-pairs scan (the exact O(n²)-per-round oracle). Sub-quadratic
	// engines must satisfy the Pairer contract; note that grid pairers prune
	// on geometric lower bounds and therefore require Key ≥ distance for
	// every pair (see internal/spatial).
	Pairer Pairer
}

// Queue produces the sequence of merges. Item indices 0..n-1 are the initial
// items; Merged registers replacement items with increasing indices.
type Queue struct {
	cfg    Config
	dist   func(i, j int) float64
	pairer Pairer
	alive  []bool
	live   int

	// Greedy state.
	h pairHeap

	// Multi state.
	batch  []Pair
	cursor int   // batch[:cursor] already handed out by Next
	age    []int // rounds an item has survived unmerged (anti-starvation)

	// Reused per-round scratch (buildBatch, NextBatch).
	ids  []int
	used []bool
	out  []Pair

	// batchTime accumulates wall time spent inside NextBatch — the pairing
	// and batch-selection cost of the run, separable from the merge bodies.
	// Measured unconditionally (two clock reads per round, no allocations)
	// and read back through BatchTime by traced callers.
	batchTime time.Duration
}

// starveRounds is the number of Multi rounds an item may go unmerged before
// it is force-paired regardless of cost. Without this, items whose pairings
// all look expensive (e.g. delay-imbalanced leftovers) lose their preferred
// partners every round and end up absorbing the mismatch at the tree root,
// where it is most expensive.
const starveRounds = 3

// pairLess is the (Key, I, J) strict total order used everywhere a set of
// candidate pairs is ranked: the index tie-breaks keep Greedy's heap pops
// and Multi's batch selection deterministic under exact key ties.
func pairLess(a, b Pair) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// pairHeap is a slice-backed binary min-heap ordered by pairLess. It avoids
// the interface{} boxing of container/heap (one allocation per Push/Pop) and
// is preallocated to the initial item count: the steady-state heap holds one
// candidate per live item plus transient stale entries.
type pairHeap struct{ s []Pair }

func (h *pairHeap) len() int { return len(h.s) }

func (h *pairHeap) push(p Pair) {
	h.s = append(h.s, p)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pairLess(h.s[i], h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *pairHeap) pop() Pair {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < last && pairLess(h.s[l], h.s[least]) {
			least = l
		}
		if r < last && pairLess(h.s[r], h.s[least]) {
			least = r
		}
		if least == i {
			break
		}
		h.s[i], h.s[least] = h.s[least], h.s[i]
		i = least
	}
	return top
}

// New builds a queue over n initial items with the given distance function.
func New(cfg Config, n int, dist func(i, j int) float64) *Queue {
	if cfg.BatchFraction <= 0 || cfg.BatchFraction > 0.5 {
		cfg.BatchFraction = 0.5
	}
	q := &Queue{cfg: cfg, dist: dist, alive: make([]bool, 0, 2*n), live: n}
	q.pairer = cfg.Pairer
	if q.pairer == nil {
		q.pairer = &scanPairer{dist: dist, key: q.key}
	}
	for i := 0; i < n; i++ {
		q.alive = append(q.alive, true)
		q.age = append(q.age, 0)
		q.pairer.Insert(i)
	}
	if cfg.Strategy == Greedy {
		q.h.s = make([]Pair, 0, 2*n)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		for _, p := range q.pairer.NearestAll(ids) {
			if p.J >= 0 {
				q.h.push(p)
			}
		}
	}
	return q
}

// key returns the pair priority.
func (q *Queue) key(i, j int, d float64) float64 {
	if q.cfg.Key != nil {
		return q.cfg.Key(i, j, d)
	}
	return d
}

// pushNN finds item i's best partner among live items and pushes the pair.
func (q *Queue) pushNN(i int) {
	if p, ok := q.pairer.Nearest(i); ok {
		q.h.push(p)
	}
}

// Next returns the next pair of live items to merge. ok is false when fewer
// than two items remain. The caller must mark the result of the merge with
// Merged before the subsequent Next (Greedy) or after draining the current
// batch (Multi).
func (q *Queue) Next() (i, j int, ok bool) {
	switch q.cfg.Strategy {
	case Greedy:
		if q.live < 2 {
			return 0, 0, false
		}
		return q.nextGreedy()
	default:
		if q.cursor >= len(q.batch) && q.live < 2 {
			return 0, 0, false
		}
		return q.nextMulti()
	}
}

// NextBatch returns the next round's batch of disjoint merges, retiring all
// its items, or nil when fewer than two items remain. Under Greedy the batch
// always holds a single pair; under Multi it holds the whole round. The
// pairs of one batch never share an item; results must be registered with
// Merged in batch order. The returned slice is valid until the next
// NextBatch or Next call.
func (q *Queue) NextBatch() []Pair {
	start := obs.Now()
	out := q.nextBatch()
	q.batchTime += obs.Since(start)
	return out
}

// BatchTime reports the accumulated wall time of all NextBatch calls: the
// run's pairing/selection cost. Greedy's incremental heap refreshes inside
// Merged are not included (Greedy is not the batched strategy's path).
func (q *Queue) BatchTime() time.Duration { return q.batchTime }

func (q *Queue) nextBatch() []Pair {
	switch q.cfg.Strategy {
	case Greedy:
		if q.live < 2 {
			return nil
		}
		i, j, ok := q.nextGreedy()
		if !ok {
			return nil
		}
		q.out = append(q.out[:0], Pair{I: i, J: j})
		return q.out
	default:
		if q.cursor >= len(q.batch) {
			if q.live < 2 {
				return nil
			}
			q.buildBatch()
			if len(q.batch) == 0 {
				return nil
			}
		}
		rest := q.batch[q.cursor:]
		q.cursor = len(q.batch)
		for _, p := range rest {
			q.retire(p.I, p.J)
		}
		return rest
	}
}

// retire marks both items of a chosen pair dead, here and in the pairer.
func (q *Queue) retire(i, j int) {
	q.alive[i], q.alive[j] = false, false
	q.pairer.Delete(i)
	q.pairer.Delete(j)
	q.live -= 2
}

func (q *Queue) nextGreedy() (int, int, bool) {
	for q.h.len() > 0 {
		p := q.h.pop()
		ai, aj := q.alive[p.I], q.alive[p.J]
		switch {
		case ai && aj:
			q.retire(p.I, p.J)
			return p.I, p.J, true
		case ai:
			q.pushNN(p.I) // partner died: refresh
		case aj:
			q.pushNN(p.J)
		}
	}
	return 0, 0, false
}

func (q *Queue) nextMulti() (int, int, bool) {
	if q.cursor >= len(q.batch) {
		q.buildBatch()
		if len(q.batch) == 0 {
			return 0, 0, false
		}
	}
	p := q.batch[q.cursor]
	q.cursor++
	q.retire(p.I, p.J)
	return p.I, p.J, true
}

// buildBatch computes the nearest-neighbor pairing of all live items and
// keeps the shortest disjoint pairs, at least one and at most
// ceil(live/2 · 2·BatchFraction). The pairing itself runs through the
// pairer's batch query (parallelizable); the final disjoint selection is a
// deterministic sequential sweep in (key, index) order.
func (q *Queue) buildBatch() {
	q.batch = q.batch[:0]
	q.cursor = 0
	ids := q.ids[:0]
	for i, a := range q.alive {
		if a {
			ids = append(ids, i)
		}
	}
	q.ids = ids
	if len(ids) < 2 {
		return
	}
	all := q.pairer.NearestAll(ids)
	cand := all[:0]
	for _, p := range all {
		if p.J >= 0 {
			cand = append(cand, p)
		}
	}
	// pairLess is a strict total order over the candidates (one entry per
	// item), so the sorted sequence — and hence the selected batch — is
	// reproducible regardless of sort stability or pairing parallelism.
	// (slices.SortFunc, unlike sort.Slice, builds no reflect swapper: this
	// sort runs every Multi round and stays allocation-free.)
	slices.SortFunc(cand, func(a, b Pair) int {
		switch {
		case pairLess(a, b):
			return -1
		case pairLess(b, a):
			return 1
		default:
			return 0
		}
	})
	limit := int(math.Ceil(float64(len(ids)) * q.cfg.BatchFraction))
	if limit < 1 {
		limit = 1
	}
	for len(q.used) < len(q.alive) {
		q.used = append(q.used, false)
	}
	used := q.used
	for _, i := range ids {
		used[i] = false
	}
	// Anti-starvation first: force-pair long-waiting items before the normal
	// selection can claim their partners. Running this after the selection
	// (the original order) leaves a starved item stranded whenever the
	// round's disjoint pairing covers every other item, which on odd-sized
	// rounds is exactly the starved item's fate. The partner is chosen by
	// raw distance, not key: the key penalty is what starved the item in the
	// first place, and the rule merges it "regardless of cost". Starved
	// items are rare, so the O(live) scan here does not affect scaling.
	for _, i := range ids {
		if used[i] || q.age[i] < starveRounds {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for _, j := range ids {
			if j == i || used[j] {
				continue
			}
			if d := q.dist(i, j); d < bestD || (d == bestD && j < best) {
				best, bestD = j, d
			}
		}
		if best >= 0 {
			used[i], used[best] = true, true
			q.batch = append(q.batch, Pair{Key: bestD, I: i, J: best})
		}
	}
	for _, p := range cand {
		if len(q.batch) >= limit {
			break
		}
		if used[p.I] || used[p.J] {
			continue
		}
		used[p.I], used[p.J] = true, true
		q.batch = append(q.batch, p)
	}
	// Items left unmatched this round age by one.
	for _, i := range ids {
		if !used[i] {
			q.age[i]++
		}
	}
}

// Merged registers the item that replaced the most recent merge(s). Items
// must be registered with strictly increasing indices equal to len(alive).
func (q *Queue) Merged(newID int) {
	if newID != len(q.alive) {
		panic("order: Merged called with non-sequential id")
	}
	q.alive = append(q.alive, true)
	q.age = append(q.age, 0)
	q.live++
	q.pairer.Insert(newID)
	if q.cfg.Strategy == Greedy {
		q.pushNN(newID)
	}
}

// Live returns the number of live (unmerged) items.
func (q *Queue) Live() int { return q.live }

// Scans reports the cumulative number of candidate key evaluations performed
// by the pairer — the pairing-work metric of the scaling benchmarks.
func (q *Queue) Scans() int64 { return q.pairer.Scans() }

// scanPairer is the built-in oracle engine: a linear scan over all live
// items per query. Exact for any key function.
type scanPairer struct {
	alive []bool
	dist  func(i, j int) float64
	key   func(i, j int, d float64) float64
	out   []Pair
	scans atomic.Int64
}

func (p *scanPairer) Insert(id int) {
	for len(p.alive) <= id {
		p.alive = append(p.alive, false)
	}
	p.alive[id] = true
}

func (p *scanPairer) Delete(id int) {
	if id >= 0 && id < len(p.alive) {
		p.alive[id] = false
	}
}

func (p *scanPairer) Nearest(i int) (Pair, bool) {
	best, bestKey := -1, math.Inf(1)
	var n int64
	for j := range p.alive {
		if j == i || !p.alive[j] {
			continue
		}
		n++
		k := p.key(i, j, p.dist(i, j))
		if k < bestKey || (k == bestKey && j < best) {
			best, bestKey = j, k
		}
	}
	p.scans.Add(n)
	if best < 0 {
		return Pair{I: i, J: -1}, false
	}
	return Pair{Key: bestKey, I: i, J: best}, true
}

func (p *scanPairer) NearestAll(ids []int) []Pair {
	if cap(p.out) < len(ids) {
		p.out = make([]Pair, len(ids))
	}
	out := p.out[:len(ids)]
	ParallelChunks(len(ids), func(lo, hi int) {
		for t := lo; t < hi; t++ {
			out[t], _ = p.Nearest(ids[t])
		}
	})
	return out
}

func (p *scanPairer) Scans() int64 { return p.scans.Load() }

// parallelMin is the batch size below which ParallelChunks runs inline:
// under ~a couple hundred queries the goroutine fan-out costs more than the
// scan itself.
const parallelMin = 192

// ParallelChunks splits [0, n) into contiguous chunks, one per available
// CPU, and calls f(lo, hi) for each — inline when n is small. Callers write
// results by position, so output is deterministic regardless of scheduling.
// Shared by the built-in scan pairer and external engines (internal/spatial).
func ParallelChunks(n int, f func(lo, hi int)) {
	ParallelChunksN(n, runtime.GOMAXPROCS(0), parallelMin, f)
}

// WorkerPanic is a panic captured on a ParallelChunks worker goroutine and
// re-raised on the calling goroutine. A panic left on a spawned goroutine is
// unrecoverable anywhere else and kills the process; funneling it through
// the caller lets a recover at the phase boundary (the dispatch layer's
// panic containment) turn it into an error instead. Value is the original
// panic value, Stack the worker goroutine's stack at capture.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("order: parallel worker panicked: %v\n%s", w.Value, w.Stack)
}

// ParallelChunksN is ParallelChunks with an explicit worker count and inline
// threshold: n below minInline (or workers ≤ 1) runs f(0, n) on the calling
// goroutine. A panicking chunk does not kill the process: the remaining
// chunks finish, then the first captured panic is re-raised on the calling
// goroutine as a *WorkerPanic (the inline path lets the panic propagate
// directly — it is already on the caller).
func ParallelChunksN(n, workers, minInline int, f func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if n < minInline || workers <= 1 {
		f(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked *WorkerPanic
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = &WorkerPanic{Value: r, Stack: debug.Stack()}
					}
					panicMu.Unlock()
				}
			}()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
