// Command perfbench is the repository benchmark: it times the astdme
// pipeline end to end, and layer by layer, on four workloads.
//
//	bash perfbench/run.sh --workload zst-p100k --seed 9 --seconds 20 --trace 0
//
// An op is one unit of work as an astdme user pays for it: route, then
// eval.CheckTree, then eval.Analyze, on an instance loaded once during
// set-up. The workloads, from pairing-bound to wire-bound:
//
//   - zst-p100k: a single-group zero-skew route of 100k power-law sinks,
//     unsharded. Pairing is ~95% of the route. The placement is PowerLaw
//     seed 9, whose pair-scan count is ~3× that of typical seeds; other run
//     seeds mirror and relabel it, so every run keeps that defect in view.
//   - ast-p50k-s4: AST-DME at 10 ps on 50k power-law sinks in 4
//     intermingled groups, sharded 4 ways with the pilot: the cold grouped
//     pipeline (partition, pilot, dispatch, stitch, finalize).
//   - eco-p100k-s8: the same kind of instance at 100k sinks and 8 shards;
//     an op is one chained ECO hop: unmarshal the cache, rebuild, check and
//     analyze, marshal the cache for the next hop.
//   - paper-t2: the thesis's Table II (r1–r5, intermingled k ∈ {4, 6, 8,
//     10}, AST-DME at 10 ps, one EXT-BST row per circuit); an op is the
//     whole table.
//
// Inputs come from --seed alone. Each run sets up at least three times
// (setup_s is the median), runs one warm-up op reported on its own, then
// ops until --seconds would be exceeded (at least three). --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced ops and
// reports the per-layer metrics, taken from the benchmark's own obs spans
// around each public call and the program's spans nested under them.
//
// Human-readable report lines come first on standard output; the last line
// is one JSON object {correct, attempted, failed, metrics}. An op fails
// when it returns an error or an output check fails: eval.CheckTree, zero
// global skew (up to float noise) on zst-p100k, or a signature (wire bits
// and stats) differing from an earlier op on the same input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/obs"
)

// A run sets up at least minSetups times and, while the set-ups so far
// took less than setupSeconds, up to maxSetups times; setup_s is their
// median. Cheap set-ups thus get enough samples to be steady.
const (
	minSetups    = 3
	maxSetups    = 15
	setupSeconds = 2.0
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: zst-p100k | ast-p50k-s4 | eco-p100k-s8 | paper-t2")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring time after the warm-up op")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	c, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(c, *seed, *seconds, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// harness accumulates the ops of one run.
type harness struct {
	r         runner
	w         io.Writer
	attempted int
	failed    int
	sigs      map[string]string
	// untraced and traced are the successful measured ops' samples; the
	// warm-up op is in neither.
	untraced, traced []sample
	layers           []map[string]float64 // one per successful traced op
	wire, excess     float64
}

// one prepares and runs one op, traced or not, and books its outcome.
func (h *harness) one(label string, traced bool) (sample, bool, error) {
	if err := h.r.prepare(); err != nil {
		return sample{}, false, err
	}
	runtime.GC()
	var tr *obs.Trace
	if traced {
		tr = obs.New("op")
	}
	m := startMeter()
	out := h.r.op(tr)
	s := m.stop()
	tr.Close()
	h.attempted++
	if out.err == nil {
		if prev, ok := h.sigs[out.key]; ok && prev != out.sig {
			out.err = fmt.Errorf("output differs from an earlier op on the same input: %s vs %s", out.sig, prev)
		} else {
			h.sigs[out.key] = out.sig
		}
	}
	status := "ok"
	if out.err != nil {
		h.failed++
		status = "FAILED: " + out.err.Error()
	} else {
		h.wire = out.wire
		h.excess = math.Max(h.excess, out.excess)
		if traced {
			h.layers = append(h.layers, opLayers(tr, out))
		}
	}
	fmt.Fprintf(h.w, "%s: wall %.4f s, cpu %.4f s, alloc %.1f MB, traced %v: %s\n", label, s.wall, s.cpu, s.allocMB, traced, status)
	return s, out.err == nil, nil
}

// run sets the workload up, runs its ops and returns the result line.
// Report lines go to w.
func run(c config, seed int64, seconds float64, traced bool, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %g s, trace %v\n", c.name, seed, seconds, traced)
	if prov, err := json.Marshal(obs.CollectProvenance()); err == nil {
		fmt.Fprintf(w, "provenance: %s\n", prov)
	}

	var r runner
	var setupWall []float64
	var setupMaps []map[string]float64
	spent := 0.0
	for i := 0; i < minSetups || (i < maxSetups && spent < setupSeconds); i++ {
		r = nil // let the previous set-up's inputs be collected
		runtime.GC()
		var tr *obs.Trace
		if traced {
			tr = obs.New("setup")
		}
		start := time.Now()
		nr, err := c.setup(c, seed, tr)
		setupWall = append(setupWall, time.Since(start).Seconds())
		spent += setupWall[i]
		tr.Close()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r = nr
		if traced {
			setupMaps = append(setupMaps, setupLayers(tr, r))
		}
	}
	fmt.Fprintf(w, "input: %s; instance JSON %.2f MB\n", r.describe(), r.jsonMB())

	h := &harness{r: r, w: w, sigs: map[string]string{}}
	warm, _, err := h.one("warm-up op (not in medians)", false)
	if err != nil {
		return nil, err
	}
	// Ops run until the next one is predicted to end past the budget;
	// traced runs alternate untraced and traced ops.
	minOps := 3
	if traced {
		minOps = 4
	}
	start, last := time.Now(), warm.wall
	for n := 0; n < minOps || time.Since(start).Seconds()+last <= seconds; n++ {
		tracedOp := traced && n%2 == 1
		s, ok, err := h.one(fmt.Sprintf("op %d", n+1), tracedOp)
		if err != nil {
			return nil, err
		}
		last = s.wall
		if ok && tracedOp {
			h.traced = append(h.traced, s)
		} else if ok {
			h.untraced = append(h.untraced, s)
		}
	}

	extra, err := r.finish(w)
	correct := h.failed == 0
	if err != nil {
		fmt.Fprintf(w, "FAILED: %v\n", err)
		correct = false
	}

	res := &result{Correct: correct, Attempted: h.attempted, Failed: h.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, d := range perLayer {
			maps := h.layers
			if d.setup {
				maps = setupMaps
			}
			vals := make([]float64, len(maps))
			for i, m := range maps {
				vals[i] = m[d.name]
			}
			res.Metrics[d.name] = metricValue{median(vals), d.unit}
		}
		// The overhead compares the traced ops with the untraced ones.
		overhead := 0.0
		if u := median(column(h.untraced, wallOf)); u > 0 {
			overhead = median(column(h.traced, wallOf))/u - 1
		}
		res.Metrics["obs.trace_overhead_frac"] = metricValue{overhead, "frac"}
		for _, d := range perLayer {
			fmt.Fprintf(w, "layer %s = %.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
		}
		return res, nil
	}

	values := map[string]float64{
		"setup_s":      median(setupWall),
		"wall_s_p50":   median(column(h.untraced, wallOf)),
		"cpu_s_p50":    median(column(h.untraced, func(s sample) float64 { return s.cpu })),
		"alloc_mb_p50": median(column(h.untraced, func(s sample) float64 { return s.allocMB })),
		"peak_rss_mb":  peakRSSMB(),
		"wirelength":   h.wire,
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}

	n := len(h.untraced)
	fmt.Fprintf(w, "metric setup_s = %.4f s (median of %d set-ups)\n", values["setup_s"], len(setupWall))
	fmt.Fprintf(w, "metric wall_s_p50 = %.4f s (median of %d ops; warm-up op %.4f s)\n", values["wall_s_p50"], n, warm.wall)
	fmt.Fprintf(w, "metric cpu_s_p50 = %.4f s (median of %d ops; warm-up op %.4f s)\n", values["cpu_s_p50"], n, warm.cpu)
	fmt.Fprintf(w, "metric alloc_mb_p50 = %.1f MB (median of %d ops; warm-up op %.1f MB)\n", values["alloc_mb_p50"], n, warm.allocMB)
	fmt.Fprintf(w, "metric peak_rss_mb = %.1f MB (whole run)\n", values["peak_rss_mb"])
	fmt.Fprintf(w, "metric fail_frac = %.4g (%d of %d ops failed, warm-up included)\n", float64(h.failed)/float64(h.attempted), h.failed, h.attempted)
	fmt.Fprintf(w, "metric wirelength = %.10g layout_units (last op)\n", h.wire)
	fmt.Fprintf(w, "metric bound_excess_ps = %.6g ps (max over %d ops)\n", h.excess, h.attempted-h.failed)
	for _, name := range []string{"wire_reduction_pct", "eco_wire_ratio"} {
		if v, ok := extra[name]; ok {
			fmt.Fprintf(w, "metric %s = %.6g\n", name, v)
		} else {
			fmt.Fprintf(w, "metric %s = n/a on %s\n", name, c.name)
		}
	}
	return res, nil
}

func wallOf(s sample) float64 { return s.wall }
