package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/obs"
)

// tiny returns a small version of the named workload: the same code path
// on inputs that route in milliseconds.
func tiny(t *testing.T, name string) config {
	t.Helper()
	c, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	switch name {
	case "zst-p100k", "ast-p50k-s4":
		c.sinks = 3000 // above core.GridPairerThreshold: the grid pairer runs
	case "eco-p100k-s8":
		c.sinks = 4000
	case "paper-t2":
		c.circuits = bench.Suite()[:1]
		c.groupCounts = []int{4}
	}
	return c
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileNamesWhatTheProgramEmits(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, name, unit, better func(i int) string, n int) {
		if n != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, n, len(got))
		}
		for i, d := range got {
			if name(i) != d.name || unit(i) != d.unit || better(i) != d.better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, program {%s %s %s}",
					kind, i, name(i), unit(i), better(i), d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", endToEnd,
		func(i int) string { return bf.EndToEnd[i].Name },
		func(i int) string { return bf.EndToEnd[i].Unit },
		func(i int) string { return bf.EndToEnd[i].Better }, len(bf.EndToEnd))
	check("per_layer", perLayer,
		func(i int) string { return bf.PerLayer[i].Name },
		func(i int) string { return bf.PerLayer[i].Unit },
		func(i int) string { return bf.PerLayer[i].Better }, len(bf.PerLayer))
}

// checkMetrics asserts that res carries exactly the defined metrics with
// their units and finite values.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case v.Unit != d.unit:
			t.Errorf("metric %s: unit %q, want %q", d.name, v.Unit, d.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s: value %v", d.name, v.Value)
		}
	}
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c := tiny(t, w.name)
			for _, traced := range []bool{false, true} {
				var out strings.Builder
				res, err := run(c, defaultSeed, 0.01, traced, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 4 {
					t.Fatalf("traced %v: correct %v, %d of %d ops failed\n%s", traced, res.Correct, res.Failed, res.Attempted, out.String())
				}
				if !traced {
					checkMetrics(t, res, endToEnd)
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s reads %v", d.name, res.Metrics[d.name].Value)
						}
					}
					for _, name := range []string{"setup_s", "wall_s_p50", "fail_frac", "bound_excess_ps", "wire_reduction_pct", "eco_wire_ratio"} {
						if !strings.Contains(out.String(), "metric "+name+" = ") {
							t.Errorf("report lacks metric %s", name)
						}
					}
					continue
				}
				checkMetrics(t, res, perLayer)
				if f := res.Metrics["obs.attributed_frac"].Value; f < 0.5 || f > 1.01 {
					t.Errorf("obs.attributed_frac = %v", f)
				}
			}
		})
	}
}

// dropSink corrupts a routed tree so that one sink is missing: the first
// internal node on the left spine with a leaf child gets its other child
// in that leaf's place.
func dropSink(root *ctree.Node) {
	for n := root; n != nil && !n.IsLeaf(); n = n.Left {
		if n.Left.IsLeaf() {
			n.Left = n.Right
			return
		}
	}
}

func TestCorruptedOutputCountsAsFailure(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c := tiny(t, w.name)
			c.mutate = dropSink
			res, err := run(c, defaultSeed, 0.01, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != res.Attempted {
				t.Errorf("correct %v, %d of %d ops failed; want every op failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// flakyRunner routes nothing; its signature changes from op to op, as a
// nondeterministic router's would.
type flakyRunner struct{ n int }

func (f *flakyRunner) describe() string                             { return "flaky" }
func (f *flakyRunner) jsonMB() float64                              { return 0 }
func (f *flakyRunner) prepare() error                               { return nil }
func (f *flakyRunner) finish(io.Writer) (map[string]float64, error) { return nil, nil }
func (f *flakyRunner) op(*obs.Trace) opOut {
	f.n++
	if f.n == 3 {
		return opOut{err: errors.New("routing failed")}
	}
	return opOut{wire: 1, sig: strings.Repeat("x", f.n%2)}
}

func TestFailedAndNondeterministicOpsCount(t *testing.T) {
	h := &harness{r: &flakyRunner{}, w: io.Discard, sigs: map[string]string{}}
	for i := 0; i < 4; i++ {
		if _, _, err := h.one("op", false); err != nil {
			t.Fatal(err)
		}
	}
	// Op 1 sets the signature, op 2 differs, op 3 errors, op 4 differs.
	if h.attempted != 4 || h.failed != 3 {
		t.Errorf("%d of %d ops failed, want 3 of 4", h.failed, h.attempted)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	c := tiny(t, "zst-p100k")
	inputs := func(seed int64) *ctree.Instance {
		r, err := c.setup(c, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.(*zstRunner).in
	}
	ref := bench.PowerLaw(c.sinks, bench.PowerLawClusters, bench.PowerLawAlpha, defaultSeed)
	if !reflect.DeepEqual(inputs(defaultSeed).Sinks, ref.Sinks) {
		t.Error("the default seed does not give the reference placement")
	}
	if !reflect.DeepEqual(inputs(3), inputs(3)) {
		t.Error("seed 3 gave two different inputs")
	}
	if reflect.DeepEqual(inputs(3).Sinks, inputs(4).Sinks) {
		t.Error("seeds 3 and 4 gave the same input")
	}

	p := tiny(t, "paper-t2")
	r, err := p.setup(p, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := p.circuits[0]
	want := bench.Intermingled(bench.Generate(sp), 4, sp.Seed*1000+4)
	if got := r.(*paperRunner).circuits[0].grp[0]; !reflect.DeepEqual(got.Sinks, want.Sinks) {
		t.Error("paper-t2 at the default seed does not use experiments.Table's grouping")
	}
}

// The zero-skew check reads float noise relative to the delays as zero, as
// the repository's own zero-skew tests do, and a real skew as a failure.
func TestZeroSkewToleratesOnlyFloatNoise(t *testing.T) {
	for _, c := range []struct {
		skew, maxDelay float64
		want           bool
	}{
		// A 100k-sink route measured 2.26e-6 ps at delays of thousands of ps.
		{2.26e-6, 3000, true},
		{2.26e-6, 0, false},
		{0.01, 3000, false},
	} {
		if got := zeroSkew(&eval.Report{GlobalSkew: c.skew, MaxDelay: c.maxDelay}); got != c.want {
			t.Errorf("skew %g ps at max delay %g ps: zero skew %v, want %v", c.skew, c.maxDelay, got, c.want)
		}
	}
}
