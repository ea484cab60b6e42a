package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestNilTraceNoOps: the disabled-path contract — every method on a nil
// trace/probe and on the zero Region is a safe no-op, with zero allocations.
func TestNilTraceNoOps(t *testing.T) {
	var tr *Trace
	var p *Probe
	allocs := testing.AllocsPerRun(100, func() {
		r := tr.Begin("x").Attr("k", 1)
		r.End()
		tr.Metric("m", 1)
		if tr.Child("c") != nil {
			t.Fatal("nil trace Child must be nil")
		}
		tr.AttachProbe(nil)
		tr.SetProvenance(nil)
		tr.Close()
		_ = tr.Wall()
		_ = tr.Label()
		_ = tr.Enabled()
		_ = tr.Dropped()
		_ = tr.Children()
		_, _ = tr.MetricValue("m")
		p.Record("l", 0, 0, 0, 0, 0, 0, nil)
		_ = p.Events()
		_ = p.Name()
		_ = p.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace path allocated: %v allocs/op", allocs)
	}
	if tr.Summary() != nil {
		t.Fatal("nil trace Summary must be nil")
	}
	if tr.Report() != "" {
		t.Fatal("nil trace Report must be empty")
	}
}

// TestEnabledTraceNoAllocsAfterConstruction: Begin/Attr/End/Metric on an
// enabled trace reuse the preallocated arenas.
func TestEnabledTraceNoAllocsAfterConstruction(t *testing.T) {
	tr := NewWithCap("t", 4096)
	tr.Metric("m", 0) // pre-create the metric entry
	allocs := testing.AllocsPerRun(1000, func() {
		r := tr.Begin("phase").Attr("a", 1).Attr("b", 2)
		r.End()
		tr.Metric("m", 1)
	})
	if allocs != 0 {
		t.Fatalf("enabled-trace span path allocated: %v allocs/op", allocs)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := New("t")
	outer := tr.Begin("outer")
	inner := tr.Begin("inner")
	inner.End()
	sibling := tr.Begin("inner2")
	sibling.End()
	outer.End()
	top := tr.Begin("top2")
	top.End()
	tr.Close()

	if got := len(tr.spans); got != 4 {
		t.Fatalf("spans = %d, want 4", got)
	}
	wantParents := []int32{-1, 0, 0, -1}
	for i, want := range wantParents {
		if tr.spans[i].parent != want {
			t.Errorf("span %d (%s) parent = %d, want %d", i, tr.spans[i].name, tr.spans[i].parent, want)
		}
	}
	if len(tr.stack) != 0 {
		t.Errorf("stack not empty after all Ends: %v", tr.stack)
	}
	for i := range tr.spans {
		if tr.spans[i].dur < 0 {
			t.Errorf("span %d negative duration", i)
		}
	}
}

func TestSpanCapacityDrops(t *testing.T) {
	tr := NewWithCap("t", 2)
	tr.Begin("a").End()
	tr.Begin("b").End()
	r := tr.Begin("c") // arena full: inert
	r.Attr("k", 1)
	r.End()
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if got := len(tr.spans); got != 2 {
		t.Fatalf("spans = %d, want 2", got)
	}
}

func TestAttrLimit(t *testing.T) {
	tr := New("t")
	r := tr.Begin("s")
	for i := 0; i < maxAttrs+3; i++ {
		r.Attr("k", float64(i))
	}
	r.End()
	if got := int(tr.spans[0].nattrs); got != maxAttrs {
		t.Fatalf("nattrs = %d, want %d", got, maxAttrs)
	}
}

func TestMetricAccumulationAndChildren(t *testing.T) {
	tr := New("root")
	tr.Metric("m", 2)
	tr.Metric("m", 3)
	c1 := tr.Child("c1")
	c1.Metric("m", 10)
	c2 := tr.Child("c2")
	c2.Metric("m", 100)
	c2.Metric("other", 7)

	if v, ok := tr.MetricValue("m"); !ok || v != 115 {
		t.Fatalf("MetricValue(m) = %v, %v; want 115, true", v, ok)
	}
	if v, ok := tr.MetricValue("other"); !ok || v != 7 {
		t.Fatalf("MetricValue(other) = %v, %v; want 7, true", v, ok)
	}
	if _, ok := tr.MetricValue("absent"); ok {
		t.Fatal("MetricValue(absent) found")
	}
	if got := len(tr.Children()); got != 2 {
		t.Fatalf("children = %d, want 2", got)
	}
}

func TestSummaryAndReport(t *testing.T) {
	tr := New("run")
	a := tr.Begin("build")
	time.Sleep(2 * time.Millisecond)
	a.End()
	b := tr.Begin("eval")
	time.Sleep(time.Millisecond)
	b.End()
	tr.Close()

	s := tr.Summary()
	if s.Label != "run" {
		t.Fatalf("label = %q", s.Label)
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "build" || s.Phases[1].Name != "eval" {
		t.Fatalf("phases = %+v", s.Phases)
	}
	if s.CoveredMS <= 0 || s.CoveredMS > s.WallMS {
		t.Fatalf("covered %v of wall %v", s.CoveredMS, s.WallMS)
	}

	rep := tr.Report()
	for _, want := range []string{"run:", "build", "eval"} {
		if !bytes.Contains([]byte(rep), []byte(want)) {
			t.Errorf("report %q missing %q", rep, want)
		}
	}
}

func TestProbeRecordAndCapacity(t *testing.T) {
	p := NewProbe("sneak", 2, 4)
	p.Record("window", 1, 0, 5.0, -1, 1, 0, []float64{0, 2.5})
	p.Record("sneak", 1, 1, 0.0, -1, 1, 3.5, []float64{0, 2.5})
	p.Record("window", 2, 0, 1, 0, 0, 0, nil) // events full
	if got := p.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	ev := p.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	if ev[0].Label != "window" || ev[0].Gap != 5.0 || len(ev[0].Vals) != 2 || ev[0].Vals[1] != 2.5 {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Label != "sneak" || ev[1].Wire != 3.5 {
		t.Fatalf("event 1 = %+v", ev[1])
	}

	// Vals slab exhaustion drops too.
	p2 := NewProbe("x", 8, 3)
	p2.Record("a", 0, 0, 0, 0, 0, 0, []float64{1, 2})
	p2.Record("b", 0, 0, 0, 0, 0, 0, []float64{3, 4})
	if p2.Dropped() != 1 || len(p2.Events()) != 1 {
		t.Fatalf("slab-full: dropped=%d events=%d", p2.Dropped(), len(p2.Events()))
	}
}

func TestWriteJSON(t *testing.T) {
	tr := New("run")
	outer := tr.Begin("shards").Attr("count", 2)
	inner := tr.Begin("round").Attr("batch", 9)
	inner.End()
	outer.End()
	tr.Metric("pair_scans", 123)
	c := tr.Child("shard0")
	c.Begin("route").End()
	c.Metric("pair_scans", 7)
	c.Close()
	p := NewProbe("sneak", 4, 8)
	p.Record("window", 1, 0, 2, -1, 1, 0, []float64{0, 1})
	tr.AttachProbe(p)
	tr.SetProvenance(&Provenance{GoVersion: "gotest", GOMAXPROCS: 1, NumCPU: 1, OS: "linux", Arch: "amd64", Timestamp: "2026-01-01T00:00:00Z"})
	tr.Close()

	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Label   string   `json:"label"`
		WallMS  float64  `json:"wall_ms"`
		Summary *Summary `json:"summary"`
		Spans   []struct {
			Name     string             `json:"name"`
			Attrs    map[string]float64 `json:"attrs"`
			Children []struct {
				Name  string             `json:"name"`
				Attrs map[string]float64 `json:"attrs"`
			} `json:"children"`
		} `json:"spans"`
		Metrics map[string]float64 `json:"metrics"`
		Probes  []struct {
			Name   string       `json:"name"`
			Events []ProbeEvent `json:"events"`
		} `json:"probes"`
		Children []struct {
			Label   string             `json:"label"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"children"`
		Provenance *Provenance `json:"provenance"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if out.Label != "run" || out.Summary == nil {
		t.Fatalf("label/summary: %+v", out)
	}
	if len(out.Spans) != 1 || out.Spans[0].Name != "shards" || out.Spans[0].Attrs["count"] != 2 {
		t.Fatalf("spans: %+v", out.Spans)
	}
	if len(out.Spans[0].Children) != 1 || out.Spans[0].Children[0].Name != "round" || out.Spans[0].Children[0].Attrs["batch"] != 9 {
		t.Fatalf("nested span: %+v", out.Spans[0].Children)
	}
	if out.Metrics["pair_scans"] != 123 {
		t.Fatalf("metrics: %+v", out.Metrics)
	}
	if len(out.Children) != 1 || out.Children[0].Label != "shard0" || out.Children[0].Metrics["pair_scans"] != 7 {
		t.Fatalf("children: %+v", out.Children)
	}
	if len(out.Probes) != 1 || out.Probes[0].Name != "sneak" || len(out.Probes[0].Events) != 1 {
		t.Fatalf("probes: %+v", out.Probes)
	}
	if out.Provenance == nil || out.Provenance.GoVersion != "gotest" {
		t.Fatalf("provenance: %+v", out.Provenance)
	}

	if err := WriteJSON(&buf, nil); err == nil {
		t.Fatal("WriteJSON(nil) must error")
	}
}

func TestCollectProvenance(t *testing.T) {
	p := CollectProvenance()
	if p.GoVersion == "" || p.GOMAXPROCS < 1 || p.NumCPU < 1 || p.OS == "" || p.Arch == "" {
		t.Fatalf("incomplete provenance: %+v", p)
	}
	if _, err := time.Parse(time.RFC3339, p.Timestamp); err != nil {
		t.Fatalf("timestamp %q not RFC3339: %v", p.Timestamp, err)
	}
}
