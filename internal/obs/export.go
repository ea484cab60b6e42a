package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Phase is one top-level phase of a Summary: the summed duration of every
// top-level span with the same name (Count is how many there were).
type Phase struct {
	Name  string  `json:"name"`
	MS    float64 `json:"ms"`
	Count int     `json:"count"`
}

// Summary is the compact phase breakdown of a trace: wall time, the
// top-level phases in first-seen order with their share of the wall. It is
// what sweep embeds per point into the BENCH_*.json series and what Report
// renders for humans.
type Summary struct {
	Label  string  `json:"label"`
	WallMS float64 `json:"wall_ms"`
	// CoveredMS is the summed duration of the top-level spans — the wall
	// time the trace attributes to a named phase. covered/wall is the
	// accounting coverage the acceptance tests pin (≥ 95% on a full build).
	CoveredMS float64 `json:"covered_ms"`
	Phases    []Phase `json:"phases"`
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Summary computes the trace's phase breakdown (nil on a nil trace).
func (t *Trace) Summary() *Summary {
	if t == nil {
		return nil
	}
	s := &Summary{Label: t.label, WallMS: ms(t.Wall())}
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.parent != -1 {
			continue
		}
		d := ms(sp.dur)
		s.CoveredMS += d
		found := false
		for j := range s.Phases {
			if s.Phases[j].Name == sp.name {
				s.Phases[j].MS += d
				s.Phases[j].Count++
				found = true
				break
			}
		}
		if !found {
			s.Phases = append(s.Phases, Phase{Name: sp.name, MS: d, Count: 1})
		}
	}
	return s
}

// Report renders the trace's phase breakdown as one human-readable line,
// e.g.
//
//	astdme: wall 1.52s (98.7% attributed) | partition 0.6% | pilot 21.3% | shards 52.0% | stitch 23.1% | eval 1.7%
//
// Returns "" on a nil trace.
func (t *Trace) Report() string {
	s := t.Summary()
	if s == nil {
		return ""
	}
	var b strings.Builder
	cov := 0.0
	if s.WallMS > 0 {
		cov = 100 * s.CoveredMS / s.WallMS
	}
	fmt.Fprintf(&b, "%s: wall %.3fs (%.1f%% attributed)", s.Label, s.WallMS/1e3, cov)
	for _, p := range s.Phases {
		pct := 0.0
		if s.WallMS > 0 {
			pct = 100 * p.MS / s.WallMS
		}
		fmt.Fprintf(&b, " | %s %.1f%%", p.Name, pct)
	}
	return b.String()
}

// jsonSpan is the exported form of one span subtree.
type jsonSpan struct {
	Name     string             `json:"name"`
	StartMS  float64            `json:"start_ms"`
	DurMS    float64            `json:"dur_ms"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Children []jsonSpan         `json:"children,omitempty"`
}

// jsonProbe is the exported form of an armed probe.
type jsonProbe struct {
	Name    string       `json:"name"`
	Dropped int          `json:"dropped,omitempty"`
	Events  []ProbeEvent `json:"events"`
}

// jsonTrace is the exported form of a trace node.
type jsonTrace struct {
	Label        string             `json:"label"`
	Start        time.Time          `json:"start"`
	WallMS       float64            `json:"wall_ms"`
	Summary      *Summary           `json:"summary,omitempty"`
	Spans        []jsonSpan         `json:"spans,omitempty"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	DroppedSpans int                `json:"dropped_spans,omitempty"`
	Probes       []jsonProbe        `json:"probes,omitempty"`
	Children     []jsonTrace        `json:"children,omitempty"`
	Provenance   *Provenance        `json:"provenance,omitempty"`
}

// export converts the trace into its JSON form. Span offsets are relative to
// each trace's own epoch; child traces carry their own epoch in Start.
func (t *Trace) export() jsonTrace {
	jt := jsonTrace{
		Label:        t.label,
		Start:        t.epoch,
		WallMS:       ms(t.Wall()),
		Summary:      t.Summary(),
		DroppedSpans: t.dropped,
		Provenance:   t.prov,
	}
	if len(t.metrics) > 0 {
		jt.Metrics = make(map[string]float64, len(t.metrics))
		for _, m := range t.metrics {
			jt.Metrics[m.Name] = m.Val
		}
	}
	// Rebuild the span tree from the flat arena: spans are stored in Begin
	// order, so a single pass with a per-span slot map suffices.
	slots := make([]*jsonSpan, len(t.spans))
	var roots []jsonSpan
	// Two passes: count children per parent first so slices don't move under
	// the slot pointers as siblings append.
	childCount := make([]int, len(t.spans))
	nroots := 0
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			childCount[p]++
		} else {
			nroots++
		}
	}
	roots = make([]jsonSpan, 0, nroots)
	for i := range t.spans {
		sp := &t.spans[i]
		js := jsonSpan{
			Name:    sp.name,
			StartMS: ms(sp.start.Sub(t.epoch)),
			DurMS:   ms(sp.dur),
		}
		if sp.nattrs > 0 {
			js.Attrs = make(map[string]float64, sp.nattrs)
			for _, a := range sp.attrs[:sp.nattrs] {
				js.Attrs[a.Key] = a.Val
			}
		}
		if childCount[i] > 0 {
			js.Children = make([]jsonSpan, 0, childCount[i])
		}
		if sp.parent >= 0 {
			parent := slots[sp.parent]
			parent.Children = append(parent.Children, js)
			slots[i] = &parent.Children[len(parent.Children)-1]
		} else {
			roots = append(roots, js)
			slots[i] = &roots[len(roots)-1]
		}
	}
	jt.Spans = roots
	for _, p := range t.probes {
		jt.Probes = append(jt.Probes, jsonProbe{Name: p.name, Dropped: p.dropped, Events: p.events})
	}
	for _, c := range t.children {
		jt.Children = append(jt.Children, c.export())
	}
	return jt
}

// WriteJSON writes the trace (spans, metrics, probes, children, provenance)
// as indented JSON. Writing a nil trace is an error: the caller asked for a
// trace file but recorded nothing.
func WriteJSON(w io.Writer, t *Trace) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on a nil trace")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.export())
}

// WriteJSONFile writes the trace to path via WriteJSON.
func WriteJSONFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
