// Package experiments regenerates the evaluation of the thesis: Table I
// (clusters of sink groups), Table II (intermingled sink groups), the
// figure-level comparisons (Figs. 1 and 2), and the ablation studies of the
// router's design choices (see Ablations). It is shared by cmd/tables and
// the repository-level benchmarks.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/eval"
	"repro/internal/geom"
	"repro/internal/order"
	"repro/internal/rctree"
	"repro/internal/stitch"
)

// ASTIntraBoundPs is the intra-group skew bound used for the AST-DME rows,
// matching the 10 ps bound of the EXT-BST baseline rows: the comparison
// fixes both constraints at the same tightness, so AST-DME's saving comes
// from leaving inter-group skew free, not from a looser bound.
const ASTIntraBoundPs = 10

// EXTBoundPs is the global skew bound of the EXT-BST baseline, from the
// thesis: "we simply set bounded skew range as 10ps".
const EXTBoundPs = 10

// Row is one line of Table I or Table II.
type Row struct {
	Circuit   string
	Sinks     int
	Groups    int
	Algorithm string
	// Wirelen is the total committed wirelength.
	Wirelen float64
	// ReductionPct is the wirelength reduction versus the circuit's EXT-BST
	// row (positive = shorter than EXT-BST), the paper's Reduction column.
	ReductionPct float64
	// MaxSkewPs is the measured global skew — the paper's Maximum Skew
	// column (for AST-DME this is dominated by the floating inter-group
	// offsets).
	MaxSkewPs float64
	// MaxGroupSkewPs is the measured worst intra-group skew, the quantity
	// the associative constraint bounds (not reported by the paper; listed
	// for verifiability).
	MaxGroupSkewPs float64
	// CPUSeconds is the wall-clock routing time.
	CPUSeconds float64
}

// GroupCounts are the per-circuit group counts of both tables.
var GroupCounts = []int{4, 6, 8, 10}

// Grouping selects how sink groups are imposed on a circuit.
type Grouping int

// The two experiments of thesis Ch. VI.
const (
	Clustered Grouping = iota
	Intermingled
)

func (g Grouping) String() string {
	if g == Clustered {
		return "clustered"
	}
	return "intermingled"
}

// groupInstance applies the grouping for a given group count.
func groupInstance(base *ctree.Instance, g Grouping, k int, seed int64) *ctree.Instance {
	if g == Clustered {
		return bench.Clustered(base, k)
	}
	return bench.Intermingled(base, k, seed)
}

// Table runs one full table (thesis Table I for Clustered, Table II for
// Intermingled) over the given circuits and group counts. Each circuit
// contributes one EXT-BST row (1 group) followed by AST-DME rows per k.
func Table(grouping Grouping, circuits []bench.Spec, groups []int) ([]Row, error) {
	return TableRepeated(grouping, circuits, groups, 1)
}

// TableRepeated is Table with `repeats` grouping seeds per (circuit, k) row,
// reporting the across-seed mean of each metric. The thesis's tables are
// single runs; replication quantifies the heuristic's seed variance (a few
// percent of wirelength — comparable to the clustered reductions it
// reports). For Clustered groupings the assignment is deterministic, so
// repeats > 1 changes nothing and a single run is performed.
func TableRepeated(grouping Grouping, circuits []bench.Spec, groups []int, repeats int) ([]Row, error) {
	if repeats < 1 {
		repeats = 1
	}
	var rows []Row
	for _, sp := range circuits {
		base := bench.Generate(sp)

		start := time.Now()
		ext, err := core.EXTBST(base, EXTBoundPs, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("EXT-BST on %s: %w", sp.Name, err)
		}
		extSecs := time.Since(start).Seconds()
		extRep := eval.Analyze(ext.Root, base, core.DefaultModel(), base.Source)
		rows = append(rows, Row{
			Circuit: sp.Name, Sinks: sp.Sinks, Groups: 1, Algorithm: "EXT-BST",
			Wirelen: ext.Wirelength, MaxSkewPs: extRep.GlobalSkew,
			MaxGroupSkewPs: extRep.MaxGroupSkew, CPUSeconds: extSecs,
		})

		for _, k := range groups {
			reps := repeats
			if grouping == Clustered {
				reps = 1
			}
			var acc Row
			for rep := 0; rep < reps; rep++ {
				in := groupInstance(base, grouping, k, sp.Seed*1000+int64(k)+int64(rep)*7919)
				start = time.Now()
				ast, err := core.Build(in, core.Options{IntraSkewBound: ASTIntraBoundPs})
				if err != nil {
					return nil, fmt.Errorf("AST-DME on %s k=%d: %w", sp.Name, k, err)
				}
				secs := time.Since(start).Seconds()
				r := eval.Analyze(ast.Root, in, core.DefaultModel(), in.Source)
				acc.Wirelen += ast.Wirelength
				acc.MaxSkewPs += r.GlobalSkew
				acc.MaxGroupSkewPs += r.MaxGroupSkew
				acc.CPUSeconds += secs
			}
			n := float64(reps)
			rows = append(rows, Row{
				Circuit: sp.Name, Sinks: sp.Sinks, Groups: k, Algorithm: "AST-DME",
				Wirelen:      acc.Wirelen / n,
				ReductionPct: 100 * (ext.Wirelength - acc.Wirelen/n) / ext.Wirelength,
				MaxSkewPs:    acc.MaxSkewPs / n, MaxGroupSkewPs: acc.MaxGroupSkewPs / n,
				CPUSeconds: acc.CPUSeconds / n,
			})
		}
	}
	return rows, nil
}

// WriteTable renders rows in the layout of the thesis's tables.
func WriteTable(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %7s %7s %-9s %12s %10s %9s %10s %8s\n",
		"Circuit", "#sinks", "#groups", "Algorithm", "Wirelen", "Reduction", "MaxSkew", "GroupSkew", "CPU(s)")
	last := ""
	for _, r := range rows {
		circuit := r.Circuit
		if circuit == last {
			circuit = ""
		} else {
			last = r.Circuit
		}
		red := ""
		if r.Algorithm != "EXT-BST" {
			red = fmt.Sprintf("%.2f%%", r.ReductionPct)
		}
		fmt.Fprintf(w, "%-8s %7d %7d %-9s %12.0f %10s %8.0f %10.1f %8.2f\n",
			circuit, r.Sinks, r.Groups, r.Algorithm, r.Wirelen, red,
			r.MaxSkewPs, r.MaxGroupSkewPs, r.CPUSeconds)
	}
}

// Fig1Result compares zero-skew against bounded-skew routing on the 4-sink
// pathlength-model instance mirroring thesis Fig. 1.
type Fig1Result struct {
	ZSTWire, ZSTSkew float64
	BSTWire, BSTSkew float64
	Bound            float64
}

// Fig1Instance is a 4-sink instance under the pathlength model whose exact
// zero-skew tree needs 17 units of wire (one snaked edge) while a
// bounded-skew tree at bound 1 needs 16, mirroring the 17-vs-16 comparison
// of thesis Fig. 1. (The thesis's exact coordinates are not recoverable from
// the scanned figure; this instance reproduces the phenomenon with
// hand-checkable numbers.)
func Fig1Instance() *ctree.Instance {
	return &ctree.Instance{
		Name: "fig1",
		Sinks: []ctree.Sink{
			{ID: 0, Loc: geom.Point{X: 0, Y: 0}, CapFF: 1, Group: 0},
			{ID: 1, Loc: geom.Point{X: 4, Y: 0}, CapFF: 1, Group: 0},
			{ID: 2, Loc: geom.Point{X: 3, Y: 5}, CapFF: 1, Group: 0},
			{ID: 3, Loc: geom.Point{X: 3, Y: -5}, CapFF: 1, Group: 0},
		},
		Source:    geom.Point{X: 0, Y: 0},
		NumGroups: 1,
	}
}

// Fig1 runs the comparison.
func Fig1(bound float64) (*Fig1Result, error) {
	in := Fig1Instance()
	lin := rctree.Linear{}
	zst, err := core.ZST(in, core.Options{Model: lin})
	if err != nil {
		return nil, err
	}
	zstRep := eval.Analyze(zst.Root, in, lin, in.Source)
	bst, err := core.EXTBST(in, bound, core.Options{Model: lin})
	if err != nil {
		return nil, err
	}
	bstRep := eval.Analyze(bst.Root, in, lin, in.Source)
	return &Fig1Result{
		ZSTWire: zst.Root.Wirelength(), ZSTSkew: zstRep.GlobalSkew,
		BSTWire: bst.Root.Wirelength(), BSTSkew: bstRep.GlobalSkew,
		Bound: bound,
	}, nil
}

// Fig2Result compares the separate-trees-and-stitch approach against
// AST-DME's simultaneous merging on intermingled groups (thesis Fig. 2).
type Fig2Result struct {
	StitchWire, ASTWire float64
	SavingPct           float64
}

// Fig2 runs the comparison on an n-sink, k-group intermingled instance.
func Fig2(n, k int, seed int64) (*Fig2Result, error) {
	in := bench.Intermingled(bench.Small(n, seed), k, seed*3)
	st, err := stitch.Build(in, stitch.Options{})
	if err != nil {
		return nil, err
	}
	ast, err := core.Build(in, core.Options{IntraSkewBound: ASTIntraBoundPs})
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		StitchWire: st.Wirelength,
		ASTWire:    ast.Wirelength,
		SavingPct:  100 * (st.Wirelength - ast.Wirelength) / st.Wirelength,
	}, nil
}

// Ablation describes one configuration of the ablation study.
type Ablation struct {
	Name string
	Opt  core.Options
}

// Ablations returns the configurations exercising the router's design
// choices (merging order, delay-target bias, region deferral).
func Ablations() []Ablation {
	greedy := core.Options{IntraSkewBound: ASTIntraBoundPs,
		Order: order.Config{Strategy: order.Greedy}}
	return []Ablation{
		{Name: "default-multi", Opt: core.Options{IntraSkewBound: ASTIntraBoundPs}},
		{Name: "greedy-order", Opt: greedy},
		{Name: "delay-target", Opt: core.Options{IntraSkewBound: ASTIntraBoundPs, DelayTargetBias: 1}},
		{Name: "endpoint-split", Opt: core.Options{IntraSkewBound: ASTIntraBoundPs, EndpointSplit: true}},
		{Name: "offset-float-60", Opt: core.Options{IntraSkewBound: ASTIntraBoundPs, InterSkewBound: 60}},
	}
}

// RunAblation routes the instance under one configuration and reports
// wirelength and measured skews.
func RunAblation(in *ctree.Instance, ab Ablation) (wire, maxSkew, groupSkew float64, err error) {
	res, err := core.Build(in, ab.Opt)
	if err != nil {
		return 0, 0, 0, err
	}
	m := ab.Opt.Model
	if m == nil {
		m = core.DefaultModel()
	}
	rep := eval.Analyze(res.Root, in, m, in.Source)
	return res.Wirelength, rep.GlobalSkew, rep.MaxGroupSkew, nil
}
