// Command compare runs one table of the evaluation and prints our measured
// numbers side by side with the thesis's reported ones (internal/paperdata),
// with per-row deltas — the measurements ROADMAP.md open item 1 reports.
//
// Usage:
//
//	compare -table 2           # Table II, full suite
//	compare -table 1 -quick    # Table I, r1–r2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/paperdata"
)

func main() {
	var (
		table = flag.Int("table", 2, "thesis table: 1 (clustered) or 2 (intermingled)")
		quick = flag.Bool("quick", false, "run only r1–r2")
	)
	flag.Parse()

	grouping := experiments.Clustered
	paper := paperdata.TableI
	if *table == 2 {
		grouping = experiments.Intermingled
		paper = paperdata.TableII
	}
	circuits := bench.Suite()
	if *quick {
		circuits = circuits[:2]
	}

	rows, err := experiments.Table(grouping, circuits, experiments.GroupCounts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}

	fmt.Printf("Table %d (%s): paper vs measured\n", *table, grouping)
	fmt.Printf("%-4s %3s %-8s | %12s %8s %6s | %12s %8s %6s | %8s\n",
		"ckt", "k", "algo", "paper wire", "red%", "skew", "ours wire", "red%", "skew", "Δwire%")
	for _, r := range rows {
		pr, ok := paperdata.Find(paper, r.Circuit, r.Groups, r.Algorithm)
		if !ok {
			continue
		}
		dWire := 100 * (r.Wirelen - pr.Wirelen) / pr.Wirelen
		fmt.Printf("%-4s %3d %-8s | %12.0f %7.2f%% %6.0f | %12.0f %7.2f%% %6.0f | %+7.2f%%\n",
			r.Circuit, r.Groups, r.Algorithm,
			pr.Wirelen, pr.ReductionPct, pr.MaxSkewPs,
			r.Wirelen, r.ReductionPct, r.MaxSkewPs, dWire)
	}
}
