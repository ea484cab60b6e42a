// Command instancegen synthesizes clock routing benchmark instances: the
// r1–r5 suite of the thesis's experiments (synthesized stand-ins with the
// published sink counts; see internal/bench), the large-instance scaling
// circuits (l10k/l50k/l100k, 10k–100k sinks for the spatial pairing
// subsystem), or
// custom sizes, with clustered or intermingled sink groups and uniform or
// power-law-clustered sink placement.
//
// Usage:
//
//	instancegen -circuit r3 -groups 8 -mode intermingled -o r3k8.json
//	instancegen -sinks 500 -groups 4 -mode clustered -seed 7 -o custom.json
//	instancegen -circuit l100k -groups 16 -mode clustered -o l100k.json
//	instancegen -sinks 50000 -dist powerlaw -clusters 40 -alpha 1.5 -o hot.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/ctree"
	"repro/internal/instio"
)

func main() {
	var (
		circuit  = flag.String("circuit", "", "suite circuit name (r1..r5, l10k/l50k/l100k); overrides -sinks")
		sinks    = flag.Int("sinks", 300, "number of sinks for a custom instance")
		groups   = flag.Int("groups", 1, "number of sink groups")
		mode     = flag.String("mode", "intermingled", "grouping mode: clustered | intermingled")
		dist     = flag.String("dist", "uniform", "sink placement: uniform | powerlaw (power-law-sized clusters)")
		clusters = flag.Int("clusters", 32, "cluster count for -dist powerlaw")
		alpha    = flag.Float64("alpha", 1.5, "power-law exponent for -dist powerlaw cluster sizes")
		seed     = flag.Int64("seed", 1, "random seed for custom instances and intermingled grouping")
		out      = flag.String("o", "", "output file (default stdout)")
		perturb  = flag.Float64("perturb", 0, "also emit a seeded ECO edit script touching this fraction of the generated sinks (requires -edits)")
		edits    = flag.String("edits", "", "edit-script output file for -perturb")
	)
	flag.Parse()
	if (*perturb != 0) != (*edits != "") {
		fatal(fmt.Errorf("-perturb and -edits go together: the fraction sizes the script, the file receives it"))
	}

	n, sd := *sinks, *seed
	var sp bench.Spec
	haveSpec := *circuit != ""
	if haveSpec {
		var err error
		if sp, err = bench.BySuiteName(*circuit); err != nil {
			fatal(err)
		}
		n, sd = sp.Sinks, sp.Seed
	}

	var in *ctree.Instance
	switch *dist {
	case "uniform":
		if haveSpec {
			in = bench.Generate(sp) // preserves the circuit's calibrated die edge
		} else {
			in = bench.Small(n, sd)
		}
	case "powerlaw":
		in = bench.PowerLaw(n, *clusters, *alpha, sd)
	default:
		fatal(fmt.Errorf("unknown placement %q (want uniform | powerlaw)", *dist))
	}

	if *groups > 1 {
		switch *mode {
		case "clustered":
			in = bench.Clustered(in, *groups)
		case "intermingled":
			// Grouping is seeded by -seed even for named circuits, whose
			// placement seed is fixed by the suite spec.
			in = bench.Intermingled(in, *groups, *seed*101)
		default:
			fatal(fmt.Errorf("unknown mode %q", *mode))
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := instio.WriteInstance(w, in); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d sinks, %d groups\n", in.Name, len(in.Sinks), in.NumGroups)

	if *perturb != 0 {
		// A deterministic seeded edit script against the instance just
		// written: ECO benchmarks replay the exact same edits run over run
		// (the script is a pure function of instance, fraction and seed).
		sc, err := instio.Perturb(in, *perturb, *seed)
		if err != nil {
			fatal(err)
		}
		if err := instio.SaveEdits(*edits, sc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s: %d edits (%s)\n", *edits, len(sc.Edits), sc.Name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "instancegen:", err)
	os.Exit(1)
}
