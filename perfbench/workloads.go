package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/dispatch"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/paperdata"
	"repro/internal/shard"
)

const (
	// defaultSeed is the seed at which every workload's input is its
	// reference instance: the zst placement is the pathological power-law
	// placement of PowerLaw seed 9 unmodified, and the grouping seeds of
	// the grouped workloads are exactly experiments.Table's.
	defaultSeed = 9
	// repeatStride is experiments.TableRepeated's grouping-seed stride per
	// repeat; seed s draws the groupings of repeat s − defaultSeed.
	repeatStride = 7919
	// boundPs is the intra-group skew bound of every grouped workload and
	// the global bound of the EXT-BST rows: the thesis's 10 ps.
	boundPs = experiments.ASTIntraBoundPs
	// skewTolPs is the float tolerance of the reported bound excess: a
	// skew within its bound plus skewTolPs reads as no excess.
	skewTolPs = 1e-6
	// zeroSkewTolRel is the zero-skew check's tolerance relative to the
	// largest sink delay, as in the repository's own zero-skew tests: a
	// 100k-sink route with delays of thousands of ps rounds to skews
	// above skewTolPs.
	zeroSkewTolRel = 1e-6
)

// config sizes one workload. The full-size configurations are the ones
// BENCHMARK.json names; the tests run the same code on tiny ones.
type config struct {
	name string
	// sinks, placeSeed: the power-law placement (bench.PowerLaw with the
	// standard 32 clusters at α = 1.5) of the zst, ast and eco workloads.
	sinks     int
	placeSeed int64
	// groups intermingled sink groups and shards shards (0 = unsharded,
	// single-group ZST).
	groups, shards int
	// editFrac sizes each ECO hop's instio.Perturb script.
	editFrac float64
	// circuits and groupCounts define paper-t2's table.
	circuits    []bench.Spec
	groupCounts []int
	// mutate, when set, is applied to every routed tree before its output
	// checks. Only the tests set it, to corrupt outputs on purpose.
	mutate func(*ctree.Node)
	// setup generates the inputs from a seed and prepares them as the CLI
	// would: the instance goes through an instio JSON round trip.
	setup func(c config, seed int64, tr *obs.Trace) (runner, error)
}

// workloads are the full-size configurations, in BENCHMARK.json order.
var workloads = []config{
	{name: "zst-p100k", sinks: 100_000, placeSeed: defaultSeed, setup: setupZST},
	{name: "ast-p50k-s4", sinks: 50_000, placeSeed: 1101, groups: 4, shards: 4, setup: setupAST},
	{name: "eco-p100k-s8", sinks: 100_000, placeSeed: 1102, groups: 4, shards: 8, editFrac: 0.001, setup: setupEco},
	{name: "paper-t2", circuits: bench.Suite(), groupCounts: experiments.GroupCounts, setup: setupPaper},
}

func workloadByName(name string) (config, bool) {
	for _, c := range workloads {
		if c.name == name {
			return c, true
		}
	}
	return config{}, false
}

// opOut is what one op produced, as far as the harness needs it.
type opOut struct {
	// err is a routing error (shard.ErrFullBuild included) or a failed
	// output check; either fails the op.
	err error
	// wire is the total wire of the op's routed output(s); excess the
	// largest bound excess over them (ps) and overBound how many exceeded.
	wire      float64
	excess    float64
	overBound int
	// stats aggregates the core stats of every routed output.
	stats core.Stats
	// sig is a bitwise signature of the outputs (wire bits and stats).
	// Ops with equal key routed the same input and must agree on sig.
	sig, key string
	// layers holds per-layer values taken from the results themselves
	// (dispatch report, shard attribution, cache size, input generation).
	layers map[string]float64
}

// runner is one workload's prepared state after set-up.
type runner interface {
	// describe summarises the inputs in one line.
	describe() string
	// jsonMB is the size of the instance JSON the set-up parsed.
	jsonMB() float64
	// prepare makes the next op's inputs; it runs outside the timed op.
	prepare() error
	// op runs one timed op. tr is nil in untraced runs.
	op(tr *obs.Trace) opOut
	// finish runs once after the timed ops: reference builds and
	// cross-checks kept out of the medians. It writes report lines to w
	// and returns the workload's extra figures by name.
	finish(w io.Writer) (map[string]float64, error)
}

// groupingSeed is the intermingled-grouping seed of a circuit placed with
// placeSeed and cut into k groups: experiments.TableRepeated's scheme, with
// seed s standing for repeat s − defaultSeed.
func groupingSeed(placeSeed int64, k int, seed int64) int64 {
	return placeSeed*1000 + int64(k) + (seed-defaultSeed)*repeatStride
}

// roundTrip writes the instance as JSON and parses it back with
// instio.ReadInstance, returning the parsed instance and the JSON size.
func roundTrip(in *ctree.Instance, tr *obs.Trace) (*ctree.Instance, int, error) {
	var buf bytes.Buffer
	sp := tr.Begin("json_write")
	err := instio.WriteInstance(&buf, in)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	n := buf.Len()
	sp = tr.Begin("read")
	out, err := instio.ReadInstance(&buf)
	sp.End()
	return out, n, err
}

// symmetric returns base mirrored/transposed by one of the eight
// symmetries of its square die (centred on the source) with the sinks
// relabelled by a random permutation, both drawn from seed. Every variant
// keeps base's geometry, so its pairing work stays that of base.
func symmetric(base *ctree.Instance, seed int64) *ctree.Instance {
	r := rand.New(rand.NewSource(seed))
	sym := r.Intn(8)
	perm := r.Perm(len(base.Sinks))
	side := 2 * base.Source.X
	out := *base
	out.Sinks = make([]ctree.Sink, len(base.Sinks))
	for i, s := range base.Sinks {
		x, y := s.Loc.X, s.Loc.Y
		if sym&1 != 0 {
			x = side - x
		}
		if sym&2 != 0 {
			y = side - y
		}
		if sym&4 != 0 {
			x, y = y, x
		}
		j := perm[i]
		s.ID = j
		s.Loc = geom.Point{X: x, Y: y}
		out.Sinks[j] = s
	}
	return &out
}

// checked runs the output checks every op pays for: eval.CheckTree and
// eval.Analyze, each in its own span.
func (c config) checked(tr *obs.Trace, root *ctree.Node, in *ctree.Instance) (*eval.Report, error) {
	if c.mutate != nil {
		c.mutate(root)
	}
	sp := tr.Begin("check")
	err := eval.CheckTree(root, in)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	sp = tr.Begin("analyze")
	rep := eval.Analyze(root, in, core.DefaultModel(), in.Source)
	sp.End()
	if rep.Sinks != len(in.Sinks) {
		return nil, fmt.Errorf("analyze reached %d of %d sinks", rep.Sinks, len(in.Sinks))
	}
	return rep, nil
}

// excessOver is a skew's excess over its bound, with float noise read as 0.
func excessOver(skew, bound float64) float64 {
	return math.Max(0, skew-bound-skewTolPs)
}

// zeroSkew reports whether a zero-skew route's global skew is float noise.
func zeroSkew(rep *eval.Report) bool {
	return rep.GlobalSkew <= zeroSkewTolRel*(1+rep.MaxDelay)
}

func signature(wire float64, s core.Stats) string {
	return fmt.Sprintf("%016x %+v", math.Float64bits(wire), s)
}

// routed fills the quality fields of out from one routed output.
func (o *opOut) routed(wire float64, s core.Stats, excess float64) {
	o.wire += wire
	o.stats.AddRun(s)
	o.sig += signature(wire, s) + ";"
	if excess > 0 {
		o.overBound++
	}
	o.excess = math.Max(o.excess, excess)
}

// --- zst-p100k: single-group zero-skew route, unsharded ---

type zstRunner struct {
	c   config
	in  *ctree.Instance
	mb  float64
	out string
}

func setupZST(c config, seed int64, tr *obs.Trace) (runner, error) {
	sp := tr.Begin("gen")
	in := bench.PowerLaw(c.sinks, bench.PowerLawClusters, bench.PowerLawAlpha, c.placeSeed)
	if seed != defaultSeed {
		in = symmetric(in, seed)
	}
	sp.End()
	in, n, err := roundTrip(in, tr)
	if err != nil {
		return nil, err
	}
	return &zstRunner{c: c, in: in, mb: float64(n) / 1e6}, nil
}

func (z *zstRunner) describe() string {
	return fmt.Sprintf("%d power-law sinks (placement seed %d), 1 group, zero skew, unsharded", len(z.in.Sinks), z.c.placeSeed)
}
func (z *zstRunner) jsonMB() float64 { return z.mb }
func (z *zstRunner) prepare() error  { return nil }

func (z *zstRunner) op(tr *obs.Trace) opOut {
	sp := tr.Begin("build")
	child := tr.Child("build")
	res, err := core.Build(z.in, core.Options{SingleGroup: true, Trace: child})
	child.Close()
	sp.End()
	if err != nil {
		return opOut{err: err}
	}
	var out opOut
	rep, err := z.c.checked(tr, res.Root, z.in)
	if err != nil {
		out.err = err
		return out
	}
	out.routed(res.Wirelength, res.Stats, excessOver(rep.GlobalSkew, 0))
	if !zeroSkew(rep) {
		out.err = fmt.Errorf("global skew %g ps (max delay %g ps) on a zero-skew route", rep.GlobalSkew, rep.MaxDelay)
	}
	z.out = fmt.Sprintf("global skew %.3g ps (max delay %.6g ps), %d pair scans", rep.GlobalSkew, rep.MaxDelay, res.Stats.PairScans)
	return out
}

func (z *zstRunner) finish(w io.Writer) (map[string]float64, error) {
	fmt.Fprintf(w, "output: %s\n", z.out)
	return nil, nil
}

// --- grouped instances shared by ast and eco ---

func setupGrouped(c config, seed int64, tr *obs.Trace) (*ctree.Instance, float64, error) {
	sp := tr.Begin("gen")
	in := bench.PowerLaw(c.sinks, bench.PowerLawClusters, bench.PowerLawAlpha, c.placeSeed)
	in = bench.Intermingled(in, c.groups, groupingSeed(c.placeSeed, c.groups, seed))
	sp.End()
	in, n, err := roundTrip(in, tr)
	return in, float64(n) / 1e6, err
}

func (c config) shardOptions(tr *obs.Trace) core.Options {
	return core.Options{IntraSkewBound: boundPs, Shards: c.shards, Pilot: true, Trace: tr}
}

func describeGrouped(c config, in *ctree.Instance) string {
	return fmt.Sprintf("%d power-law sinks (placement seed %d), %d intermingled groups, %g ps intra-group bound, %d shards, pilot on",
		len(in.Sinks), c.placeSeed, in.NumGroups, float64(boundPs), c.shards)
}

// shardLayers records the per-layer values a sharded result carries.
func shardLayers(res *shard.Result) map[string]float64 {
	m := map[string]float64{
		"dispatch.retries": float64(res.Dispatch.Retries),
		"dispatch.hedges":  float64(res.Dispatch.Hedges),
	}
	if res.Dispatch.Tasks > 0 {
		m["dispatch.attempts_per_task"] = float64(res.Dispatch.Attempts) / float64(res.Dispatch.Tasks)
	}
	if res.Wirelength > 0 {
		m["shard.stitch_wire_frac"] = res.StitchWire / res.Wirelength
	}
	return m
}

// --- ast-p50k-s4: cold grouped sharded build ---

type astRunner struct {
	c   config
	in  *ctree.Instance
	mb  float64
	out string
}

func setupAST(c config, seed int64, tr *obs.Trace) (runner, error) {
	in, mb, err := setupGrouped(c, seed, tr)
	if err != nil {
		return nil, err
	}
	return &astRunner{c: c, in: in, mb: mb}, nil
}

func (a *astRunner) describe() string { return describeGrouped(a.c, a.in) }
func (a *astRunner) jsonMB() float64  { return a.mb }
func (a *astRunner) prepare() error   { return nil }

func (a *astRunner) op(tr *obs.Trace) opOut {
	sp := tr.Begin("build")
	child := tr.Child("build")
	res, err := shard.BuildDispatch(a.in, a.c.shardOptions(child), dispatch.Options{})
	child.Close()
	sp.End()
	if err != nil {
		return opOut{err: err}
	}
	out := opOut{layers: shardLayers(res)}
	rep, err := a.c.checked(tr, res.Root, a.in)
	if err != nil {
		out.err = err
		return out
	}
	out.routed(res.Wirelength, res.Stats, excessOver(rep.MaxGroupSkew, boundPs))
	a.out = fmt.Sprintf("max group skew %.4g ps, global skew %.4g ps, stitch wire %.3g%%",
		rep.MaxGroupSkew, rep.GlobalSkew, 100*res.StitchWire/res.Wirelength)
	return out
}

func (a *astRunner) finish(w io.Writer) (map[string]float64, error) {
	fmt.Fprintf(w, "output: %s\n", a.out)
	return nil, nil
}

// --- eco-p100k-s8: chained incremental rebuilds through the cache ---

type ecoRunner struct {
	c    config
	seed int64
	mb   float64
	// cur is the marshalled cache at the head of the hop chain and inst
	// its instance; set-up starts the chain at the retained build.
	cur  []byte
	inst *ctree.Instance
	// hop counts the ops after the warm-up. The warm-up routes the first
	// hop without advancing the chain, so the first measured op repeats it
	// on the same input and the determinism check compares the two.
	hop    int
	warmed bool
	script *instio.EditScript
	// perturbS is the time the last prepare spent generating the script.
	perturbS float64
	// last is the newest successful rebuild, for the from-scratch
	// differential in finish.
	last *shard.Result
	out  string
}

func setupEco(c config, seed int64, tr *obs.Trace) (runner, error) {
	in, mb, err := setupGrouped(c, seed, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.Begin("build_eco")
	child := tr.Child("build_eco")
	res, err := shard.BuildEco(in, c.shardOptions(child), dispatch.Options{})
	child.Close()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("retained build: %w", err)
	}
	sp = tr.Begin("marshal")
	b, err := res.Eco.Marshal()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	return &ecoRunner{c: c, seed: seed, mb: mb, cur: b, inst: in}, nil
}

func (e *ecoRunner) describe() string {
	return describeGrouped(e.c, e.inst) + fmt.Sprintf(", chained hops of Perturb(frac = %g)", e.c.editFrac)
}
func (e *ecoRunner) jsonMB() float64 { return e.mb }

func (e *ecoRunner) prepare() error {
	t := time.Now()
	sc, err := instio.Perturb(e.inst, e.c.editFrac, e.seed*100_000+int64(e.hop))
	e.perturbS = time.Since(t).Seconds()
	if err != nil {
		return fmt.Errorf("perturb: %w", err)
	}
	e.script = sc
	return nil
}

func (e *ecoRunner) op(tr *obs.Trace) opOut {
	out := opOut{key: strconv.Itoa(e.hop), layers: map[string]float64{
		"instio.perturb_s":    e.perturbS,
		"wire.cache_mb":       float64(len(e.cur)) / 1e6,
		"wire.bytes_per_sink": float64(len(e.cur)) / float64(len(e.inst.Sinks)),
	}}
	advance := e.warmed
	e.warmed = true
	if advance {
		e.hop++
	}

	sp := tr.Begin("unmarshal")
	cache, err := shard.UnmarshalEcoCache(e.cur)
	sp.End()
	if err != nil {
		out.err = fmt.Errorf("unmarshal: %w", err)
		return out
	}
	sp = tr.Begin("rebuild")
	child := tr.Child("rebuild")
	res, err := cache.RebuildDispatch(e.script, shard.RebuildOptions{Trace: child}, dispatch.Options{})
	child.Close()
	sp.End()
	if err != nil {
		out.err = fmt.Errorf("rebuild: %w", err)
		return out
	}
	for k, v := range shardLayers(res) {
		out.layers[k] = v
	}
	out.layers["shard.eco_reused_frac"] = float64(res.EcoReused) / float64(len(res.Shards))
	rep, err := e.c.checked(tr, res.Root, res.Instance)
	if err != nil {
		out.err = err
		return out
	}
	out.routed(res.Wirelength, res.Stats, excessOver(rep.MaxGroupSkew, boundPs))
	sp = tr.Begin("marshal")
	b, err := res.Eco.Marshal()
	sp.End()
	if err != nil {
		out.err = fmt.Errorf("marshal: %w", err)
		return out
	}
	if advance {
		e.cur, e.inst, e.last = b, res.Instance, res
	}
	e.out = fmt.Sprintf("%d edits, shards rebuilt %v of %d, max group skew %.4g ps",
		len(e.script.Edits), res.EcoRebuilt, len(res.Shards), rep.MaxGroupSkew)
	return out
}

// finish builds the last edited instance from scratch, outside the timed
// ops, and compares the chained rebuild's wire against it.
func (e *ecoRunner) finish(w io.Writer) (map[string]float64, error) {
	fmt.Fprintf(w, "output: last hop: %s\n", e.out)
	if e.last == nil {
		return nil, fmt.Errorf("no successful hop to compare against a from-scratch build")
	}
	scratch, err := shard.BuildDispatch(e.last.Instance, e.c.shardOptions(nil), dispatch.Options{})
	if err != nil {
		return nil, fmt.Errorf("from-scratch build of the last edited instance: %w", err)
	}
	if err := eval.CheckTree(scratch.Root, e.last.Instance); err != nil {
		return nil, fmt.Errorf("from-scratch build of the last edited instance: %w", err)
	}
	ratio := e.last.Wirelength / scratch.Wirelength
	fmt.Fprintf(w, "eco differential: after %d chained hops, rebuilt wire %.10g vs from-scratch %.10g\n",
		e.hop, e.last.Wirelength, scratch.Wirelength)
	return map[string]float64{"eco_wire_ratio": ratio}, nil
}

// --- paper-t2: the thesis's Table II ---

// paperRow is one routed row of the table.
type paperRow struct {
	circuit   string
	sinks     int
	groups    int // 1 for the EXT-BST row
	wire      float64
	skew      float64 // group skew (AST-DME) or global skew (EXT-BST), ps
	reduction float64 // % vs the circuit's EXT-BST row
}

type paperCircuit struct {
	base *ctree.Instance   // single group, for EXT-BST
	grp  []*ctree.Instance // one per group count
}

type paperRunner struct {
	c        config
	seed     int64
	circuits []paperCircuit
	mb       float64
	rows     []paperRow
}

func setupPaper(c config, seed int64, tr *obs.Trace) (runner, error) {
	p := &paperRunner{c: c, seed: seed}
	var bytes int
	for _, sp := range c.circuits {
		g := tr.Begin("gen")
		base := bench.Generate(sp)
		insts := []*ctree.Instance{base}
		for _, k := range c.groupCounts {
			insts = append(insts, bench.Intermingled(base, k, groupingSeed(sp.Seed, k, seed)))
		}
		g.End()
		for i, in := range insts {
			rt, n, err := roundTrip(in, tr)
			if err != nil {
				return nil, err
			}
			insts[i] = rt
			bytes += n
		}
		p.circuits = append(p.circuits, paperCircuit{base: insts[0], grp: insts[1:]})
	}
	p.mb = float64(bytes) / 1e6
	return p, nil
}

func (p *paperRunner) describe() string {
	return fmt.Sprintf("Table II: %d circuits × intermingled k ∈ %v, AST-DME at %g ps plus one EXT-BST row each (grouping repeat %d)",
		len(p.circuits), p.c.groupCounts, float64(boundPs), p.seed-defaultSeed)
}
func (p *paperRunner) jsonMB() float64 { return p.mb }
func (p *paperRunner) prepare() error  { return nil }

// route runs one row: the call in a span named after its path, with a
// child trace of the same label handed to the router.
func (p *paperRunner) route(tr *obs.Trace, label string, in *ctree.Instance, build func(opt core.Options) (*core.Result, error)) (*core.Result, *eval.Report, error) {
	sp := tr.Begin(label)
	child := tr.Child(label)
	res, err := build(core.Options{Trace: child})
	child.Close()
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("%s on %s: %w", label, in.Name, err)
	}
	rep, err := p.c.checked(tr, res.Root, in)
	if err != nil {
		return nil, nil, fmt.Errorf("%s on %s: %w", label, in.Name, err)
	}
	return res, rep, nil
}

func (p *paperRunner) op(tr *obs.Trace) opOut {
	var out opOut
	var rows []paperRow
	for ci, pc := range p.circuits {
		name := p.c.circuits[ci].Name
		ext, rep, err := p.route(tr, "extbst", pc.base, func(opt core.Options) (*core.Result, error) {
			return core.EXTBST(pc.base, boundPs, opt)
		})
		if err != nil {
			out.err = err
			return out
		}
		out.routed(ext.Wirelength, ext.Stats, excessOver(rep.GlobalSkew, boundPs))
		rows = append(rows, paperRow{circuit: name, sinks: len(pc.base.Sinks), groups: 1, wire: ext.Wirelength, skew: rep.GlobalSkew})
		// The scan oracle routes below the grid pairer's threshold; the
		// two regimes get separate spans.
		label := "build_scan"
		if len(pc.base.Sinks) >= core.GridPairerThreshold {
			label = "build_grid"
		}
		for ki, in := range pc.grp {
			in := in
			ast, rep, err := p.route(tr, label, in, func(opt core.Options) (*core.Result, error) {
				opt.IntraSkewBound = boundPs
				return core.Build(in, opt)
			})
			if err != nil {
				out.err = err
				return out
			}
			out.routed(ast.Wirelength, ast.Stats, excessOver(rep.MaxGroupSkew, boundPs))
			rows = append(rows, paperRow{
				circuit: name, sinks: len(in.Sinks), groups: p.c.groupCounts[ki], wire: ast.Wirelength,
				skew: rep.MaxGroupSkew, reduction: 100 * (ext.Wirelength - ast.Wirelength) / ext.Wirelength,
			})
		}
	}
	p.rows = rows
	return out
}

// finish prints every row beside the thesis's, and at the default seed
// checks each row's wire bit for bit against experiments.Table.
func (p *paperRunner) finish(w io.Writer) (map[string]float64, error) {
	var sum float64
	var n int
	for _, r := range p.rows {
		algo := "EXT-BST"
		if r.groups > 1 {
			algo = "AST-DME"
			sum += r.reduction
			n++
		}
		line := fmt.Sprintf("row %-3s k=%-2d %-7s wire %.7g reduction %+.2f%% skew %.2f ps", r.circuit, r.groups, algo, r.wire, r.reduction, r.skew)
		if t, ok := paperdata.Find(paperdata.TableII, r.circuit, r.groups, algo); ok {
			line += fmt.Sprintf(" | thesis wire %.7g reduction %+.2f%% skew %.0f ps | gap %+.2f points", t.Wirelen, t.ReductionPct, t.MaxSkewPs, r.reduction-t.ReductionPct)
		}
		fmt.Fprintln(w, line)
	}
	extra := map[string]float64{}
	if n > 0 {
		extra["wire_reduction_pct"] = sum / float64(n)
		var thesis float64
		var tn int
		for _, t := range paperdata.TableII {
			if t.Algorithm == "AST-DME" {
				thesis += t.ReductionPct
				tn++
			}
		}
		fmt.Fprintf(w, "wire reduction: mean %+.2f%% over %d AST-DME rows; thesis mean %+.2f%% over its %d rows\n",
			sum/float64(n), n, thesis/float64(tn), tn)
	}
	if p.seed != defaultSeed {
		fmt.Fprintf(w, "cross-check against experiments.Table: runs at seed %d only\n", defaultSeed)
		return extra, nil
	}
	ref, err := experiments.Table(experiments.Intermingled, p.c.circuits, p.c.groupCounts)
	if err != nil {
		return nil, fmt.Errorf("experiments.Table: %w", err)
	}
	if len(ref) != len(p.rows) {
		return nil, fmt.Errorf("experiments.Table has %d rows, the benchmark %d", len(ref), len(p.rows))
	}
	for i, r := range ref {
		if r.Circuit != p.rows[i].circuit || r.Groups != p.rows[i].groups ||
			math.Float64bits(r.Wirelen) != math.Float64bits(p.rows[i].wire) {
			return nil, fmt.Errorf("row %d: experiments.Table has %s k=%d wire %v, the benchmark %s k=%d wire %v",
				i, r.Circuit, r.Groups, r.Wirelen, p.rows[i].circuit, p.rows[i].groups, p.rows[i].wire)
		}
	}
	fmt.Fprintf(w, "cross-check against experiments.Table: all %d rows match bit for bit\n", len(ref))
	return extra, nil
}
