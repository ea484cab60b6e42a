package shard

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/obs"
)

// fastFaultOpts keeps injected-fault retries out of test wall time.
func fastFaultOpts(plan *dispatch.FaultPlan) dispatch.Options {
	return dispatch.Options{
		Faults:      plan,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Millisecond,
	}
}

// seededPlanTasks is the per-phase task count a chaos plan must cover: the
// shard count and the pilot pass's patch fan-out.
func seededPlanTasks(k int) int {
	if k < pilotPatches {
		return pilotPatches
	}
	return k
}

// TestFaultedShardedBitwiseIdentical is the fault suite's acceptance test:
// a grouped piloted 10k build under a seeded fault plan — panics, transient
// errors and stragglers across both dispatch phases — must produce the
// bitwise-identical tree (wirelength bits, per-sink delay digest, aggregate
// stats) of the fault-free build, at every shard count. Every re-execution
// is a pure function of the same inputs, so recovery must be invisible in
// the output and visible only in the dispatch report.
func TestFaultedShardedBitwiseIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	in := groupedInstance("uniform", 10_000, 4)
	for _, k := range []int{2, 4, 8} {
		opt := core.Options{Shards: k, Pilot: true, Pairer: core.PairerGrid}
		ref, err := BuildDispatch(in, opt, dispatch.Options{})
		if err != nil {
			t.Fatalf("shards=%d: fault-free: %v", k, err)
		}
		plan := dispatch.SeededPlan(int64(100+k), seededPlanTasks(k), 2*time.Millisecond, "pilot", "shard")
		got, err := BuildDispatch(in, opt, fastFaultOpts(plan))
		if err != nil {
			t.Fatalf("shards=%d: faulted build failed: %v", k, err)
		}
		wb, rb := math.Float64bits(got.Wirelength), math.Float64bits(ref.Wirelength)
		if wb != rb {
			t.Errorf("shards=%d: faulted wirelength bits 0x%016x (%v), want 0x%016x (%v)",
				k, wb, got.Wirelength, rb, ref.Wirelength)
		}
		if gh, rh := delayDigest(t, got.Root, in), delayDigest(t, ref.Root, in); gh != rh {
			t.Errorf("shards=%d: faulted delay digest 0x%016x, want 0x%016x", k, gh, rh)
		}
		if got.Stats != ref.Stats {
			t.Errorf("shards=%d: faulted stats %+v, want %+v", k, got.Stats, ref.Stats)
		}
		d := got.Dispatch
		if d.FaultsInjected == 0 {
			t.Errorf("shards=%d: seeded plan (%d faults) injected nothing", k, plan.Len())
		}
		if d.Retries == 0 && d.PanicsRecovered == 0 {
			t.Errorf("shards=%d: no recovery path fired under %d injected faults: %+v", k, d.FaultsInjected, d)
		}
		t.Logf("shards=%d: %+v", k, d)
	}
}

// TestFaultedChaosSeedsSmall sweeps seeds on a small grouped piloted build,
// broadening the (phase, task, attempt) coordinates the suite exercises
// while staying cheap.
func TestFaultedChaosSeedsSmall(t *testing.T) {
	in := bench.Intermingled(bench.Small(600, 21), 3, 55)
	opt := core.Options{Shards: 2, Pilot: true}
	ref, err := BuildDispatch(in, opt, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refWire, refHash := math.Float64bits(ref.Wirelength), delayDigest(t, ref.Root, in)
	for seed := int64(1); seed <= 4; seed++ {
		plan := dispatch.SeededPlan(seed, seededPlanTasks(2), time.Millisecond, "pilot", "shard")
		got, err := BuildDispatch(in, opt, fastFaultOpts(plan))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if w := math.Float64bits(got.Wirelength); w != refWire {
			t.Errorf("seed %d: wirelength bits 0x%016x, want 0x%016x", seed, w, refWire)
		}
		if h := delayDigest(t, got.Root, in); h != refHash {
			t.Errorf("seed %d: delay digest 0x%016x, want 0x%016x", seed, h, refHash)
		}
	}
}

// TestFaultedShardPanicSurfacesAsError pins panic containment at the build
// boundary: a shard whose every execution panics must yield an error naming
// the phase, the task and the attempts spent — never a process crash — and
// the error must unwrap to both the terminal *TaskError and the contained
// *PanicError.
func TestFaultedShardPanicSurfacesAsError(t *testing.T) {
	in := bench.Small(600, 21)
	plan := dispatch.NewFaultPlan().
		PanicAt("shard", 0, 0).
		PanicAt("shard", 0, 1).
		PanicAt("shard", 0, 2)
	_, err := BuildDispatch(in, core.Options{SingleGroup: true, Shards: 2}, fastFaultOpts(plan))
	if err == nil {
		t.Fatal("a shard panicking on every attempt returned nil error")
	}
	var te *dispatch.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error %T (%v), want *dispatch.TaskError", err, err)
	}
	if te.Phase != "shard" || te.Index != 0 || te.Attempts != 3 {
		t.Errorf("TaskError = phase %q task %d attempts %d, want shard/0/3", te.Phase, te.Index, te.Attempts)
	}
	var pe *dispatch.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not unwrap to *dispatch.PanicError: %v", err)
	}
	if pe.Phase != "shard" || len(pe.Stack) == 0 {
		t.Errorf("PanicError phase %q, stack %d bytes", pe.Phase, len(pe.Stack))
	}
}

// TestFaultedPilotPanicSurfacesAsError is the same contract for the pilot
// phase: a patch build that panics on every attempt surfaces as an error
// naming "pilot".
func TestFaultedPilotPanicSurfacesAsError(t *testing.T) {
	// 120 sinks < pilotPatchSinks: the first sample degenerates to the full
	// set, so the pilot dispatches exactly one patch — task 0.
	in := bench.Intermingled(bench.Small(120, 13), 3, 7)
	plan := dispatch.NewFaultPlan().
		PanicAt("pilot", 0, 0).
		PanicAt("pilot", 0, 1).
		PanicAt("pilot", 0, 2)
	_, err := BuildDispatch(in, core.Options{Shards: 2, Pilot: true}, fastFaultOpts(plan))
	if err == nil {
		t.Fatal("a pilot patch panicking on every attempt returned nil error")
	}
	var te *dispatch.TaskError
	if !errors.As(err, &te) || te.Phase != "pilot" {
		t.Fatalf("error %v, want a *dispatch.TaskError in phase pilot", err)
	}
	if !strings.Contains(err.Error(), "pilot") {
		t.Errorf("error text does not name the pilot phase: %v", err)
	}
}

// TestFaultedTransientRecoversInvisibly checks the retry path alone: one
// transient first-attempt failure retries once and the build output carries
// no trace of it beyond the dispatch report.
func TestFaultedTransientRecoversInvisibly(t *testing.T) {
	in := bench.Small(600, 21)
	opt := core.Options{SingleGroup: true, Shards: 2}
	ref, err := BuildDispatch(in, opt, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := dispatch.NewFaultPlan().
		ErrorAt("shard", 1, 0, dispatch.MarkTransient(dispatch.ErrInjected))
	got, err := BuildDispatch(in, opt, fastFaultOpts(plan))
	if err != nil {
		t.Fatal(err)
	}
	if got.Wirelength != ref.Wirelength {
		t.Errorf("retried build wirelength %v, want %v", got.Wirelength, ref.Wirelength)
	}
	d := got.Dispatch
	if d.Retries != 1 || d.FaultsInjected != 1 || d.PanicsRecovered != 0 {
		t.Errorf("dispatch report = %+v, want exactly 1 retry of 1 injected fault", d)
	}
}

// TestFaultedPermanentFailsFast: an unmarked injected error is deterministic
// from the dispatcher's seat and must fail the build after a single attempt.
func TestFaultedPermanentFailsFast(t *testing.T) {
	in := bench.Small(600, 21)
	permanent := errors.New("deterministic option conflict")
	plan := dispatch.NewFaultPlan().ErrorAt("shard", 0, 0, permanent)
	res, err := BuildDispatch(in, core.Options{SingleGroup: true, Shards: 2}, fastFaultOpts(plan))
	if err == nil {
		t.Fatalf("permanent fault returned nil error (res=%v)", res)
	}
	if !errors.Is(err, permanent) {
		t.Errorf("error %v does not unwrap to the injected error", err)
	}
	var te *dispatch.TaskError
	if !errors.As(err, &te) || te.Attempts != 1 {
		t.Errorf("error %v, want a TaskError after exactly 1 attempt", err)
	}
}

// TestShardedCancellation threads context cancellation through the
// dispatcher into the shard builds: a dead context aborts the whole sharded
// build promptly with an error that unwraps to the context's.
func TestShardedCancellation(t *testing.T) {
	in := bench.Small(3000, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := BuildDispatch(in, core.Options{SingleGroup: true, Shards: 4, Ctx: ctx}, dispatch.Options{})
	if err == nil {
		t.Fatal("sharded build under a dead context returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v to unwind the sharded build", elapsed)
	}
}

// TestHedgedStragglerBitwiseAndObservable injects one straggling shard and
// requires the hedge machinery to (a) fire — observable as Dispatch.Hedges —
// (b) stay bounded at one duplicate per task, and (c) leave the tree
// bitwise-identical to the fault-free build: the hedge races a delayed twin
// of itself, so whichever wins delivers the same bits.
func TestHedgedStragglerBitwiseAndObservable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const k = 4
	in := bench.Small(3000, 17)
	opt := core.Options{SingleGroup: true, Shards: k}
	ref, err := BuildDispatch(in, opt, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := dispatch.NewFaultPlan().DelayAt("shard", 0, 0, time.Second)
	dopt := dispatch.Options{
		Faults:        plan,
		HedgeQuantile: 0.5,
		HedgeFactor:   2,
		HedgeSlack:    25 * time.Millisecond,
	}
	got, err := BuildDispatch(in, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if w, r := math.Float64bits(got.Wirelength), math.Float64bits(ref.Wirelength); w != r {
		t.Errorf("hedged wirelength bits 0x%016x, want 0x%016x", w, r)
	}
	if gh, rh := delayDigest(t, got.Root, in), delayDigest(t, ref.Root, in); gh != rh {
		t.Errorf("hedged delay digest 0x%016x, want 0x%016x", gh, rh)
	}
	d := got.Dispatch
	if d.Hedges < 1 {
		t.Errorf("straggler did not hedge: %+v", d)
	}
	if d.Hedges > k {
		t.Errorf("Hedges = %d on %d tasks — more than one duplicate somewhere: %+v", d.Hedges, k, d)
	}
	if extra := d.Attempts - k - d.Retries; extra != d.Hedges {
		t.Errorf("attempts %d on %d tasks with %d retries: %d extra executions, want Hedges=%d",
			d.Attempts, k, d.Retries, extra, d.Hedges)
	}
	t.Logf("dispatch: %+v", d)
}

// TestFaultedTracedRun: a traced faulted run must carry the dispatch_*
// metrics on the trace (the longitudinal chaos artifact depends on them) and
// still produce the fault-free tree.
func TestFaultedTracedRun(t *testing.T) {
	in := bench.Intermingled(bench.Small(600, 21), 3, 55)
	opt := core.Options{Shards: 2, Pilot: true}
	ref, err := BuildDispatch(in, opt, dispatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("chaos")
	topt := opt
	topt.Trace = tr
	plan := dispatch.SeededPlan(3, seededPlanTasks(2), time.Millisecond, "pilot", "shard")
	got, err := BuildDispatch(in, topt, fastFaultOpts(plan))
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if got.Wirelength != ref.Wirelength {
		t.Errorf("traced faulted wirelength %v, want %v", got.Wirelength, ref.Wirelength)
	}
	d := got.Dispatch
	if v, ok := tr.MetricValue("dispatch_faults_injected"); !ok || v != float64(d.FaultsInjected) {
		t.Errorf("trace dispatch_faults_injected = %v (found %v), report says %d", v, ok, d.FaultsInjected)
	}
	if v, _ := tr.MetricValue("dispatch_retries"); v != float64(d.Retries) {
		t.Errorf("trace dispatch_retries = %v, report says %d", v, d.Retries)
	}
	if v, _ := tr.MetricValue("dispatch_panics_recovered"); v != float64(d.PanicsRecovered) {
		t.Errorf("trace dispatch_panics_recovered = %v, report says %d", v, d.PanicsRecovered)
	}
}
