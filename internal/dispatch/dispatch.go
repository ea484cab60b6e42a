// Package dispatch executes the sharded pipeline's sub-builds as retryable
// tasks behind a Runner interface — the fault-tolerance layer between
// shard.Build and the engines that execute its work. Two transports
// implement it: the in-process runner (a closure over core.BuildSubtree)
// and the RemoteRunner, which ships work units to a WorkerPool of HTTP
// routeworker processes and degrades gracefully back to the in-process
// runner when the fleet cannot take a task (see remote.go). The coordinator
// is transport-agnostic.
//
// The coordinator owns four failure disciplines, all leaning on the
// determinism contract (a sub-build is a pure function of its inputs, so any
// re-execution is bitwise-identical to the original):
//
//   - Panic containment: a panic inside a task execution becomes a
//     *PanicError carrying the phase, task index, attempt and stack — never a
//     process crash. Deterministic code would panic again on retry, but a
//     worker crash is transient from the coordinator's seat (the future net
//     transport maps worker loss to exactly this error), so panics classify
//     as Transient by default.
//   - Retry with capped exponential backoff: a failed attempt whose error
//     classifies Transient relaunches after Base·2^(attempt−1), capped at
//     Max, up to MaxAttempts total executions. Deterministic failures
//     (option conflicts, validation errors — anything unmarked) classify
//     Permanent and fail the run fast.
//   - Hedged straggler re-dispatch: once at least half the tasks have
//     completed, a still-running task older than
//     quantile(completed durations)·HedgeFactor + HedgeSlack gets one (and
//     only one) duplicate execution; the first result wins and the loser is
//     cancelled. Safe precisely because executions are deterministic.
//   - Cancellation: every execution runs under a context derived from the
//     caller's; cancelling the caller's context cancels all executions, and
//     core's merge loop checks it once per round.
//
// FaultPlan is the deterministic fault-injection harness: panics, errors and
// delays pinned at (phase, task, attempt) coordinates, so the acceptance
// tests can replay exact failure schedules and pin bitwise-identical output.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/obs"
)

// Task identifies one execution of a dispatched work unit: task Index of the
// batch, 0-based Attempt (retries and hedges increment it), and whether this
// execution is a hedged duplicate racing an earlier attempt.
type Task struct {
	Index   int
	Attempt int
	Hedged  bool
}

// Runner executes task attempts. Run must be safe for concurrent calls and
// must treat every execution as independent (fresh private state per call):
// the coordinator may run a hedge concurrently with the attempt it duplicates.
// The returned value is the task's result; the first successful execution of
// a task wins.
type Runner interface {
	Run(ctx context.Context, t Task) (any, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx context.Context, t Task) (any, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, t Task) (any, error) { return f(ctx, t) }

// Class is an error's retry classification.
type Class int

const (
	// Transient errors are worth retrying (worker crashes, injected faults,
	// anything marked via MarkTransient).
	Transient Class = iota
	// Permanent errors fail the run fast (deterministic failures: option
	// conflicts, validation errors, cancellation).
	Permanent
)

// classed wraps an error with an explicit classification.
type classed struct {
	err   error
	class Class
}

func (e *classed) Error() string { return e.err.Error() }
func (e *classed) Unwrap() error { return e.err }

// MarkTransient marks err as retryable for DefaultClassify.
func MarkTransient(err error) error { return &classed{err: err, class: Transient} }

// MarkPermanent marks err as fail-fast for DefaultClassify.
func MarkPermanent(err error) error { return &classed{err: err, class: Permanent} }

// DefaultClassify is the default error-classification hook: explicit marks
// win, recovered panics are Transient (a deterministic panic recurs and
// exhausts MaxAttempts quickly, but a crashed worker is transient from the
// coordinator's seat), cancellation is Permanent, and every unmarked error is
// Permanent — in-process failures are deterministic, so retrying them only
// replays the failure.
func DefaultClassify(err error) Class {
	var c *classed
	if errors.As(err, &c) {
		return c.class
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return Transient
	}
	return Permanent
}

// PanicError is a contained panic: the phase and task coordinates it fired
// at, the recovered value, and the goroutine stack captured at recovery.
type PanicError struct {
	Phase   string
	Index   int // task index; -1 for single-phase Protect recoveries
	Attempt int
	Value   any
	Stack   []byte
}

func (e *PanicError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("dispatch: panic in %s: %v\n%s", e.Phase, e.Value, e.Stack)
	}
	return fmt.Sprintf("dispatch: panic in %s task %d (attempt %d): %v\n%s",
		e.Phase, e.Index, e.Attempt, e.Value, e.Stack)
}

// TaskError is a task's terminal failure: the last error after Attempts
// executions of task Index, with no retry budget (or reason) left.
type TaskError struct {
	Phase    string
	Index    int
	Attempts int
	Err      error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("dispatch: %s task %d failed after %d attempt(s): %v",
		e.Phase, e.Index, e.Attempts, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// Protect runs f with panic containment for serial pipeline phases (the
// stitch, the partition, pilot aggregation): a panic becomes a *PanicError
// naming the phase instead of crashing the process.
func Protect(phase string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Phase: phase, Index: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}

// Coordinator defaults.
const (
	DefaultMaxAttempts = 3
	DefaultBackoffBase = 5 * time.Millisecond
	DefaultBackoffMax  = 250 * time.Millisecond
	DefaultHedgeQuant  = 0.5
	DefaultHedgeFactor = 4.0
	DefaultHedgeSlack  = 25 * time.Millisecond
)

// Options configures one Run.
type Options struct {
	// Phase names this dispatch in errors, spans and FaultPlan coordinates
	// (e.g. "shard", "pilot"). Default "task".
	Phase string
	// Workers caps concurrently running executions; 0 runs every task at
	// once (the in-process default: shard counts are small and the builds
	// themselves fan out internally).
	Workers int
	// MaxAttempts bounds executions per task, the first included (default 3).
	// Hedges are the one sanctioned overrun: a task may see MaxAttempts
	// failures plus its single hedge.
	MaxAttempts int
	// BackoffBase/BackoffMax shape the capped exponential retry backoff:
	// attempt k (1-based retry) waits min(Base·2^(k−1), Max).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Classify maps an execution error to a Class; nil uses DefaultClassify.
	Classify func(error) Class
	// HedgeQuantile/HedgeFactor/HedgeSlack set the straggler deadline:
	// quantile(completed durations, q)·factor + slack, evaluated once at
	// least max(1, n/2) siblings have completed. Defaults 0.5 / 4 / 25ms.
	HedgeQuantile float64
	HedgeFactor   float64
	HedgeSlack    time.Duration
	// DisableHedge turns straggler re-dispatch off.
	DisableHedge bool
	// Faults, when non-nil, injects the plan's deterministic faults into
	// matching (Phase, task, attempt) executions.
	Faults *FaultPlan
	// Trace, when non-nil, receives dispatch_* metrics and zero-length
	// event spans (retry/hedge/panic, with task coordinates as attributes).
	// Only the coordinator goroutine touches it.
	Trace *obs.Trace
	// Clock overrides the coordinator's time source (backoff sleeps, hedge
	// deadlines, duration measurement). Nil uses the wall clock; tests use
	// a FakeClock so retry/hedge suites run without real sleeps.
	Clock Clock
	// Remote, when non-nil, is the HTTP worker pool dispatch-aware
	// pipelines route their executions through: shard.BuildDispatch wraps
	// its phase runners in pool.Runner(...) when the field is set. Run
	// itself never reads it — the coordinator stays transport-agnostic and
	// sees a RemoteRunner as just another Runner.
	Remote *WorkerPool
}

// Report counts what fault handling cost during a Run. The same counts are
// exported as obs metrics when Options.Trace is set.
type Report struct {
	Tasks           int
	Attempts        int
	Retries         int
	Hedges          int
	PanicsRecovered int
	FaultsInjected  int
	// RemoteFallbacks counts executions that degraded to the in-process
	// runner because no healthy remote worker could take them; WorkersLost
	// counts workers blacklisted after consecutive failures during the run.
	// Both zero on all-local dispatches.
	RemoteFallbacks int
	WorkersLost     int
}

// Add accumulates another dispatch's report (shard.Build sums its pilot and
// shard phases into one per-run report).
func (r *Report) Add(o Report) {
	r.Tasks += o.Tasks
	r.Attempts += o.Attempts
	r.Retries += o.Retries
	r.Hedges += o.Hedges
	r.PanicsRecovered += o.PanicsRecovered
	r.FaultsInjected += o.FaultsInjected
	r.RemoteFallbacks += o.RemoteFallbacks
	r.WorkersLost += o.WorkersLost
}

// Fault is one injected failure: an optional straggler delay, then either a
// panic or an error — or, for remote transports, a network fault. Delay
// composes with Panic/Err (a straggler that then crashes); all fields zero
// is a no-op. The coordinator injects Panic/Err/Delay itself; Drop and
// Corrupt are transport coordinates a RemoteRunner applies (a dropped
// connection before the request, or response bytes corrupted in transit so
// decoding fails) — both surface as Transient errors, so the retry
// machinery drives re-dispatch. On an all-local dispatch net faults are
// inert.
type Fault struct {
	Panic   bool
	Err     error
	Delay   time.Duration
	Drop    bool
	Corrupt bool
}

// faultKey pins a fault to (phase, task, attempt) coordinates.
type faultKey struct {
	phase         string
	task, attempt int
}

// FaultPlan is the deterministic fault-injection harness: a set of faults at
// exact (phase, task, attempt) coordinates. Construction is not synchronized;
// build the plan fully before handing it to Run (executions only read it).
type FaultPlan struct {
	faults map[faultKey]Fault
}

// NewFaultPlan returns an empty plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{faults: map[faultKey]Fault{}} }

// PanicAt injects a panic into the given execution.
func (p *FaultPlan) PanicAt(phase string, task, attempt int) *FaultPlan {
	return p.add(phase, task, attempt, Fault{Panic: true})
}

// ErrorAt injects err into the given execution. Wrap with MarkTransient to
// make the default classifier retry it.
func (p *FaultPlan) ErrorAt(phase string, task, attempt int, err error) *FaultPlan {
	return p.add(phase, task, attempt, Fault{Err: err})
}

// DelayAt makes the given execution straggle by d before running.
func (p *FaultPlan) DelayAt(phase string, task, attempt int, d time.Duration) *FaultPlan {
	f := p.faults[faultKey{phase, task, attempt}]
	f.Delay = d
	return p.add(phase, task, attempt, f)
}

// DropAt makes a remote transport drop the connection for the given
// execution (a Transient error before any request is sent).
func (p *FaultPlan) DropAt(phase string, task, attempt int) *FaultPlan {
	f := p.faults[faultKey{phase, task, attempt}]
	f.Drop = true
	return p.add(phase, task, attempt, f)
}

// CorruptAt makes a remote transport corrupt the response bytes of the
// given execution before decoding (a decode failure classified Transient).
func (p *FaultPlan) CorruptAt(phase string, task, attempt int) *FaultPlan {
	f := p.faults[faultKey{phase, task, attempt}]
	f.Corrupt = true
	return p.add(phase, task, attempt, f)
}

// Merge folds every fault of o into p (union per coordinate: flags OR, the
// longer delay wins, p's error wins when both plans set one). It lets the
// chaos harness layer a seeded net-fault plan over a seeded local plan.
func (p *FaultPlan) Merge(o *FaultPlan) *FaultPlan {
	if o == nil {
		return p
	}
	if p.faults == nil {
		p.faults = map[faultKey]Fault{}
	}
	for k, f := range o.faults {
		prev := p.faults[k]
		prev.Panic = prev.Panic || f.Panic
		if prev.Err == nil {
			prev.Err = f.Err
		}
		if f.Delay > prev.Delay {
			prev.Delay = f.Delay
		}
		prev.Drop = prev.Drop || f.Drop
		prev.Corrupt = prev.Corrupt || f.Corrupt
		p.faults[k] = prev
	}
	return p
}

func (p *FaultPlan) add(phase string, task, attempt int, f Fault) *FaultPlan {
	if p.faults == nil {
		p.faults = map[faultKey]Fault{}
	}
	prev := p.faults[faultKey{phase, task, attempt}]
	if f.Delay == 0 {
		f.Delay = prev.Delay
	}
	p.faults[faultKey{phase, task, attempt}] = f
	return p
}

// Len reports the number of planned faults.
func (p *FaultPlan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.faults)
}

// at returns the fault planned for the given coordinates, if any.
func (p *FaultPlan) at(phase string, task, attempt int) (Fault, bool) {
	if p == nil || p.faults == nil {
		return Fault{}, false
	}
	f, ok := p.faults[faultKey{phase, task, attempt}]
	return f, ok
}

// ErrInjected is the base error of SeededPlan's transient faults.
var ErrInjected = errors.New("dispatch: injected transient fault")

// SeededPlan generates a survivable random plan over n tasks per phase:
// roughly half the tasks fail their first attempt (panic or transient
// error), a few fail the retry too (still under the default MaxAttempts),
// and a couple straggle by delay. A default-policy dispatch always completes
// under the plan; it exists to prove the output is bitwise-unchanged while
// every recovery path fires.
func SeededPlan(seed int64, n int, delay time.Duration, phases ...string) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	p := NewFaultPlan()
	for _, phase := range phases {
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.25:
				p.PanicAt(phase, i, 0)
			case r < 0.45:
				p.ErrorAt(phase, i, 0, MarkTransient(fmt.Errorf("%w (%s task %d)", ErrInjected, phase, i)))
			case r < 0.60:
				// Two consecutive faults: the second retry must still land.
				p.ErrorAt(phase, i, 0, MarkTransient(fmt.Errorf("%w (%s task %d)", ErrInjected, phase, i)))
				p.PanicAt(phase, i, 1)
			}
			if delay > 0 && rng.Float64() < 0.25 {
				p.DelayAt(phase, i, 0, delay)
			}
		}
	}
	return p
}

// SeededNetPlan generates a survivable random plan of network faults over n
// tasks per phase: dropped connections and corrupted responses at attempts
// 0 and 1 only, so even layered over a SeededPlan (whose faults also stop
// at attempt 1) the third attempt of every task is clean and a
// default-policy dispatch always completes. Applied by remote transports
// only; merge it into a local plan with Merge for chaos runs that exercise
// both fault families at once.
func SeededNetPlan(seed int64, n int, phases ...string) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	p := NewFaultPlan()
	for _, phase := range phases {
		for i := 0; i < n; i++ {
			switch r := rng.Float64(); {
			case r < 0.25:
				p.DropAt(phase, i, 0)
			case r < 0.40:
				p.CorruptAt(phase, i, 0)
			case r < 0.50:
				// Two consecutive net faults: the second retry must land.
				p.DropAt(phase, i, 0)
				p.CorruptAt(phase, i, 1)
			}
		}
	}
	return p
}

// launch is one scheduled execution: the task coordinates plus the backoff
// the worker sleeps before running.
type launch struct {
	t       Task
	backoff time.Duration
}

// event is one finished execution reported back to the coordinator.
type event struct {
	t   Task
	val any
	err error
	dur time.Duration
}

// taskState is the coordinator's view of one task.
type taskState struct {
	done     bool
	attempts int // executions launched (retries and hedges included)
	running  int // executions currently in flight
	hedged   bool
	started  time.Time // launch time of the oldest in-flight execution
	cancels  map[int]context.CancelFunc
	lastErr  error
}

// runObserver lets a dispatch-package runner report run-scoped state (the
// RemoteRunner's fallback and worker-loss records) into the Report and the
// trace after the drain, on the coordinator goroutine — the only place the
// single-goroutine trace contract allows. Unexported on purpose: outside
// runners cannot inject into the report.
type runObserver interface {
	observeRun(rep *Report, tr *obs.Trace)
}

// coord is the single-goroutine coordinator state of one Run.
type coord struct {
	o        Options
	clock    Clock
	runner   Runner
	runCtx   context.Context
	events   chan event
	tasks    []taskState
	results  []any
	pending  []launch
	inflight int
	done     int
	durs     []time.Duration // completed winners' durations (hedge baseline)
	rep      Report
	failErr  error
}

// Run executes n tasks through the runner under the options' fault policy
// and returns the per-task results in index order. On failure it cancels the
// outstanding executions, waits for them to drain (no execution outlives
// Run), and returns the first terminal *TaskError. A nil ctx is Background.
func Run(ctx context.Context, n int, r Runner, o Options) ([]any, Report, error) {
	if n < 0 {
		return nil, Report{}, fmt.Errorf("dispatch: %d tasks", n)
	}
	if o.Phase == "" {
		o.Phase = "task"
	}
	if o.Workers <= 0 {
		o.Workers = n
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.Classify == nil {
		o.Classify = DefaultClassify
	}
	if o.HedgeQuantile <= 0 || o.HedgeQuantile > 1 {
		o.HedgeQuantile = DefaultHedgeQuant
	}
	if o.HedgeFactor <= 0 {
		o.HedgeFactor = DefaultHedgeFactor
	}
	if o.HedgeSlack <= 0 {
		o.HedgeSlack = DefaultHedgeSlack
	}
	if o.Clock == nil {
		o.Clock = wallClock{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rep := Report{Tasks: n}
	if n == 0 {
		return nil, rep, nil
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	c := &coord{
		o:       o,
		clock:   o.Clock,
		runner:  r,
		runCtx:  runCtx,
		events:  make(chan event),
		tasks:   make([]taskState, n),
		results: make([]any, n),
		rep:     rep,
	}
	for i := range c.tasks {
		c.tasks[i].cancels = map[int]context.CancelFunc{}
		c.pending = append(c.pending, launch{t: Task{Index: i}})
	}
	c.fill()

	// The event loop: receive completions, and — when a hedge deadline is
	// computable — race them against a timer armed for the earliest
	// straggler. Spurious timer fires are harmless (due-ness re-validates).
	timer := c.clock.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C()
	}
	for c.done < n && c.failErr == nil {
		var timerC <-chan time.Time
		if wait, ok := c.nextHedgeWait(); ok {
			timer.Reset(wait)
			timerC = timer.C()
		}
		select {
		case ev := <-c.events:
			c.handle(ev)
		case <-timerC:
			timerC = nil
			c.launchDueHedges()
		}
		if timerC != nil && !timer.Stop() {
			<-timer.C()
		}
	}

	// Drain: cancel whatever is still running (hedge losers after success,
	// everything after failure) and wait it out, so no execution goroutine —
	// or its writes into caller-owned state like child traces — outlives Run.
	cancel()
	c.pending = nil
	for c.inflight > 0 {
		ev := <-c.events
		c.inflight--
		c.tasks[ev.t.Index].running--
	}
	// After the drain no execution can record further; fold run-scoped
	// runner state (remote fallbacks, lost workers) into the report and
	// trace on this, the coordinator goroutine.
	if ob, ok := r.(runObserver); ok {
		ob.observeRun(&c.rep, o.Trace)
	}
	if c.failErr != nil {
		return nil, c.rep, c.failErr
	}
	return c.results, c.rep, nil
}

// fill launches pending executions while worker slots are free.
func (c *coord) fill() {
	for len(c.pending) > 0 && c.inflight < c.o.Workers && c.failErr == nil {
		l := c.pending[0]
		c.pending = c.pending[1:]
		c.launch(l)
	}
}

// launch starts one execution goroutine.
func (c *coord) launch(l launch) {
	ts := &c.tasks[l.t.Index]
	ts.attempts++
	ts.running++
	if ts.running == 1 {
		ts.started = c.clock.Now()
	}
	if _, ok := c.o.Faults.at(c.o.Phase, l.t.Index, l.t.Attempt); ok {
		c.rep.FaultsInjected++
		c.o.Trace.Metric(obs.MetricDispatchFaults, 1)
	}
	ectx, ecancel := context.WithCancel(c.runCtx)
	ts.cancels[l.t.Attempt] = ecancel
	c.inflight++
	c.rep.Attempts++
	go c.exec(ectx, l)
}

// exec runs one execution on its own goroutine: backoff sleep, fault
// injection, the runner itself — all under panic containment — then reports
// the outcome. It always sends exactly one event.
func (c *coord) exec(ctx context.Context, l launch) {
	start := c.clock.Now()
	var val any
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{
					Phase:   c.o.Phase,
					Index:   l.t.Index,
					Attempt: l.t.Attempt,
					Value:   r,
					Stack:   debug.Stack(),
				}
			}
		}()
		if err = sleepCtx(ctx, l.backoff, c.clock); err != nil {
			return
		}
		if f, ok := c.o.Faults.at(c.o.Phase, l.t.Index, l.t.Attempt); ok {
			if err = sleepCtx(ctx, f.Delay, c.clock); err != nil {
				return
			}
			if f.Panic {
				panic(fmt.Sprintf("injected fault (%s task %d attempt %d)", c.o.Phase, l.t.Index, l.t.Attempt))
			}
			if f.Err != nil {
				err = f.Err
				return
			}
		}
		val, err = c.runner.Run(ctx, l.t)
	}()
	c.events <- event{t: l.t, val: val, err: err, dur: c.clock.Now().Sub(start)}
}

// handle processes one completion on the coordinator goroutine.
func (c *coord) handle(ev event) {
	c.inflight--
	ts := &c.tasks[ev.t.Index]
	ts.running--
	if cancelExec := ts.cancels[ev.t.Attempt]; cancelExec != nil {
		cancelExec()
		delete(ts.cancels, ev.t.Attempt)
	}
	if ts.done {
		// A hedge loser (or a post-win cancellation echo): first result won.
		c.fill()
		return
	}
	if ev.err == nil {
		ts.done = true
		c.results[ev.t.Index] = ev.val
		c.done++
		c.durs = append(c.durs, ev.dur)
		for _, cancelExec := range ts.cancels {
			cancelExec() // the racing sibling lost
		}
		c.fill()
		return
	}

	var pe *PanicError
	if errors.As(ev.err, &pe) {
		c.rep.PanicsRecovered++
		c.o.Trace.Metric(obs.MetricDispatchPanics, 1)
		c.o.Trace.Begin("dispatch_panic").
			Attr("task", float64(ev.t.Index)).
			Attr("attempt", float64(ev.t.Attempt)).End()
	}
	ts.lastErr = ev.err
	if ts.running > 0 {
		// A racing sibling is still in flight; it may yet win. Defer the
		// retry-vs-fail decision to its completion.
		c.fill()
		return
	}
	if c.o.Classify(ev.err) == Transient && ts.attempts < c.o.MaxAttempts {
		backoff := c.backoffFor(ts.attempts)
		c.rep.Retries++
		c.o.Trace.Metric(obs.MetricDispatchRetries, 1)
		c.o.Trace.Begin("dispatch_retry").
			Attr("task", float64(ev.t.Index)).
			Attr("attempt", float64(ts.attempts)).
			Attr("backoff_ms", float64(backoff)/float64(time.Millisecond)).End()
		c.pending = append(c.pending, launch{
			t:       Task{Index: ev.t.Index, Attempt: ts.attempts},
			backoff: backoff,
		})
		c.fill()
		return
	}
	c.failErr = &TaskError{Phase: c.o.Phase, Index: ev.t.Index, Attempts: ts.attempts, Err: ev.err}
}

// backoffFor returns the capped exponential backoff before retry number k
// (1-based): min(Base·2^(k−1), Max).
func (c *coord) backoffFor(k int) time.Duration {
	d := c.o.BackoffBase
	for i := 1; i < k && d < c.o.BackoffMax; i++ {
		d *= 2
	}
	if d > c.o.BackoffMax {
		d = c.o.BackoffMax
	}
	return d
}

// hedgeDelay returns the current straggler deadline relative to an
// execution's start, once enough siblings completed to define one.
func (c *coord) hedgeDelay() (time.Duration, bool) {
	if c.o.DisableHedge || len(c.durs) == 0 {
		return 0, false
	}
	minDone := len(c.tasks) / 2
	if minDone < 1 {
		minDone = 1
	}
	if c.done < minDone {
		return 0, false
	}
	q := quantileDur(c.durs, c.o.HedgeQuantile)
	return time.Duration(float64(q)*c.o.HedgeFactor) + c.o.HedgeSlack, true
}

// nextHedgeWait returns how long until the earliest running, unhedged task
// crosses the straggler deadline.
func (c *coord) nextHedgeWait() (time.Duration, bool) {
	hd, ok := c.hedgeDelay()
	if !ok {
		return 0, false
	}
	now := c.clock.Now()
	found := false
	var min time.Duration
	for i := range c.tasks {
		ts := &c.tasks[i]
		if ts.done || ts.hedged || ts.running == 0 {
			continue
		}
		w := ts.started.Add(hd).Sub(now)
		if !found || w < min {
			found, min = true, w
		}
	}
	if min < 0 {
		min = 0
	}
	return min, found
}

// launchDueHedges dispatches one duplicate execution for every running task
// past the straggler deadline (at most one hedge per task, ever).
func (c *coord) launchDueHedges() {
	hd, ok := c.hedgeDelay()
	if !ok {
		return
	}
	now := c.clock.Now()
	for i := range c.tasks {
		ts := &c.tasks[i]
		if ts.done || ts.hedged || ts.running == 0 {
			continue
		}
		if now.Sub(ts.started) < hd {
			continue
		}
		ts.hedged = true
		c.rep.Hedges++
		c.o.Trace.Metric(obs.MetricDispatchHedges, 1)
		c.o.Trace.Begin("dispatch_hedge").
			Attr("task", float64(i)).
			Attr("attempt", float64(ts.attempts)).
			Attr("age_ms", float64(now.Sub(ts.started))/float64(time.Millisecond)).End()
		c.pending = append(c.pending, launch{t: Task{Index: i, Attempt: ts.attempts, Hedged: true}})
	}
	c.fill()
}

// quantileDur returns the q-quantile of the given durations (nearest-rank).
func quantileDur(durs []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// sleepCtx sleeps d on the given clock, waking early (with the context's
// error) on cancellation. d ≤ 0 only polls the context.
func sleepCtx(ctx context.Context, d time.Duration, clk Clock) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
