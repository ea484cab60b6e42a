package dispatch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// testWorker is a minimal worker endpoint: healthy unless told otherwise,
// answering /build with a canned body and status.
type testWorker struct {
	srv     *httptest.Server
	healthy atomic.Bool
	status  atomic.Int32
	body    atomic.Value // string
	builds  atomic.Int32
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	w := &testWorker{}
	w.healthy.Store(true)
	w.status.Store(http.StatusOK)
	w.body.Store("result")
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealthz, func(rw http.ResponseWriter, r *http.Request) {
		if !w.healthy.Load() {
			http.Error(rw, "down", http.StatusServiceUnavailable)
			return
		}
		rw.Write([]byte("ok\n"))
	})
	mux.HandleFunc(PathBuild, func(rw http.ResponseWriter, r *http.Request) {
		w.builds.Add(1)
		st := int(w.status.Load())
		if st != http.StatusOK {
			http.Error(rw, "nope", st)
			return
		}
		rw.Write([]byte(w.body.Load().(string)))
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func testPool(t *testing.T, o PoolOptions, urls ...string) *WorkerPool {
	t.Helper()
	if o.HealthPeriod == 0 {
		// Keep the background health loop out of the way unless a test
		// drives it explicitly through a fake clock.
		o.HealthPeriod = time.Hour
		o.Clock = NewFakeClock()
	}
	p, err := NewWorkerPool(urls, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func echoConfig(local Runner) RemoteConfig {
	return RemoteConfig{
		Phase:  "t",
		Encode: func(tk Task) ([]byte, error) { return []byte("work"), nil },
		Decode: func(data []byte) (any, error) {
			if string(data) != "result" {
				return nil, errors.New("garbled")
			}
			return "remote", nil
		},
		Local: local,
	}
}

func localConst(v any) Runner {
	return RunnerFunc(func(ctx context.Context, tk Task) (any, error) { return v, nil })
}

func TestRemoteRunnerExecutesRemotely(t *testing.T) {
	w := newTestWorker(t)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background(), Task{})
	if err != nil {
		t.Fatal(err)
	}
	if out.(string) != "remote" {
		t.Fatalf("out = %v, want remote execution", out)
	}
	if w.builds.Load() != 1 {
		t.Fatalf("worker saw %d builds, want 1", w.builds.Load())
	}
}

// TestRemoteRunnerFailsOverWithinOneExecution pins intra-execution failover:
// a dead first worker must not consume a coordinator retry — the same Run
// call walks to the next healthy worker.
func TestRemoteRunnerFailsOverWithinOneExecution(t *testing.T) {
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close() // the port now refuses connections
	live := newTestWorker(t)
	p := testPool(t, PoolOptions{}, deadURL, live.srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		out, err := r.Run(context.Background(), Task{Index: i})
		if err != nil {
			t.Fatal(err)
		}
		if out.(string) != "remote" {
			t.Fatalf("task %d fell back to %v despite a healthy worker", i, out)
		}
	}
}

// TestRemoteRunnerCancelledRequestIsNotAWorkerFailure pins that a request
// the caller cancels — a hedge loser, a deadline — does not count against
// the worker: with BlacklistAfter 1, a build cancelled in flight leaves the
// worker healthy. Counted, hedges under load could blacklist the only
// surviving worker and push its tasks onto the in-process fallback.
func TestRemoteRunnerCancelledRequestIsNotAWorkerFailure(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc(PathHealthz, func(rw http.ResponseWriter, r *http.Request) { rw.Write([]byte("ok\n")) })
	mux.HandleFunc(PathBuild, func(rw http.ResponseWriter, r *http.Request) {
		select { // a build that outlasts the caller's deadline
		case <-release:
		case <-r.Context().Done():
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) }) // runs first: unblock before Close waits
	p := testPool(t, PoolOptions{BlacklistAfter: 1}, srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := r.Run(ctx, Task{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want the caller's deadline", err)
	}
	if p.Healthy() != 1 || p.WorkersLost() != 0 {
		t.Fatalf("healthy = %d, lost = %d after a cancelled request; want 1, 0", p.Healthy(), p.WorkersLost())
	}
}

func TestRemoteRunnerFallsBackWhenFleetDown(t *testing.T) {
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()
	p := testPool(t, PoolOptions{}, deadURL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background(), Task{Index: 2, Attempt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.(string) != "local" {
		t.Fatalf("out = %v, want graceful local fallback", out)
	}
	// The recorded fallback folds into the report and trace on observe.
	var rep Report
	tr := obs.New("t")
	r.observeRun(&rep, tr)
	tr.Close()
	if rep.RemoteFallbacks != 1 {
		t.Fatalf("RemoteFallbacks = %d, want 1", rep.RemoteFallbacks)
	}
	if got, _ := tr.MetricValue(obs.MetricDispatchRemoteFallbacks); got != 1 {
		t.Fatalf("trace metric %s = %v, want 1", obs.MetricDispatchRemoteFallbacks, got)
	}
	// A second observe must not double-count.
	r.observeRun(&rep, nil)
	if rep.RemoteFallbacks != 1 {
		t.Fatalf("RemoteFallbacks after re-observe = %d, want 1", rep.RemoteFallbacks)
	}
}

func TestRemoteRunner422IsPermanent(t *testing.T) {
	w := newTestWorker(t)
	w.status.Store(http.StatusUnprocessableEntity)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	r, err := p.Runner(echoConfig(localConst("local")))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), Task{})
	if err == nil {
		t.Fatal("422 returned no error")
	}
	if DefaultClassify(err) != Permanent {
		t.Fatalf("422 classified %v, want Permanent (deterministic build failure)", DefaultClassify(err))
	}
	// A deterministic failure does not blame the worker.
	if p.Healthy() != 1 {
		t.Fatalf("healthy = %d after 422, want 1", p.Healthy())
	}
}

func TestRemoteRunnerCorruptResponseIsTransient(t *testing.T) {
	w := newTestWorker(t)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	cfg := echoConfig(localConst("local"))
	cfg.Faults = (&FaultPlan{}).CorruptAt("t", 0, 0)
	r, err := p.Runner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), Task{Index: 0, Attempt: 0})
	if err == nil {
		t.Fatal("corrupted response decoded cleanly")
	}
	if DefaultClassify(err) != Transient {
		t.Fatalf("undecodable response classified %v, want Transient", DefaultClassify(err))
	}
	// The next attempt has no fault coordinate and succeeds remotely.
	out, err := r.Run(context.Background(), Task{Index: 0, Attempt: 1})
	if err != nil || out.(string) != "remote" {
		t.Fatalf("clean attempt = (%v, %v), want remote success", out, err)
	}
}

func TestRemoteRunnerDropFaultIsTransient(t *testing.T) {
	w := newTestWorker(t)
	p := testPool(t, PoolOptions{}, w.srv.URL)
	cfg := echoConfig(localConst("local"))
	cfg.Faults = (&FaultPlan{}).DropAt("t", 1, 0)
	r, err := p.Runner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(context.Background(), Task{Index: 1, Attempt: 0})
	if err == nil || DefaultClassify(err) != Transient {
		t.Fatalf("injected drop = %v (%v), want Transient error", err, DefaultClassify(err))
	}
	if w.builds.Load() != 0 {
		t.Fatal("injected drop reached the worker")
	}
}

// TestPoolBlacklistAndReinstate drives the health loop on a fake clock
// through a worker's death and recovery.
func TestPoolBlacklistAndReinstate(t *testing.T) {
	w := newTestWorker(t)
	clk := NewFakeClock()
	p := testPool(t, PoolOptions{
		HealthPeriod:   time.Minute,
		BlacklistAfter: 2,
		Clock:          clk,
	}, w.srv.URL)
	waitHealthy := func(want int) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if p.Healthy() == want {
				return
			}
			clk.Advance(time.Minute)
			time.Sleep(2 * time.Millisecond) // the probe itself is real I/O
		}
		t.Fatalf("healthy = %d, want %d", p.Healthy(), want)
	}
	if p.Healthy() != 1 {
		t.Fatalf("healthy = %d at start", p.Healthy())
	}
	w.healthy.Store(false)
	waitHealthy(0)
	if p.WorkersLost() != 1 {
		t.Fatalf("WorkersLost = %d after blacklist, want 1", p.WorkersLost())
	}
	w.healthy.Store(true)
	waitHealthy(1)
	if p.WorkersLost() != 1 {
		t.Fatalf("WorkersLost = %d after reinstatement, want 1 (losses are events, not state)", p.WorkersLost())
	}
}

func TestPoolRejectsBadAddresses(t *testing.T) {
	if _, err := NewWorkerPool(nil, PoolOptions{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewWorkerPool([]string{"a:1", "a:1"}, PoolOptions{}); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := NewWorkerPool([]string{" "}, PoolOptions{}); err == nil {
		t.Error("blank address accepted")
	}
	p, err := NewWorkerPool([]string{"127.0.0.1:9"}, PoolOptions{HealthPeriod: time.Hour, Clock: NewFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !strings.HasPrefix(p.workers[0].url, "http://") {
		t.Errorf("bare host:port not normalized: %s", p.workers[0].url)
	}
}
