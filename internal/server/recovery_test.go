package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// crashRunner fails every local simulation: after an in-process
// coordinator Crash, dispatches fall back to the local path, and a
// crashed daemon must not quietly complete jobs there.
func crashRunner(sim.Options) (*sim.Result, error) {
	return nil, errors.New("daemon crashed; no local simulation")
}

// TestRestartResumesCampaignByteIdentical is the in-process acceptance
// test for the durable queue: a daemon killed mid-campaign — some jobs
// completed, some leased to a worker that dies with it, some still
// pending — restarts with the same state directory, resumes the
// campaign on its own, re-simulates only the missing jobs exactly once,
// and ends with a store and aggregates byte-identical to a run that was
// never interrupted.
func TestRestartResumesCampaignByteIdentical(t *testing.T) {
	want, wantRecs := refAggregates(t, clusterSpec)
	stateDir := t.TempDir()
	storePath := filepath.Join(t.TempDir(), "results.jsonl")

	// --- Incarnation 1: crash with exactly 3 of 8 jobs completed. ---
	store1, err := campaign.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := cluster.OpenCoordinator(cluster.Config{
		LeaseTTL: 2 * time.Second, StateDir: stateDir, Persisted: store1.Synced,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Store: store1, Runner: crashRunner, Cluster: coord1})
	ts1 := httptest.NewServer(srv1)

	// The worker's runner completes three simulations, then blocks every
	// later one until the test ends — so the crash provably lands
	// mid-campaign with jobs leased and in flight.
	r1 := simtest.New()
	var started atomic.Int32
	blocked := make(chan struct{})
	limited := func(o sim.Options) (*sim.Result, error) {
		if started.Add(1) > 3 {
			<-blocked
		}
		return r1.Run(o)
	}
	transport := &severableTransport{base: http.DefaultTransport}
	w1 := &cluster.Worker{
		Base: ts1.URL, Name: "w1", Capacity: 2,
		Runner: limited, LeaseWait: 50 * time.Millisecond,
		Client: &http.Client{Transport: transport},
	}
	w1ctx, w1cancel := context.WithCancel(context.Background())
	w1exited := make(chan struct{})
	go func() {
		defer close(w1exited)
		_ = w1.Run(w1ctx)
	}()
	defer func() {
		close(blocked)
		w1cancel()
		<-w1exited
	}()
	waitFleet(t, coord1, 1)

	postSpec(t, ts1, clusterSpec)
	simtest.WaitFor(t, 30*time.Second, func() bool { return store1.Len() >= 3 },
		"store reached %d records, want 3 before the crash", func() any { return store1.Len() })

	// Crash: the worker's machine dies with the daemon, the coordinator
	// abandons its WAL mid-state, the listener vanishes.
	transport.severed.Store(true)
	w1cancel()
	coord1.Crash()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv1.Drain(drainCtx)
	cancelDrain()
	ts1.Close()
	store1.Close()
	if n := store1.Len(); n != 3 {
		t.Fatalf("crash landed with %d records in the store, want 3", n)
	}

	// --- Incarnation 2: same state dir and store, fresh everything. ---
	store2, err := campaign.OpenStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	coord2, err := cluster.OpenCoordinator(cluster.Config{
		LeaseTTL: 10 * time.Second, StateDir: stateDir, Persisted: store2.Synced,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	recovered := coord2.Recovered()
	if got := len(recovered.Jobs); got != 5 {
		t.Fatalf("recovered %d jobs, want the 5 unfinished ones", got)
	}
	if got := len(recovered.Orphans); got != 3 {
		t.Errorf("recovered %d acknowledged results, want 3", got)
	}

	srv2 := New(Config{Store: store2, Runner: localRunnerMustNotRun(t), Cluster: coord2})
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	r2 := simtest.New()
	startTestWorker(t, ts2.URL, "w2", r2, 4)
	waitFleet(t, coord2, 1)

	// The resumed campaign drains without any client involvement.
	simtest.WaitFor(t, 30*time.Second, func() bool { return store2.Len() >= len(wantRecs) },
		"resumed campaign stalled: %d of %d records", func() any { return store2.Len() }, len(wantRecs))

	// Exactly-once: incarnation 2 simulated precisely the 5 missing
	// jobs, none of them twice, and never re-ran a completed one.
	if got := r2.Total(); got != 5 {
		t.Errorf("restart re-simulated %d jobs, want exactly the 5 missing", got)
	}
	if r2.Max() > 1 {
		t.Errorf("restart simulated a job %d times", r2.Max())
	}
	for key, wantRec := range wantRecs {
		got, ok := store2.Get(key)
		if !ok {
			t.Fatalf("resumed store is missing record %s", key)
		}
		if !reflect.DeepEqual(got, wantRec) {
			t.Errorf("record %s differs from the uninterrupted run:\n%+v\nvs\n%+v", key, got, wantRec)
		}
	}

	// A client re-submitting the interrupted spec gets the aggregates of
	// an uninterrupted run, byte for byte, all from cache.
	sub := postSpec(t, ts2, clusterSpec)
	if state := waitState(t, srv2, sub.ID); state != StateDone {
		t.Fatalf("re-submitted campaign state %q", state)
	}
	for format, ref := range want {
		_, body := fetch(t, ts2, sub.ResultURL+"?format="+format)
		if string(body) != ref {
			t.Errorf("%s aggregate differs after restart resume:\n%s\nvs\n%s", format, body, ref)
		}
	}
	if got := r2.Total(); got != 5 {
		t.Errorf("re-submission after resume ran %d extra simulations", got-5)
	}
}

// swappableHandler serves whatever handler was last stored — the test
// double for a daemon that is down (503s) and later comes back on the
// same address.
type swappableHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swappableHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swappableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// daemonDown is the not-ready handler: everything 503s, like a port
// with nothing accepting yet behind a proxy.
var daemonDown = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, `{"error":"daemon not up"}`, http.StatusServiceUnavailable)
})

// TestWorkerStartedBeforeDaemonJoinsFleet: a worker launched while its
// daemon is still down must keep retrying registration with backoff and
// join the fleet on its own once the daemon arrives — then actually run
// jobs.
func TestWorkerStartedBeforeDaemonJoinsFleet(t *testing.T) {
	swap := &swappableHandler{}
	swap.set(daemonDown)
	ts := httptest.NewServer(swap)
	defer ts.Close()

	r := simtest.New()
	startTestWorker(t, ts.URL, "early", r, 1)
	time.Sleep(30 * time.Millisecond) // let registration fail at least once

	coord := openTestCoordinator(t, time.Second)
	s := New(Config{Store: tempStore(t), Runner: localRunnerMustNotRun(t), Cluster: coord})
	swap.set(s)
	waitFleet(t, coord, 1)

	sub := postSpec(t, ts, `{"workloads":["2W1"],"policies":["ICOUNT"],"seeds":[1],"cycles":1000}`)
	if state := waitState(t, s, sub.ID); state != StateDone {
		t.Fatalf("campaign state %q", state)
	}
	if r.Total() != 1 {
		t.Errorf("early worker ran %d jobs, want 1", r.Total())
	}
}

// TestWorkerRidesOutDaemonRestart: a worker mid-fleet when its daemon
// dies must back off through the outage, re-register with the restarted
// daemon (fresh epoch, so its old ID 404s), and serve the new
// incarnation's campaigns.
func TestWorkerRidesOutDaemonRestart(t *testing.T) {
	swap := &swappableHandler{}
	coord1 := openTestCoordinator(t, time.Second)
	s1 := New(Config{Store: tempStore(t), Runner: localRunnerMustNotRun(t), Cluster: coord1})
	swap.set(s1)
	ts := httptest.NewServer(swap)
	defer ts.Close()

	r := simtest.New()
	startTestWorker(t, ts.URL, "steady", r, 2)
	waitFleet(t, coord1, 1)

	// Daemon dies: the address answers 503 while it is gone.
	swap.set(daemonDown)
	coord1.Crash()
	_ = s1.Drain(context.Background())

	// It comes back as a new incarnation (new coordinator epoch). The
	// worker's heartbeats and leases fail through the outage; once the
	// new daemon answers, its stale ID 404s and it re-registers.
	coord2 := openTestCoordinator(t, time.Second)
	s2 := New(Config{Store: tempStore(t), Runner: localRunnerMustNotRun(t), Cluster: coord2})
	swap.set(s2)
	waitFleet(t, coord2, 1)

	sub := postSpec(t, ts, `{"workloads":["2W1"],"policies":["MFLUSH"],"seeds":[7],"cycles":1000}`)
	if state := waitState(t, s2, sub.ID); state != StateDone {
		t.Fatalf("campaign after daemon restart: state %q", state)
	}
	if r.Max() > 1 {
		t.Errorf("worker re-ran a job %d times across the restart", r.Max())
	}
}

// TestDrainDuringRecoveryLeaksNothing: draining a daemon while its
// recovery dispatcher is still waiting for a fleet must stop the
// dispatcher cleanly — no goroutine may outlive Drain, and the WAL must
// still hold the jobs for the next boot.
func TestDrainDuringRecoveryLeaksNothing(t *testing.T) {
	stateDir := t.TempDir()
	// Seed the WAL with a pending campaign via a crashed incarnation.
	c1, err := cluster.OpenCoordinator(cluster.Config{LeaseTTL: time.Minute, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Register("w", 1); err != nil {
		t.Fatal(err)
	}
	jobs, err := campaign.Spec{Workloads: []string{"2W1"}, Policies: []string{"ICOUNT", "MFLUSH"}, Seeds: []uint64{1}, Cycles: 1000}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		j := j
		go c1.Dispatch(context.Background(), j)
		simtest.WaitFor(t, 5*time.Second, func() bool { return c1.Pending() == i+1 },
			"job %d never queued", i)
	}
	c1.Crash()

	before := runtime.NumGoroutine()
	coord, err := cluster.OpenCoordinator(cluster.Config{
		// A lease TTL far longer than the test: only a working
		// cancellation path lets Drain return promptly.
		LeaseTTL: time.Hour, StateDir: stateDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(coord.Recovered().Jobs); got != len(jobs) {
		t.Fatalf("recovered %d jobs, want %d", got, len(jobs))
	}
	s := New(Config{Store: tempStore(t), Runner: crashRunner, Cluster: coord})
	time.Sleep(10 * time.Millisecond) // let the recovery dispatcher start waiting for a fleet
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain during recovery: %v", err)
	}
	coord.Close()

	simtest.WaitFor(t, 10*time.Second, func() bool {
		if runtime.NumGoroutine() <= before+3 {
			return true
		}
		runtime.GC()
		return false
	}, "goroutines leaked across drain-during-recovery: %d before, %d after:\n%s",
		before, func() any { return runtime.NumGoroutine() }, func() any {
			var buf strings.Builder
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			return buf.String()
		})

	// The drained daemon never ran the jobs; they must still be in the
	// WAL for the next incarnation.
	c3, err := cluster.OpenCoordinator(cluster.Config{LeaseTTL: time.Minute, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := len(c3.Recovered().Jobs); got != len(jobs) {
		t.Errorf("WAL holds %d jobs after an idle drain, want %d", got, len(jobs))
	}
}

// TestRetryAfterHeaderIsPositiveSeconds: a 429 must carry a Retry-After
// computed from queue state — a positive integer number of seconds, not
// a constant.
func TestRetryAfterHeaderIsPositiveSeconds(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 2, MaxQueuedJobs: 2})
	// Fill the queue with two gated jobs.
	submit(t, s, `{"workloads":["2W1"],"policies":["ICOUNT","MFLUSH"],"seeds":[1],"cycles":1000}`)

	req := httptest.NewRequest("POST", "/v1/campaigns",
		strings.NewReader(`{"workloads":["2W3"],"policies":["ICOUNT"],"seeds":[2],"cycles":1000}`))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		dump, _ := httputil.DumpResponse(rec.Result(), true)
		t.Fatalf("full queue returned %d, want 429:\n%s", rec.Code, dump)
	}
	header := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(header)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer number of seconds", header)
	}

	close(r.Gate)
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Drain(drainCtx)
}

// TestRetryAfterEstimateFromDrainRate pins the arithmetic: the estimate
// is need-over-rate, ceilinged, clamped to [1, 60].
func TestRetryAfterEstimateFromDrainRate(t *testing.T) {
	now := time.Now()
	var s Server
	// 64 completions, one every 500ms: a drain rate of 2 jobs/second.
	for i := 0; i < len(s.drainTimes); i++ {
		s.drainTimes[i] = now.Add(-time.Duration(len(s.drainTimes)-i) * 500 * time.Millisecond)
	}
	s.drainIdx = 0
	s.drainCount = len(s.drainTimes)
	for _, tc := range []struct{ need, want int }{
		{1, 1},     // sub-second drain rounds up to the floor
		{10, 5},    // 10 jobs at 2/s
		{60, 30},   // 60 jobs at 2/s
		{1000, 60}, // ceiling: never park a client for more than a minute
	} {
		if got := s.retryAfterLocked(tc.need, now); got != tc.want {
			t.Errorf("retryAfter(need=%d) = %d, want %d", tc.need, got, tc.want)
		}
	}
	var fresh Server
	if got := fresh.retryAfterLocked(5, now); got != 1 {
		t.Errorf("retryAfter with no history = %d, want the 1s floor", got)
	}
}
