package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// testJob is a small 2W1 job of the given seed and policy.
func testJob(t *testing.T, seed uint64, policy sim.PolicySpec) campaign.Job {
	t.Helper()
	w, ok := workload.ByName("2W1")
	if !ok {
		t.Fatal("no workload 2W1")
	}
	return campaign.Job{Workload: w, Policy: policy, Seed: seed, Cycles: 1000}
}

// indexRun registers a running campaign of jobs in s's key index, as
// admission does, with cancel as its cancellation.
func indexRun(s *Server, cancel context.CancelCauseFunc, jobs ...campaign.Job) *run {
	c := newRun("c-test", jobs, time.Now())
	c.cancel = cancel
	s.mu.Lock()
	for _, j := range jobs {
		s.byKey[j.Key()] = append(s.byKey[j.Key()], c)
	}
	s.mu.Unlock()
	return c
}

// TestRouterFallsBackWithoutFleet: runJob runs jobs locally when no
// coordinator is attached and when the fleet is empty.
func TestRouterFallsBackWithoutFleet(t *testing.T) {
	j := testJob(t, 1, sim.SpecICOUNT)
	for name, coord := range map[string]*cluster.Coordinator{
		"nil-coordinator": nil,
		"empty-fleet":     openTestCoordinator(t, time.Minute),
	} {
		r := simtest.New()
		s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 2, Cluster: coord})
		rec, err := s.runJob(context.Background(), j)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Key != j.Key() || r.Total() != 1 {
			t.Fatalf("%s: rec=%+v local runs=%d", name, rec, r.Total())
		}
	}
}

// TestRouterLocalBoundHonoursContext: a job waiting for a local slot
// aborts when its campaign is cancelled.
func TestRouterLocalBoundHonoursContext(t *testing.T) {
	r := simtest.New()
	r.Gate = make(chan struct{})
	defer close(r.Gate)
	s := New(Config{Store: tempStore(t), Runner: r.Run, Workers: 1})
	go s.runJob(context.Background(), testJob(t, 1, sim.SpecICOUNT)) // occupies the only slot
	simtest.WaitFor(t, 10*time.Second, func() bool { return r.Total() == 1 }, "the first job never took the slot")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.runJob(ctx, testJob(t, 1, sim.SpecMFLUSH)); !errors.Is(err, context.Canceled) {
		t.Fatalf("slot wait under cancelled ctx = %v", err)
	}
}

// TestRouterLocalOnSample: a sampled job simulated locally streams its
// interval points to the campaigns indexed under the job's key, as
// sample events carrying that key, and the record still carries the
// full series.
func TestRouterLocalOnSample(t *testing.T) {
	j := testJob(t, 1, sim.SpecICOUNT)
	j.Interval = 250
	unsampled := j
	unsampled.Interval = 0

	s := New(Config{Store: tempStore(t), Runner: simtest.New().Run, Workers: 1})
	c := indexRun(s, func(error) {}, j, unsampled)
	events := c.subscribe()
	drain := func() []sampleEvent {
		var got []sampleEvent
		for {
			select {
			case ev := <-events:
				if ev.name != "sample" {
					t.Fatalf("unexpected %q event", ev.name)
				}
				got = append(got, ev.data.(sampleEvent))
			default:
				return got
			}
		}
	}
	rec, err := s.runJob(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	samples := drain()
	if len(samples) != 4 {
		t.Fatalf("streamed %d live samples, want 4", len(samples))
	}
	for i, ev := range samples {
		if ev.Key != j.Key() {
			t.Fatalf("sample %d keyed %s, want %s", i, ev.Key, j.Key())
		}
	}
	if got := len(rec.Summary.IntervalSamples); got != 4 {
		t.Fatalf("record carries %d samples, want 4", got)
	}

	// An interval-less job streams nothing.
	if _, err := s.runJob(context.Background(), unsampled); err != nil {
		t.Fatal(err)
	}
	if n := len(drain()); n != 0 {
		t.Fatalf("unsampled job streamed %d samples", n)
	}
}

// TestRouterCancelledJobNeverSimulates: a job whose context is cancelled
// before it takes a local slot fails with the context's error and never
// reaches the simulator, even when a slot is free at the same moment.
func TestRouterCancelledJobNeverSimulates(t *testing.T) {
	runner := simtest.New()
	s := New(Config{Store: tempStore(t), Runner: runner.Run, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range 50 {
		if _, err := s.runJob(ctx, testJob(t, uint64(i), sim.SpecICOUNT)); !errors.Is(err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, err)
		}
	}
	if n := runner.Total(); n != 0 {
		t.Fatalf("%d cancelled jobs were simulated", n)
	}
}

// TestRouterLocalFailureHookHoldsSlot: a local failure cancels the
// campaigns indexed under the failed job, with the job's key and error
// as the cause, while the job still holds its slot, and only for
// failures.
func TestRouterLocalFailureHookHoldsSlot(t *testing.T) {
	runner := simtest.New()
	failure := errors.New("synthetic failure")
	s := New(Config{Store: tempStore(t), Workers: 1, Runner: func(o sim.Options) (*sim.Result, error) {
		if o.Seed == 2 {
			return nil, failure
		}
		return runner.Run(o)
	}})
	var calls []uint64
	for seed := uint64(1); seed <= 3; seed++ {
		j := testJob(t, seed, sim.SpecICOUNT)
		indexRun(s, func(cause error) {
			if len(s.slots) != 1 {
				t.Error("the campaign was abandoned after the slot was freed")
			}
			var jf *campaign.JobFailure
			if !errors.As(cause, &jf) || jf.Key != j.Key() || !errors.Is(jf.Err, failure) {
				t.Errorf("abandon cause = %v, want the simulation's failure of %s", cause, j.Key())
			}
			calls = append(calls, j.Seed)
		}, j)
		if _, err := s.runJob(context.Background(), j); (err != nil) != (seed == 2) {
			t.Fatalf("seed %d: err = %v", seed, err)
		}
	}
	if len(calls) != 1 || calls[0] != 2 {
		t.Fatalf("abandoned campaigns of seeds %v, want one for the failed job", calls)
	}
}
