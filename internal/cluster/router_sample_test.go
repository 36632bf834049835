package cluster

import (
	"context"
	"errors"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/workload"
)

// TestRouterLocalOnSample: a sampled job simulated by the router's local
// fallback streams its interval points through OnSample, keyed by the
// job's content hash, and the record still carries the full series.
func TestRouterLocalOnSample(t *testing.T) {
	w, _ := workload.ByName("2W1")
	j := campaign.Job{Workload: w, Policy: sim.SpecICOUNT, Seed: 1, Cycles: 1000, Interval: 250}

	r := NewRouter(nil, 1, simtest.New().Run)
	var keys []string
	var points []sim.SamplePoint
	r.OnSample = func(key string, p sim.SamplePoint) {
		keys = append(keys, key)
		points = append(points, p)
	}
	rec, err := r.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("streamed %d live samples, want 4", len(points))
	}
	for i, k := range keys {
		if k != j.Key() {
			t.Fatalf("sample %d keyed %s, want %s", i, k, j.Key())
		}
	}
	if got := len(rec.Summary.IntervalSamples); got != 4 {
		t.Fatalf("record carries %d samples, want 4", got)
	}

	// An interval-less job must not touch the hook.
	points = points[:0]
	j.Interval = 0
	if _, err := r.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if len(points) != 0 {
		t.Fatalf("unsampled job streamed %d samples", len(points))
	}
}

// TestRouterCancelledJobNeverSimulates: a job whose context is cancelled
// before it takes a local slot fails with the context's error and never
// reaches the simulator, even when a slot is free at the same moment.
func TestRouterCancelledJobNeverSimulates(t *testing.T) {
	w, _ := workload.ByName("2W1")
	runner := simtest.New()
	r := NewRouter(nil, 1, runner.Run)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := range 50 {
		j := campaign.Job{Workload: w, Policy: sim.SpecICOUNT, Seed: uint64(i), Cycles: 1000}
		if _, err := r.Run(ctx, j); !errors.Is(err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, err)
		}
	}
	if n := runner.Total(); n != 0 {
		t.Fatalf("%d cancelled jobs were simulated", n)
	}
}

// TestRouterLocalFailureHookHoldsSlot: OnLocalFailure runs with the
// failed job and its error while the job still holds its slot, and only
// for failures.
func TestRouterLocalFailureHookHoldsSlot(t *testing.T) {
	w, _ := workload.ByName("2W1")
	runner := simtest.New()
	failure := errors.New("synthetic failure")
	r := NewRouter(nil, 1, func(o sim.Options) (*sim.Result, error) {
		if o.Seed == 2 {
			return nil, failure
		}
		return runner.Run(o)
	})
	var calls []uint64
	r.OnLocalFailure = func(j campaign.Job, err error) {
		if len(r.slots) != 1 {
			t.Error("OnLocalFailure ran after the slot was freed")
		}
		if !errors.Is(err, failure) {
			t.Errorf("OnLocalFailure err = %v, want the simulation's failure", err)
		}
		calls = append(calls, j.Seed)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		j := campaign.Job{Workload: w, Policy: sim.SpecICOUNT, Seed: seed, Cycles: 1000}
		if _, err := r.Run(context.Background(), j); (err != nil) != (seed == 2) {
			t.Fatalf("seed %d: err = %v", seed, err)
		}
	}
	if len(calls) != 1 || calls[0] != 2 {
		t.Fatalf("OnLocalFailure calls = %v, want one for the failed job", calls)
	}
}
