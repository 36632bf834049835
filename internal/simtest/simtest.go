// Package simtest is the simulator's test harness toolkit, shared by
// the sim, campaign and server test suites. It has two halves:
//
//   - Runner, a fake sim.Run: deterministic results without simulating,
//     per-job invocation counts, and hooks to hold runs in flight or
//     fail them.
//   - DiffGang and Fingerprint (diff.go), the differential harness that
//     proves a lockstep gang (sim.GangSession) is observationally
//     bit-identical to N width-1, unshared sessions — what sim.Run
//     executes — localising the first divergence. Both sides step
//     through Session.Step, so the golden fingerprints in internal/sim
//     remain the absolute reference for what either side computes.
//
// Production code must not import it.
package simtest

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Runner is an injectable sim.Run replacement. Configure Gate/Fail
// before handing Run to a scheduler; Total/Max observe concurrently.
type Runner struct {
	mu      sync.Mutex
	calls   map[string]int
	batches []int
	// Gate, when non-nil, blocks every run until the channel closes —
	// used to provably hold jobs in flight while callers pile up.
	Gate chan struct{}
	// Fail makes every run return an error (after passing Gate).
	Fail bool
}

// New returns an empty runner.
func New() *Runner { return &Runner{calls: make(map[string]int)} }

// Run counts the invocation, honours Gate/Fail, and returns a
// deterministic fake result derived from the options.
func (r *Runner) Run(o sim.Options) (*sim.Result, error) {
	// Name the result the way sim.Run does: the Name override wins, so
	// trace-replay jobs (whose Workload is zero) stay distinguishable.
	name := o.Name
	if name == "" {
		name = o.Workload.Name
	}
	id := fmt.Sprintf("%s/%s/%d/%d", name, o.Policy, o.Seed, o.Cycles)
	r.mu.Lock()
	r.calls[id]++
	gate := r.Gate
	r.mu.Unlock()
	if gate != nil {
		<-gate
	}
	if r.Fail {
		return nil, errors.New("synthetic simulator failure")
	}
	res := &sim.Result{
		Workload:   name,
		Policy:     o.Policy.String(),
		Cycles:     o.Cycles,
		IPC:        1.0 + float64(o.Seed)/10,
		HitLatency: stats.NewHistogram(8),
	}
	// Honour interval sampling the way sim.Run does: one deterministic
	// point per Interval measured cycles, teed live through OnSample and
	// retained in the result.
	if o.Interval > 0 {
		for c := o.Interval; c <= o.Cycles; c += o.Interval {
			p := sim.SamplePoint{
				Cycle:          o.Warmup + c,
				MeasuredCycles: c,
				IPC:            res.IPC,
				IntervalIPC:    res.IPC,
				Committed:      []uint64{c},
			}
			res.Samples = append(res.Samples, p)
			if o.OnSample != nil {
				o.OnSample(p)
			}
		}
	}
	return res, nil
}

// RunGang is the Runner's sim.RunGang analogue, for injection where a
// scheduler or worker takes a GangRunner: each member counts as one Run
// invocation (Gate/Fail included) and the batch size is recorded for
// Batches.
func (r *Runner) RunGang(opts []sim.Options) ([]*sim.Result, error) {
	if len(opts) == 0 {
		return nil, errors.New("simtest: empty gang")
	}
	r.mu.Lock()
	r.batches = append(r.batches, len(opts))
	r.mu.Unlock()
	results := make([]*sim.Result, len(opts))
	for i, o := range opts {
		res, err := r.Run(o)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// Batches returns the size of every RunGang invocation so far, in call
// order.
func (r *Runner) Batches() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.batches...)
}

// Total returns the number of simulator invocations so far.
func (r *Runner) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.calls {
		n += c
	}
	return n
}

// Max returns the highest invocation count of any single job — 1 means
// no job ever ran twice.
func (r *Runner) Max() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := 0
	for _, c := range r.calls {
		if c > m {
			m = c
		}
	}
	return m
}
