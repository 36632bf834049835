// Package simtest holds test helpers for the campaign, server, cluster
// and crash suites: Runner, a fake sim.Run (deterministic results,
// per-job invocation counts, hooks to hold or fail runs), and WaitFor.
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
	mu    sync.Mutex
	calls map[string]int
	// Gate, when non-nil, blocks every run until the channel closes —
	// used to provably hold jobs in flight while callers pile up.
	Gate chan struct{}
	// Fail makes every run return an error (after passing Gate).
	Fail bool
}

// New returns an empty runner.
func New() *Runner { return &Runner{calls: make(map[string]int)} }

// maxSamples bounds the interval samples one Run produces: far above any
// test's needs, and low enough that a spec with a huge cycle count
// cannot exhaust memory through the fake.
const maxSamples = 1 << 16

// Run counts the invocation, honours Gate/Fail, and returns a
// deterministic fake result derived from the options. It fails when the
// options ask for more than maxSamples interval samples.
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
	if o.Interval > 0 && o.Cycles/o.Interval > maxSamples {
		return nil, fmt.Errorf("simtest: %d cycles at interval %d exceed %d samples", o.Cycles, o.Interval, maxSamples)
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
