package cluster

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// Router decides where a cache miss simulates: on the worker fleet when
// live workers are registered, in-process otherwise. It is the job-level
// runner the daemon plugs into campaign.NewCache (a single-process
// daemon is a router with no coordinator), so routing happens per job,
// behind the admission queue and the cache's single-flight — a campaign
// transparently mixes remote and local execution as workers come and
// go, and a fleet that dies mid-job strands nothing: the dispatch fails
// with ErrNoWorkers and the job falls back to the local simulator.
type Router struct {
	coord *Coordinator
	local func(sim.Options) (*sim.Result, error)
	slots chan struct{} // bounds local simulations only

	// OnSample, when non-nil, receives live interval sample points from
	// jobs the router simulates locally (keyed by Job.Key) — the
	// daemon's sample SSE feed. Set it before the first Run. Jobs
	// dispatched to remote workers return their samples only in the
	// completed record; the worker protocol does not stream them.
	OnSample func(key string, p sim.SamplePoint)
	// OnLocalFailure, when non-nil, is called with the job and its error
	// when a local simulation fails, before the job frees its slot. The
	// daemon cancels every campaign that includes the job there, so no
	// job of those campaigns queued for the slot can start after the
	// failure. Set it before the first Run.
	OnLocalFailure func(j campaign.Job, err error)
}

// NewRouter builds a router over coord (nil: always local) running
// local fallback simulations with runner (nil: sim.Run) on at most
// workers goroutines (<= 0: GOMAXPROCS). The local bound exists because
// the daemon's scheduler pool is sized for the admission queue, not the
// core count — remote dispatches are cheap waits, local simulations are
// not.
func NewRouter(coord *Coordinator, workers int, runner func(sim.Options) (*sim.Result, error)) *Router {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if runner == nil {
		runner = sim.Run
	}
	return &Router{coord: coord, local: runner, slots: make(chan struct{}, workers)}
}

// Run executes one job and returns its record: via the fleet when live
// workers exist, locally otherwise. Determinism makes the two paths
// byte-interchangeable. Cancelling ctx aborts a job still waiting for a
// slot or unleased in the fleet queue; a job already simulating — here
// or on a worker — finishes.
func (r *Router) Run(ctx context.Context, j campaign.Job) (campaign.Record, error) {
	if r.coord != nil {
		rec, err := r.coord.Dispatch(ctx, j)
		switch {
		case err == nil:
			return rec, nil
		case errors.Is(err, ErrNoWorkers), errors.Is(err, ErrClosed):
			// No fleet (left): simulate here.
		default:
			return campaign.Record{}, err
		}
	}
	select {
	case r.slots <- struct{}{}:
	case <-ctx.Done():
		return campaign.Record{}, ctx.Err()
	}
	defer func() { <-r.slots }()
	// A free slot and a cancelled context can be ready at once, and select
	// picks either: the cancellation wins.
	if err := ctx.Err(); err != nil {
		return campaign.Record{}, err
	}
	run := func(o sim.Options) (*sim.Result, error) {
		j.StreamSamples(&o, r.OnSample)
		return r.local(o)
	}
	rec, err := campaign.RunJob(j, run)
	if err != nil && r.OnLocalFailure != nil {
		r.OnLocalFailure(j, err)
	}
	return rec, err
}
