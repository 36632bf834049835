package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/sim"
)

// Progress reports one finished (or skipped) job to the scheduler's
// callback. Done counts both, so Done == Total when the campaign ends.
type Progress struct {
	// Done counts jobs finished so far out of Total.
	Done, Total int
	// Job is the job this report is about.
	Job Job
	// Cached marks a job skipped because its key was already in the
	// store (a resumed campaign).
	Cached bool
	// Err is the job's failure, if any; the campaign keeps running the
	// remaining jobs and reports the first error at the end.
	Err error
}

// Scheduler executes campaign jobs on a bounded worker pool. The zero
// value runs sim.Run on GOMAXPROCS workers with no progress reporting.
type Scheduler struct {
	// Workers bounds parallelism; <= 0 means GOMAXPROCS. Results are
	// ordered by job index regardless of completion order, and the
	// simulator is deterministic per job, so the worker count never
	// changes campaign output.
	Workers int
	// Runner executes one simulation; nil means sim.Run. A caller that
	// needs more of a result than its record's Summary wraps sim.Run
	// here (Figure 4 merges each result's hit-latency histogram);
	// tests inject counting or failing runners.
	Runner func(sim.Options) (*sim.Result, error)
	// GangWidth is ignored: Run executes every job on its own through
	// Runner. It remains only because the end-to-end benchmark
	// (bench/mflushperf) still sets it, and goes when that stops.
	GangWidth int
	// GangRunner is ignored, like GangWidth.
	GangRunner func([]sim.Options) ([]*sim.Result, error)
	// OnProgress, when set, is called serially after every job.
	OnProgress func(Progress)
}

// Run executes jobs, returning one record per job in job order. Jobs
// whose key is already in store are skipped and their stored record
// reused; newly completed jobs are appended to store as they finish, so
// a killed campaign loses at most the jobs in flight. A nil store runs
// everything and persists nothing. Cancelling ctx stops scheduling new
// jobs (in-flight simulations finish) and Run returns ctx.Err() unless
// a simulation failed first.
func (s *Scheduler) Run(ctx context.Context, jobs []Job, store *Store) ([]Record, error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	records := make([]Record, len(jobs))
	report := newReporter(len(jobs), func(p Progress) {
		if cb := s.OnProgress; cb != nil {
			cb(p)
		}
	})

	// Resolve cached jobs up front so workers only see real work. Job
	// keys hash tweak content, not the display name, so a cached record
	// may carry a stale label from before a spec rename; re-label it
	// from the current job so aggregation cells stay whole.
	var pending []int
	for i, j := range jobs {
		if store != nil {
			if rec, ok := store.Get(j.Key()); ok {
				rec.Tweak = j.Tweak.Label()
				records[i] = rec
				report(Progress{Job: j, Cached: true})
				continue
			}
		}
		pending = append(pending, i)
	}

	errs := runPool(ctx, workers, len(jobs), pending, func(i int) error {
		j := jobs[i]
		rec, err := RunJob(j, s.Runner)
		if err == nil && store != nil {
			err = store.Append(rec)
		}
		if err != nil {
			report(Progress{Job: j, Err: err})
			return err
		}
		records[i] = rec
		report(Progress{Job: j})
		return nil
	})
	return records, firstError(jobs, errs)
}

// RunJob executes one job through run (nil: sim.Run) and returns its
// record. This is the one path that turns a job into a record — the
// scheduler, cluster workers and the daemon's local runs all go
// through it. A panic in the simulator fails the job with an error
// carrying the stack, so a hostile spec cannot take down the process
// that runs it.
func RunJob(j Job, run func(sim.Options) (*sim.Result, error)) (_ Record, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: simulator panic: %v\n%s", p, debug.Stack())
		}
	}()
	o, err := j.SimOptions()
	if err != nil {
		return Record{}, err
	}
	if run == nil {
		run = sim.Run
	}
	res, err := run(o)
	if err != nil {
		return Record{}, err
	}
	return NewRecord(j, res), nil
}

// NewRecord builds the store record for a completed job. RunJob is its
// one caller, so a record is byte-for-byte identical no matter where the
// job ran.
func NewRecord(j Job, res *sim.Result) Record {
	return Record{
		Key: j.Key(), Workload: res.Workload, Policy: res.Policy,
		Tweak: j.Tweak.Label(), Seed: j.Seed, Summary: res.Summary(),
	}
}

// RunCached executes jobs through cache, returning one record per job in
// job order exactly as Run does, but with single-flight semantics: a job
// whose key is already cached (or in flight in another concurrent
// RunCached call on the same cache) is served without a fresh
// simulation and reported with Progress.Cached set. onProgress, when
// non-nil, is called serially after every job — per call, unlike the
// scheduler-wide OnProgress, because a daemon runs many campaigns at
// once on one scheduler and each needs its own progress stream. Cancelling
// ctx stops scheduling new jobs; in-flight simulations finish (and are
// persisted by the cache) and RunCached returns ctx.Err() unless a
// simulation failed first.
func (s *Scheduler) RunCached(ctx context.Context, jobs []Job, cache *Cache, onProgress func(Progress)) ([]Record, error) {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	records := make([]Record, len(jobs))
	report := newReporter(len(jobs), func(p Progress) {
		if onProgress != nil {
			onProgress(p)
		}
	})

	// Serve completed cache entries up front, before the pool: a
	// fully-cached campaign completes instantly even while every
	// simulation slot is busy. In-flight joins still go through the pool
	// (they must wait anyway).
	var pending []int
	for i, j := range jobs {
		if rec, ok := cache.Lookup(j); ok {
			records[i] = rec
			report(Progress{Job: j, Cached: true})
			continue
		}
		pending = append(pending, i)
	}
	errs := runPool(ctx, workers, len(jobs), pending, func(i int) error {
		j := jobs[i]
		rec, hit, err := cache.Do(ctx, j)
		if err != nil {
			// A cancelled wait on another caller's in-flight run is not a
			// job failure: leave it unreported, like a job cancellation
			// skipped before it started, so progress consumers never count
			// a clean cancel as a simulation error.
			if !isCtxErr(err) {
				report(Progress{Job: j, Err: err})
			}
			return err
		}
		records[i] = rec
		report(Progress{Job: j, Cached: hit})
		return nil
	})
	return records, firstError(jobs, errs)
}

// newReporter serialises progress callbacks and stamps each report with
// its position: cb runs under one mutex, so campaign consumers never
// need their own ordering.
func newReporter(total int, cb func(Progress)) func(Progress) {
	var mu sync.Mutex
	done := 0
	return func(p Progress) {
		mu.Lock()
		done++
		p.Done, p.Total = done, total
		cb(p)
		mu.Unlock()
	}
}

// isCtxErr distinguishes cancellation from real failure.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// firstError folds the pool's per-index errors: the first real
// simulation failure in job order wins; bare cancellations (no sim
// error) collapse into the context's own error.
func firstError(jobs []Job, errs []error) error {
	var ctxErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if isCtxErr(err) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return fmt.Errorf("campaign: %s: %w", jobs[i], err)
	}
	return ctxErr
}

// runPool is the shared bounded worker pool: it executes fn(i) for each
// listed index on workers goroutines and returns n per-index errors.
// Once ctx is cancelled, indices not yet started record ctx.Err()
// without running fn; work already in flight finishes.
func runPool(ctx context.Context, workers, n int, indices []int, fn func(int) error) []error {
	errs := make([]error, n)
	// More goroutines than work items would just park on the closed
	// channel; the clamp matters in daemon cluster mode, where the pool
	// bound is sized for the whole admission queue rather than the
	// local core count.
	if workers > len(indices) {
		workers = len(indices)
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	for _, i := range indices {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return errs
}
