package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// isTerminalEvent reports whether an SSE event name ends the stream:
// anything that is not a snapshot, a progress report or a live sample
// is one of the terminal states (done, failed, canceled).
func isTerminalEvent(name string) bool {
	return name != "status" && name != "progress" && name != "sample"
}

// Campaign lifecycle states as reported by the status API. A campaign
// is born running (admission control happens before it exists) and ends
// in exactly one of the three terminal states.
const (
	// StateRunning marks a campaign whose jobs are still being scheduled
	// or simulated.
	StateRunning = "running"
	// StateDone marks a campaign whose every job completed; its aggregate
	// is available from the result endpoint.
	StateDone = "done"
	// StateFailed marks a campaign stopped by a simulation error: the
	// first failure cancels the campaign's remaining jobs (results
	// already simulated stay in the cache).
	StateFailed = "failed"
	// StateCanceled marks a campaign stopped by DELETE or daemon drain;
	// jobs already simulated are in the result cache, the rest never ran.
	StateCanceled = "canceled"
)

// Status is the wire form of one campaign's state, served by the list
// and status endpoints and embedded in terminal SSE events.
type Status struct {
	// ID names the campaign ("c000001", ...); IDs are per-process.
	ID string `json:"id"`
	// State is one of StateRunning, StateDone, StateFailed, StateCanceled.
	State string `json:"state"`
	// Jobs is the campaign's total job count after spec expansion.
	Jobs int `json:"jobs"`
	// Completed counts jobs finished successfully, including cache hits.
	Completed int `json:"completed"`
	// Cached counts the subset of Completed served by the result cache
	// (store hits and single-flight joins) without a fresh simulation.
	Cached int `json:"cached"`
	// Failed counts jobs whose simulation returned an error.
	Failed int `json:"failed"`
	// Error is the first failure message, empty unless State is "failed".
	Error string `json:"error,omitempty"`
	// Created is when the campaign was admitted, RFC 3339 with ns.
	Created time.Time `json:"created"`
}

// run is one admitted campaign: its immutable inputs, its mutable
// progress counters, and its SSE subscribers.
type run struct {
	id      string
	jobs    []campaign.Job
	created time.Time
	cancel  context.CancelCauseFunc
	// charged holds the keys of jobs that occupy admission-queue slots
	// (uncached at submit), which are also the keys the server indexes
	// the campaign under; slots are released as these jobs finish.
	// Only the serialised progress callback and the post-settle cleanup
	// touch it.
	charged map[string]bool
	// jobNames maps sampled jobs' keys to display names for the sample
	// SSE events; nil when the campaign requested no sampling.
	jobNames map[string]string
	// sampleBudget is the expected number of live samples, used to size
	// SSE subscriber buffers so samples don't crowd out progress events.
	sampleBudget int
	// finished closes when the campaign reaches a terminal state; SSE
	// handlers select on it so terminal events are never missed.
	finished chan struct{}
	// ipc, for sampled campaigns, is this run's pre-resolved
	// mflush_campaign_interval_ipc series; onSample mirrors the latest
	// interval IPC into it (nil — a no-op — when nothing is sampled).
	// Atomic because samples can arrive before runCampaign resolves it.
	ipc atomic.Pointer[metrics.Gauge]

	mu        sync.Mutex
	state     string
	completed int
	cached    int
	failed    int
	errMsg    string
	cells     []campaign.Cell
	subs      map[chan sseEvent]struct{}
}

func newRun(id string, jobs []campaign.Job, now time.Time) *run {
	c := &run{
		id: id, jobs: jobs, created: now,
		finished: make(chan struct{}),
		state:    StateRunning,
		subs:     make(map[chan sseEvent]struct{}),
	}
	// Each sampled job fires Cycles/Interval times, at most 2^16 (the
	// spec's sample bound); budget the SSE buffers for the whole series,
	// within reason.
	const maxSampleBudget = 4096
	for _, j := range jobs {
		if j.Interval > 0 {
			if c.jobNames == nil {
				c.jobNames = make(map[string]string)
			}
			c.jobNames[j.Key()] = j.String()
			c.sampleBudget = min(c.sampleBudget+int(j.Cycles/j.Interval), maxSampleBudget)
		}
	}
	return c
}

// sampleEvent is the data payload of one SSE "sample" event: a live
// interval sample from a job simulating right now.
type sampleEvent struct {
	// Job names the sampled job (Job.String form).
	Job string `json:"job"`
	// Key is the job's content hash, matching the record it will land in.
	Key string `json:"key"`
	// Sample is the interval digest (sim.SamplePoint schema).
	Sample sim.SamplePoint `json:"sample"`
}

// onSample broadcasts one live sample to the campaign's SSE
// subscribers. It runs on the simulating goroutine; the broadcast is
// non-blocking, so a slow subscriber drops samples rather than stalling
// the simulation.
func (c *run) onSample(key string, p sim.SamplePoint) {
	c.ipc.Load().Set(p.IntervalIPC)
	c.mu.Lock()
	c.broadcastLocked(sseEvent{name: "sample", data: sampleEvent{
		Job: c.jobNames[key], Key: key, Sample: p,
	}})
	c.mu.Unlock()
}

// status snapshots the campaign for the API.
func (c *run) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

func (c *run) statusLocked() Status {
	return Status{
		ID: c.id, State: c.state, Jobs: len(c.jobs),
		Completed: c.completed, Cached: c.cached, Failed: c.failed,
		Error: c.errMsg, Created: c.created,
	}
}

// progressEvent is the data payload of one SSE "progress" event.
type progressEvent struct {
	// Job names the job that just finished (or failed).
	Job string `json:"job"`
	// Cached reports that the job was served by the result cache.
	Cached bool `json:"cached"`
	// Error is the job's failure, if any.
	Error string `json:"error,omitempty"`
	// Completed/Cached/Failed totals after this job, out of Jobs.
	Totals Status `json:"totals"`
}

// onProgress folds one scheduler progress report into the counters and
// broadcasts it to SSE subscribers. The scheduler calls it serially.
func (c *run) onProgress(p campaign.Progress) {
	c.mu.Lock()
	if p.Err != nil {
		c.failed++
	} else {
		c.completed++
		if p.Cached {
			c.cached++
		}
	}
	ev := progressEvent{Job: p.Job.String(), Cached: p.Cached, Totals: c.statusLocked()}
	if p.Err != nil {
		ev.Error = p.Err.Error()
	}
	c.broadcastLocked(sseEvent{name: "progress", data: ev})
	c.mu.Unlock()
}

// finish moves the campaign to its terminal state, stores the aggregate
// when it completed, broadcasts the terminal event and releases waiters.
func (c *run) finish(records []campaign.Record, err error) {
	c.mu.Lock()
	switch {
	case err == nil:
		c.state = StateDone
		c.cells = campaign.Aggregate(records)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		c.state = StateCanceled
	default:
		c.state = StateFailed
		c.errMsg = err.Error()
	}
	c.broadcastLocked(sseEvent{name: c.state, data: c.statusLocked()})
	c.mu.Unlock()
	close(c.finished)
}

// subscribe registers an SSE listener. The buffer covers every event the
// campaign can still emit — progress per job plus the expected live
// samples (bounded) — so broadcasts never block the scheduler; the
// terminal event is additionally guaranteed through the finished channel.
func (c *run) subscribe() chan sseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan sseEvent, len(c.jobs)+c.sampleBudget+8)
	c.subs[ch] = struct{}{}
	return ch
}

func (c *run) unsubscribe(ch chan sseEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.subs, ch)
}

// broadcastLocked fans an event out without blocking: a subscriber that
// somehow stopped draining loses intermediate progress events but still
// observes the terminal state via the finished channel.
func (c *run) broadcastLocked(ev sseEvent) {
	for ch := range c.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}
