// Package cluster distributes campaign jobs across a fleet of worker
// processes. The daemon side is a Coordinator — a lease-based job queue
// whose jobs and results are write-ahead-logged under a state directory
// (leases live in memory only): workers register, lease batches of
// content-hash-keyed jobs, simulate them, and post the results back; a
// worker that stops heartbeating for a lease TTL is presumed dead and
// its leased jobs are re-issued, so a killed worker never loses work,
// and a restarted daemon replays the log, so a killed daemon does not
// either. The worker side is
// Worker, a pull loop over the daemon's /v1/workers HTTP endpoints
// (cmd/mflushworker is its binary).
//
// The layer sits *under* campaign.Cache, not beside it: the daemon's job
// executor (internal/server) dispatches each cache miss to the fleet,
// or runs it locally when no workers are live, and the cache remains
// the single writer to the JSONL store. Determinism makes the whole
// arrangement exactly-once in effect: the cache single-flights each key,
// the coordinator re-issues only leases whose worker is gone, and a
// duplicate result for an already-completed key is discarded — it would
// be byte-identical anyway. internal/server's cluster integration tests
// enforce this: a campaign sharded across three workers aggregates
// byte-identically to a single-process run, even when a worker is
// killed mid-campaign.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultpoint"
)

// Coordinator failure modes callers dispatch on.
var (
	// ErrClosed reports a coordinator shut down by Close; nothing can be
	// dispatched, leased or completed any more.
	ErrClosed = errors.New("cluster: coordinator closed")
	// ErrNoWorkers reports that no live worker can run the job — either
	// none was registered at dispatch, or every worker died while it was
	// queued. The daemon's job executor falls back to a local
	// simulation on it.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrUnknownWorker reports a worker ID the coordinator does not
	// know — never issued, deregistered, or dropped after missing
	// heartbeats for a lease TTL. The worker should re-register.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
)

// DefaultLeaseTTL is how long a worker may go unheard-from before it is
// presumed dead and its leased jobs are re-issued, when Config does not
// say otherwise.
const DefaultLeaseTTL = 15 * time.Second

// DefaultCompactEvery is the WAL tail size (in records) that triggers
// compaction when Config does not say otherwise.
const DefaultCompactEvery = 1024

// Config parameterises a Coordinator.
type Config struct {
	// LeaseTTL is the worker-liveness horizon: a worker silent for this
	// long is dropped and its leased jobs re-queued (<= 0:
	// DefaultLeaseTTL). Workers heartbeat at a fraction of it.
	LeaseTTL time.Duration
	// StateDir holds the queue's write-ahead log: OpenCoordinator logs
	// every job and result transition under this directory and replays
	// the log at boot, so a daemon restart resumes mid-campaign.
	// Required.
	StateDir string
	// CompactEvery bounds the WAL tail: once this many records
	// accumulate since the last snapshot, the next transition folds the
	// live queue state into a fresh snapshot and truncates the tail
	// (<= 0: DefaultCompactEvery).
	CompactEvery int
	// Persisted, when set, reports whether the completed record for a
	// job key is already durable in the result store. Compaction drops
	// acknowledged results from the WAL once Persisted confirms them;
	// with Persisted nil they are retained across compactions, which is
	// safe (replaying them is idempotent) but unbounded.
	Persisted func(key string) bool
}

// Coordinator is the fleet's job queue: Dispatch parks campaign jobs
// here, workers drain them via Register/Lease/Complete, and a reaper
// re-issues the leases of dead workers. All methods are safe for
// concurrent use. Create with OpenCoordinator; Close releases the reaper
// and fails everything still queued.
type Coordinator struct {
	ttl time.Duration

	// epoch is a random per-coordinator tag baked into worker IDs, so
	// an ID issued by an earlier daemon incarnation can never collide
	// with a fresh one: a stale worker's calls must 404 (forcing it to
	// re-register) rather than silently impersonate — and keep alive —
	// some new worker that happened to draw the same sequence number.
	epoch string

	mu      sync.Mutex
	closed  bool
	seq     int // worker ID counter
	workers map[string]*workerState
	tasks   map[string]*task // every queued-or-leased job by key
	pending []*task          // FIFO of unleased tasks
	// Lease lifecycle counters behind /metrics: every grant, every TTL
	// expiry, every forfeiture (clean deregister requeues). Requeues is
	// expired plus forfeited.
	leasesIssued    uint64
	leasesExpired   uint64
	leasesForfeited uint64
	// pm, when RegisterMetrics has run, holds the per-worker gauge
	// families updated on heartbeats and pruned on worker departure.
	pm   *perWorkerMetrics
	wake chan struct{} // closed+replaced when pending grows
	done chan struct{} // closed by Close; stops the reaper

	wal          *wal
	compactEvery int
	persisted    func(key string) bool
	// settled holds every durably acknowledged result until Persisted
	// confirms the store has it (compaction prunes confirmed entries).
	// It carries two guarantees: an ack survives a crash that lands
	// between releasing the Dispatch waiter and the store append, and a
	// recovered job completed before the daemon's recovery dispatcher
	// re-attached still reaches the store — Dispatch serves settled
	// results directly, which routes them in through the cache.
	settled map[string]campaign.Record
	// unresolved carries WAL jobs this build could not decode (version
	// skew) through every compaction verbatim, so they are not lost to
	// a binary that cannot run them.
	unresolved []campaign.WireJob
	recovery   Recovery
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id        string
	name      string
	capacity  int
	lastSeen  time.Time
	leased    map[string]*task
	completed uint64
	// Self-reported liveness detail, refreshed by every heartbeat: the
	// worker's own lifetime counters survive its re-registrations, so
	// they can disagree with (exceed) the coordinator-side completed.
	lastJobKey   string
	jobsDone     uint64
	cyclesPerSec float64
}

// task is one dispatched job travelling through the queue.
type task struct {
	job      campaign.Job
	waiters  int       // Dispatch callers blocked on done
	leasedBy string    // worker ID, "" while pending
	leasedAt time.Time // grant time, meaningful only while leasedBy != ""

	done chan struct{} // closed on completion or failure
	rec  campaign.Record
	err  error
}

// OpenCoordinator returns a running coordinator whose queue is durable
// under cfg.StateDir: every job and result transition is
// write-ahead-logged (and fsynced) before it takes effect, and opening
// an existing state directory replays the log, re-queueing the dead
// incarnation's unfinished jobs as plain pending (its leases died with
// its worker IDs' epoch) and carrying its acknowledged-but-possibly-
// unpersisted results forward. Recovered() reports what was restored.
// An empty StateDir is an error.
func OpenCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("cluster: Config.StateDir is required")
	}
	w, st, err := openWAL(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	compactEvery := cfg.CompactEvery
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	epoch := make([]byte, 4)
	rand.Read(epoch)
	c := &Coordinator{
		ttl:          ttl,
		epoch:        hex.EncodeToString(epoch),
		workers:      make(map[string]*workerState),
		tasks:        make(map[string]*task),
		wake:         make(chan struct{}),
		done:         make(chan struct{}),
		wal:          w,
		compactEvery: compactEvery,
		persisted:    cfg.Persisted,
		settled:      make(map[string]campaign.Record),
		recovery:     recoveryFromState(st),
	}
	for _, wire := range c.recovery.Jobs {
		j, err := wire.Job()
		if err != nil || j.Key() != wire.Key {
			// A job this build cannot decode or re-key: keep it in the
			// WAL for a future build, but it cannot be queued.
			c.unresolved = append(c.unresolved, wire)
			continue
		}
		t := &task{job: j, done: make(chan struct{})}
		c.tasks[wire.Key] = t
		c.pending = append(c.pending, t)
	}
	for _, rec := range c.recovery.Orphans {
		c.settled[rec.Key] = rec
	}
	// Fold the recovered state into a fresh snapshot immediately, so
	// boot replay work stays bounded no matter how often the daemon
	// crash-loops.
	if err := c.wal.compact(c.snapshotLocked()); err != nil {
		c.wal.close()
		return nil, err
	}
	go c.reaper()
	return c, nil
}

// Recovered reports what the coordinator restored from its write-ahead
// log at boot — zero-valued for a fresh state directory. The returned
// value is shared; treat it as read-only.
func (c *Coordinator) Recovered() Recovery { return c.recovery }

// LeaseTTL returns the worker-liveness horizon the coordinator enforces
// — the TTL the register response advertises to workers.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// Close shuts the queue down: every queued or leased task fails with
// ErrClosed (releasing its Dispatch callers), the reaper stops, and all
// later calls fail. The daemon closes the coordinator after draining,
// so no campaign is waiting by then in the normal path. Close first
// compacts a final snapshot — still-queued jobs stay in the WAL as live,
// so the next boot resumes them.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	// Best-effort: an unwritable final snapshot leaves the previous
	// snapshot+tail, which replay to the same state.
	c.wal.compact(c.snapshotLocked())
	c.shutdownLocked()
}

// Crash abandons the coordinator the way a process death would: waiters
// fail with ErrClosed, the reaper stops, and — unlike Close — nothing
// is compacted or logged, so the WAL files are left exactly as the last
// transition wrote them. In-process restart tests use it to exercise
// the same recovery path the real crash matrix drives with SIGKILL.
func (c *Coordinator) Crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.shutdownLocked()
}

// shutdownLocked is the shared tail of Close and Crash. The caller
// holds c.mu.
func (c *Coordinator) shutdownLocked() {
	c.closed = true
	for key, t := range c.tasks {
		t.err = ErrClosed
		close(t.done)
		delete(c.tasks, key)
	}
	c.pending = nil
	for _, w := range c.workers {
		clear(w.leased)
	}
	close(c.done)
	c.wal.close()
}

// snapshotLocked flattens the current queue into WAL records: one
// enqueue per live task in queue order (pending first, then leased,
// sorted by key for determinism), jobs this build could not decode,
// and acknowledged results not yet confirmed persisted (the Persisted
// check prunes confirmed ones here, which is what bounds the WAL). The
// caller holds c.mu.
func (c *Coordinator) snapshotLocked() []walRecord {
	var recs []walRecord
	seen := make(map[string]bool, len(c.tasks))
	for _, t := range c.pending {
		key := t.job.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		wire := t.job.Wire()
		recs = append(recs, walRecord{Op: opEnqueue, Job: &wire})
	}
	var leasedKeys []string
	for key := range c.tasks {
		if !seen[key] {
			leasedKeys = append(leasedKeys, key)
		}
	}
	sort.Strings(leasedKeys)
	for _, key := range leasedKeys {
		wire := c.tasks[key].job.Wire()
		recs = append(recs, walRecord{Op: opEnqueue, Job: &wire})
	}
	for i := range c.unresolved {
		recs = append(recs, walRecord{Op: opEnqueue, Job: &c.unresolved[i]})
	}
	var settledKeys []string
	for key := range c.settled {
		if c.persisted != nil && c.persisted(key) {
			delete(c.settled, key)
			continue
		}
		settledKeys = append(settledKeys, key)
	}
	sort.Strings(settledKeys)
	for _, key := range settledKeys {
		rec := c.settled[key]
		recs = append(recs, walRecord{Op: opAck, Rec: &rec})
	}
	return recs
}

// maybeCompactLocked compacts once the tail has grown past the
// configured window. Failure is tolerated: the triggering transition is
// already durable in the tail, and the next transition retries. The
// caller holds c.mu.
func (c *Coordinator) maybeCompactLocked() {
	if c.wal.tailRecs < c.compactEvery {
		return
	}
	c.wal.compact(c.snapshotLocked())
}

// logBestEffort appends withdrawals, which only affect scheduling, not
// correctness: if the append fails, the next boot merely re-queues a
// job no one is waiting for, and the recovery dispatcher attaches to or
// withdraws it. The caller holds c.mu.
func (c *Coordinator) logBestEffort(recs ...walRecord) {
	if len(recs) == 0 {
		return
	}
	c.wal.append(recs...)
	c.maybeCompactLocked()
}

// reaper periodically drops workers that missed their lease TTL and
// re-issues their jobs. Mutating calls also reap inline, so the ticker
// only matters when the coordinator is otherwise idle.
func (c *Coordinator) reaper() {
	interval := c.ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.mu.Lock()
			c.reapLocked()
			c.mu.Unlock()
		case <-c.done:
			return
		}
	}
}

// reapLocked drops every worker unseen for a lease TTL, re-queues its
// leased tasks, and — when that leaves no live worker at all — fails
// everything still queued with ErrNoWorkers so dispatchers can fall
// back to local simulation instead of waiting for a fleet that is gone.
// The caller holds c.mu.
func (c *Coordinator) reapLocked() {
	if c.closed {
		return
	}
	now := time.Now()
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) > c.ttl {
			c.leasesExpired += c.dropWorkerLocked(w)
		}
	}
	if len(c.workers) == 0 && len(c.tasks) > 0 {
		// Fleet gone: fail every task a dispatcher is waiting on, so the
		// caller falls back to local simulation. Recovered tasks with no
		// waiter yet stay queued — failing them would discard work no
		// one is around to re-run; the recovery dispatcher attaches to
		// (or withdraws) them when it arrives.
		var dequeues []walRecord
		for key, t := range c.tasks {
			if t.waiters == 0 {
				continue
			}
			c.settleLocked(key, t, campaign.Record{}, ErrNoWorkers)
			dequeues = append(dequeues, walRecord{Op: opDequeue, Key: key})
		}
		c.logBestEffort(dequeues...)
		return
	}
	if len(c.pending) > 0 {
		c.wakeLocked()
	}
}

// wakeLocked releases every Lease long-poller. The caller holds c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// dropWorkerLocked removes w from the fleet and takes back its leases:
// each leased task goes back on pending. Leases are memory-only, so
// nothing is logged. It returns how many leases it took back, for the
// caller to count as expired or forfeited. The caller holds c.mu.
func (c *Coordinator) dropWorkerLocked(w *workerState) uint64 {
	n := uint64(len(w.leased))
	for _, t := range w.leased {
		t.leasedBy = ""
		c.pending = append(c.pending, t)
	}
	clear(w.leased)
	c.pm.remove(w)
	delete(c.workers, w.id)
	return n
}

// removeLocked takes a task out of the queue: out of tasks, and out of
// pending or its worker's leases, so no worker is handed it again. The
// caller holds c.mu.
func (c *Coordinator) removeLocked(key string, t *task) {
	delete(c.tasks, key)
	if owner := c.workers[t.leasedBy]; owner != nil {
		delete(owner.leased, key)
	} else if i := slices.Index(c.pending, t); i >= 0 {
		c.pending = slices.Delete(c.pending, i, i+1)
	}
}

// settleLocked removes a task from the queue with its outcome and
// releases its Dispatch callers. The caller holds c.mu.
func (c *Coordinator) settleLocked(key string, t *task, rec campaign.Record, err error) {
	c.removeLocked(key, t)
	t.rec, t.err = rec, err
	close(t.done)
}

// withdrawLocked removes an unleased, unwaited task from the queue and
// logs its departure. Nobody holds its done channel, so nothing is
// closed. The caller holds c.mu.
func (c *Coordinator) withdrawLocked(key string, t *task) {
	c.removeLocked(key, t)
	c.logBestEffort(walRecord{Op: opDequeue, Key: key})
}

// Dispatch queues job j for the fleet and blocks until a worker posts
// its result (or failure). It returns ErrNoWorkers immediately when no
// live worker is registered, and ErrClosed once the coordinator shuts
// down. While the job is still *pending* — not yet leased — cancelling
// ctx withdraws it and returns ctx.Err(); once leased, Dispatch waits
// for the worker like an uninterruptible local run, so in-flight fleet
// work always lands in the store.
func (c *Coordinator) Dispatch(ctx context.Context, j campaign.Job) (campaign.Record, error) {
	key := j.Key()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return campaign.Record{}, ErrClosed
	}
	if rec, ok := c.settled[key]; ok {
		// Acknowledged durably (possibly by the previous incarnation)
		// but never handed to a dispatcher: serve it, so the cache
		// routes it into the result store.
		c.mu.Unlock()
		return rec, nil
	}
	c.reapLocked()
	t := c.tasks[key]
	if len(c.workers) == 0 {
		if t != nil && t.waiters == 0 {
			// A recovered task with no fleet to run it: withdraw it so
			// the caller's local fallback becomes the one execution —
			// leaving it queued could double-run the job when a worker
			// arrives mid-fallback.
			c.withdrawLocked(key, t)
		}
		c.mu.Unlock()
		return campaign.Record{}, ErrNoWorkers
	}
	if t == nil {
		t = &task{job: j, done: make(chan struct{})}
		wire := j.Wire()
		if err := c.wal.append(walRecord{Op: opEnqueue, Job: &wire}); err != nil {
			c.mu.Unlock()
			return campaign.Record{}, err
		}
		c.tasks[key] = t
		c.pending = append(c.pending, t)
		// Compact only now that the state reflects the logged record —
		// a snapshot taken between the two would drop it.
		c.maybeCompactLocked()
		c.wakeLocked()
	}
	t.waiters++
	c.mu.Unlock()

	select {
	case <-t.done:
		return t.rec, t.err
	case <-ctx.Done():
	}
	// Cancelled: withdraw the job if it is still pending and no one else
	// is waiting on it; a leased job is ridden to completion.
	c.mu.Lock()
	select {
	case <-t.done:
		c.mu.Unlock()
		return t.rec, t.err
	default:
	}
	t.waiters--
	if t.leasedBy == "" && t.waiters == 0 {
		c.withdrawLocked(key, t)
		c.mu.Unlock()
		return campaign.Record{}, ctx.Err()
	}
	if t.leasedBy == "" {
		// Another campaign still wants the job; leave it queued.
		c.mu.Unlock()
		return campaign.Record{}, ctx.Err()
	}
	c.mu.Unlock()
	<-t.done
	return t.rec, t.err
}

// LiveWorkers returns how many registered workers are within their
// lease TTL.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	return len(c.workers)
}

// Pending returns how many dispatched jobs no worker has leased yet.
func (c *Coordinator) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Requeues returns how many leases have ever been taken back from dead
// or departing workers and re-issued — 0 on a healthy fleet, so the
// counter is a direct measure of worker churn.
func (c *Coordinator) Requeues() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leasesExpired + c.leasesForfeited
}

// Register admits a worker to the fleet and returns its assigned state
// (ID, normalised capacity). Capacity <= 0 registers as 1.
func (c *Coordinator) Register(name string, capacity int) (WorkerStatus, error) {
	if capacity <= 0 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return WorkerStatus{}, ErrClosed
	}
	c.seq++
	w := &workerState{
		id:       fmt.Sprintf("w%06d-%s", c.seq, c.epoch),
		name:     name,
		capacity: capacity,
		lastSeen: time.Now(),
		leased:   make(map[string]*task),
	}
	c.workers[w.id] = w
	c.pm.update(w)
	return w.status(), nil
}

// Deregister removes a worker cleanly (the SIGTERM-drain path): its
// remaining leases — a drained worker should have none — are re-queued
// immediately instead of waiting out the TTL.
func (c *Coordinator) Deregister(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	w := c.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	c.leasesForfeited += c.dropWorkerLocked(w)
	c.reapLocked() // strand check: this may have been the last worker
	if len(c.pending) > 0 {
		c.wakeLocked()
	}
	return nil
}

// Liveness is the self-reported detail a worker attaches to each
// lease/heartbeat call: what it last ran and how fast. The coordinator
// republishes it through /v1/workers and the per-worker /metrics
// gauges, so fleet dashboards can tell a parked worker from a wedged
// one without scraping every worker individually.
type Liveness struct {
	// LastJobKey is the key of the most recent job the worker finished
	// (successfully or not); empty until it has finished one.
	LastJobKey string
	// JobsDone is the worker's lifetime finished-job count. It survives
	// re-registration, unlike the coordinator's per-identity tally.
	JobsDone uint64
	// CyclesPerSec is the simulated-cycle rate of the worker's most
	// recent successful job (0 until one succeeds).
	CyclesPerSec float64
}

// Lease hands the calling worker up to max pending jobs and records the
// call as a heartbeat (max 0 is a pure heartbeat), adopting the
// liveness detail the worker reported. When nothing is pending it
// long-polls up to wait — capped at half the lease TTL so a parked
// worker still heartbeats — and returns an empty batch on timeout.
// Returns ErrUnknownWorker for IDs the coordinator dropped; the worker
// should re-register and retry.
func (c *Coordinator) Lease(workerID string, max int, wait time.Duration, live Liveness) ([]campaign.WireJob, error) {
	if wait > c.ttl/2 {
		wait = c.ttl / 2
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		c.reapLocked()
		w := c.workers[workerID]
		if w == nil {
			c.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		w.lastSeen = time.Now()
		w.lastJobKey, w.jobsDone, w.cyclesPerSec = live.LastJobKey, live.JobsDone, live.CyclesPerSec
		c.pm.update(w)
		if max <= 0 {
			c.mu.Unlock()
			return nil, nil
		}
		if len(c.pending) > 0 {
			// Grants are memory-only: a crash forgets them, and the next
			// boot re-queues every unsettled job as plain pending.
			n := min(max, len(c.pending))
			faultpoint.Hit("cluster.lease.granted")
			batch := make([]campaign.WireJob, 0, n)
			grantedAt := time.Now()
			for _, t := range c.pending[:n] {
				t.leasedBy = workerID
				t.leasedAt = grantedAt
				w.leased[t.job.Key()] = t
				batch = append(batch, t.job.Wire())
			}
			c.leasesIssued += uint64(n)
			c.pm.update(w)
			c.pending = append(c.pending[:0], c.pending[n:]...)
			c.mu.Unlock()
			return batch, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			c.mu.Unlock()
			return nil, nil
		}
		wake := c.wake
		c.mu.Unlock()
		timer := time.NewTimer(remaining)
		select {
		case <-wake:
		case <-timer.C:
		case <-c.done:
			timer.Stop()
			return nil, ErrClosed
		}
		timer.Stop()
	}
}

// JobFailure is a worker-reported per-job failure: the job's key and
// the simulator's error message. The coordinator fails the waiting
// campaign with it — simulator errors are deterministic, so re-issuing
// the job to another worker would only fail again.
type JobFailure struct {
	// Key is the failed job's content hash (echoed from the lease).
	Key string `json:"key"`
	// Error is the worker-side failure message.
	Error string `json:"error"`
}

// Complete records a batch of finished jobs from a worker — successful
// records and failures alike — and releases their Dispatch callers. It
// also counts as a heartbeat. The first result for a key wins; results
// for unknown or already-completed keys are counted in duplicates and
// discarded (a re-issued job's late second result is byte-identical
// anyway, so nothing is lost). Returns ErrUnknownWorker for dropped
// workers — their results are discarded too, because their leases were
// already re-issued.
func (c *Coordinator) Complete(workerID string, recs []campaign.Record, fails []JobFailure) (accepted, duplicates int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, 0, ErrClosed
	}
	c.reapLocked()
	w := c.workers[workerID]
	if w == nil {
		return 0, 0, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	// Acks go durable — full records, fsynced — before the worker gets
	// its 200 and before any waiter is released: a result a worker saw
	// accepted can never be lost to a crash.
	var acks []walRecord
	for i := range recs {
		if c.tasks[recs[i].Key] != nil {
			acks = append(acks, walRecord{Op: opAck, Rec: &recs[i]})
		}
	}
	for _, f := range fails {
		if c.tasks[f.Key] != nil {
			acks = append(acks, walRecord{Op: opFail, Key: f.Key, Error: f.Error})
		}
	}
	if len(acks) > 0 {
		if err := c.wal.append(acks...); err != nil {
			return 0, 0, err
		}
	}
	faultpoint.Hit("cluster.ack.logged")
	settle := func(key string, rec campaign.Record, failure error) {
		t := c.tasks[key]
		if t == nil {
			duplicates++
			return
		}
		if failure == nil {
			// Park the result until the store confirms it (compaction
			// asks Persisted): if the process dies before the waiter's
			// store append — or the task had no waiter at all — the next
			// boot re-serves it from here instead of re-running the job.
			c.settled[key] = rec
			w.completed++
		}
		// A task completed while queued for re-issue leaves pending too,
		// so no other worker leases a settled job.
		c.settleLocked(key, t, rec, failure)
		accepted++
	}
	for _, rec := range recs {
		settle(rec.Key, rec, nil)
	}
	for _, f := range fails {
		settle(f.Key, campaign.Record{}, fmt.Errorf("cluster: worker %s: %s", workerID, f.Error))
	}
	c.pm.update(w)
	c.maybeCompactLocked()
	return accepted, duplicates, nil
}

// WorkerStatus is the wire form of one fleet member, served by the
// daemon's GET /v1/workers endpoint.
type WorkerStatus struct {
	// ID is the coordinator-assigned worker identity — a sequence
	// number plus the coordinator's random epoch tag
	// ("w000001-1a2b3c4d"), so IDs from a previous daemon incarnation
	// never resolve.
	ID string `json:"id"`
	// Name is the worker's self-reported label (its -name flag).
	Name string `json:"name"`
	// Capacity is how many simulations the worker runs in parallel.
	Capacity int `json:"capacity"`
	// Leased is how many jobs the worker currently holds.
	Leased int `json:"leased"`
	// Completed counts jobs this worker finished successfully.
	Completed uint64 `json:"completed"`
	// LastSeen is the worker's most recent heartbeat.
	LastSeen time.Time `json:"last_seen"`
	// LastJobKey is the worker's self-reported most recently finished
	// job key; empty until it has finished one.
	LastJobKey string `json:"last_job_key,omitempty"`
	// JobsDone is the worker's self-reported lifetime finished-job
	// count, which survives re-registration (Completed does not).
	JobsDone uint64 `json:"jobs_done"`
	// CyclesPerSec is the self-reported simulated-cycle rate of the
	// worker's most recent successful job.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
}

func (w *workerState) status() WorkerStatus {
	return WorkerStatus{
		ID: w.id, Name: w.name, Capacity: w.capacity,
		Leased: len(w.leased), Completed: w.completed, LastSeen: w.lastSeen,
		LastJobKey: w.lastJobKey, JobsDone: w.jobsDone, CyclesPerSec: w.cyclesPerSec,
	}
}

// Workers snapshots the live fleet, sorted by worker ID.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
