package campaign

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cache is a content-addressed, single-flight result cache over a Store:
// a job is simulated at most once per key, no matter how many concurrent
// callers request it or how often the process restarts. The first caller
// for a key becomes the leader and runs the simulation; callers arriving
// while it is in flight wait for the leader's result instead of starting
// a duplicate run; later callers are served from the store.
// The daemon (internal/server) keeps one Cache shared by every campaign,
// which is what makes identical requests from different clients free.
//
// Simulations are deterministic in their Job parameters, so a cached
// Record is byte-for-byte the record a fresh run would produce — cache
// hits are indistinguishable from recomputation, forever.
type Cache struct {
	// run executes a miss: it sees the whole Job and the leader's
	// context, so it may route the job to a remote worker (the daemon's
	// executor does) instead of simulating in process.
	run func(context.Context, Job) (Record, error)
	// store serves every completed record from disk, so the cache's
	// memory does not grow with the results it has seen.
	store *Store

	mu       sync.Mutex
	inflight map[string]*flight // keys currently simulating
	hits     uint64
	misses   uint64
	// waiting counts Do calls blocked on another caller's flight.
	waiting atomic.Int64
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	rec  Record
	err  error
}

// NewCache returns a cache backed by store executing misses with run,
// which receives the full Job and the leader caller's context. store is
// required: NewCache panics on a nil one. The daemon's
// run is its job executor: it may send the job to a remote worker
// (and honour cancellation while the job is still queued) instead of
// simulating in process. run must return a Record a local run would
// have produced byte-for-byte (RunJob over a deterministic simulation
// does); the cache stamps the job's key on it before persisting.
// Completed records are appended to the store as they finish, so the
// cache survives restarts with the same crash-consistency guarantees as
// campaign resume.
func NewCache(store *Store, run func(context.Context, Job) (Record, error)) *Cache {
	if store == nil {
		panic("campaign: a result cache needs a store; open one with campaign.OpenStore")
	}
	return &Cache{
		run:      run,
		store:    store,
		inflight: make(map[string]*flight),
	}
}

// Do returns the record for job j, computing it at most once per key
// across all concurrent callers and across process restarts. hit reports
// whether the result was served without a fresh simulation (from the
// store or another caller's in-flight run). Errors are never cached: a failed job can be retried. A caller
// waiting on another caller's in-flight run returns ctx.Err() if ctx is
// cancelled first (the run's failure, if a JobFailure for it is the
// cause); a leader running a local simulation always finishes it
// (runs are not interruptible) so the store never loses a completed
// result. The runner may instead honour the leader's ctx while the job
// is still queued (remotely or for a local slot); waiters that were not
// themselves cancelled transparently retry such abandoned flights.
func (c *Cache) Do(ctx context.Context, j Job) (rec Record, hit bool, err error) {
	key := j.Key()
	c.mu.Lock()
	if rec, ok := c.store.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return relabel(rec, j), true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		// Note: this wait holds one of the caller's pool workers while
		// the leader (running on its own caller's pool, so there is no
		// deadlock) finishes — idle capacity traded for simplicity.
		if err := c.await(ctx, f, key); err != nil {
			return Record{}, false, err
		}
		if f.err != nil {
			// The leader aborted on its *own* cancellation, before its
			// job started simulating (a simulation always finishes).
			// That is not this caller's cancellation and not a
			// simulation failure — nothing was computed and nothing
			// cached — so retry: this caller becomes the new leader or
			// joins a fresher flight.
			if isCtxErr(f.err) && ctx.Err() == nil {
				return c.Do(ctx, j)
			}
			return Record{}, false, f.err
		}
		c.mu.Lock()
		c.hits++ // count the join only once a result was served
		c.mu.Unlock()
		return relabel(f.rec, j), true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	f.rec, f.err = c.compute(ctx, j, key)
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.rec, false, f.err
}

// await blocks until flight f, running job key, settles or ctx is
// cancelled, counted in Waiting meanwhile. A caller cancelled because
// this very job failed gets the failure, as it would once f settled.
func (c *Cache) await(ctx context.Context, f *flight, key string) error {
	c.waiting.Add(1)
	defer c.waiting.Add(-1)
	select {
	case <-f.done:
		return nil
	case <-ctx.Done():
		if jf, ok := context.Cause(ctx).(*JobFailure); ok && jf.Key == key {
			return jf.Err
		}
		return ctx.Err()
	}
}

// JobFailure is the cause a caller's context is cancelled with when a job
// the caller shares failed in another caller's run: the daemon abandons
// every campaign that includes the failed job before the failed run frees
// its slot. The caller's wait on that job's run returns Err; its other
// waits return the cancellation.
type JobFailure struct {
	// Key is the failed job's key (Job.Key).
	Key string
	// Err is the job's error.
	Err error
}

// Error returns the failed job's error text.
func (e *JobFailure) Error() string { return e.Err.Error() }

// Waiting returns how many Do calls are currently blocked on another
// caller's in-flight run of the same job.
func (c *Cache) Waiting() int { return int(c.waiting.Load()) }

// Contains reports whether the cache can already serve j without a
// simulation. Unlike Lookup it counts nothing and returns no record —
// the daemon's admission control uses it to avoid charging queue
// capacity for jobs that are free.
func (c *Cache) Contains(j Job) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.store.Get(j.Key())
	return ok
}

// Lookup returns the completed record for j without executing or
// waiting for anything: it consults the store but never joins an
// in-flight run. Counts as a cache hit when it succeeds.
// Schedulers use it to serve already-cached jobs before their worker
// pool, so a fully-cached campaign costs no queueing.
func (c *Cache) Lookup(j Job) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.store.Get(j.Key())
	if !ok {
		return Record{}, false
	}
	c.hits++
	return relabel(rec, j), true
}

// compute executes the miss through the runner and persists the record.
func (c *Cache) compute(ctx context.Context, j Job, key string) (Record, error) {
	rec, err := c.run(ctx, j)
	if err != nil {
		return Record{}, err
	}
	rec.Key = key // the store must index by this job's key, whatever the runner set
	if err := c.store.Append(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// relabel refreshes the display-only tweak label: job keys hash tweak
// content, not names, so a cached record may predate a spec rename.
func relabel(rec Record, j Job) Record {
	rec.Tweak = j.Tweak.Label()
	return rec
}

// Len returns the number of distinct results the cache can serve without
// simulating: everything in the backing store.
func (c *Cache) Len() int {
	return c.store.Len()
}

// Keys returns the sorted job keys of every result the cache can serve
// — the content-addressed index the daemon's cache endpoint exposes.
func (c *Cache) Keys() []string {
	return c.store.Keys()
}

// Stats returns how many Do calls were served without a fresh simulation
// (hits — store reads or in-flight joins) and how many started one
// (misses).
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
