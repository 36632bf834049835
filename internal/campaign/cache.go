package campaign

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Cache is a content-addressed, single-flight result cache over a Store:
// a job is simulated at most once per key, no matter how many concurrent
// callers request it or how often the process restarts. The first caller
// for a key becomes the leader and runs the simulation; callers arriving
// while it is in flight wait for the leader's result instead of starting
// a duplicate run; later callers are served from memory or the store.
// The daemon (internal/server) keeps one Cache shared by every campaign,
// which is what makes identical requests from different clients free.
//
// Simulations are deterministic in their Job parameters, so a cached
// Record is byte-for-byte the record a fresh run would produce — cache
// hits are indistinguishable from recomputation, forever.
type Cache struct {
	runner func(sim.Options) (*sim.Result, error)
	// jobRun, when non-nil (NewJobCache), replaces runner with a
	// job-level executor that sees the whole Job and the leader's
	// context — the hook the cluster router uses to send misses to
	// remote workers instead of the local simulator.
	jobRun func(context.Context, Job) (Record, error)
	store  *Store

	mu sync.Mutex
	// done memoises completed records only when no store backs the
	// cache; with a store, the store serves every record from disk, so
	// the cache's memory does not grow with the results it has seen.
	done     map[string]Record
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

// NewCache returns a cache backed by store (nil: in-memory only, results
// live for the process lifetime) executing misses with runner (nil:
// sim.Run). Completed records are appended to the store as they finish,
// so the cache survives restarts with the same crash-consistency
// guarantees as campaign resume.
func NewCache(store *Store, runner func(sim.Options) (*sim.Result, error)) *Cache {
	if runner == nil {
		runner = sim.Run
	}
	return &Cache{
		runner:   runner,
		store:    store,
		done:     make(map[string]Record),
		inflight: make(map[string]*flight),
	}
}

// NewJobCache returns a cache like NewCache's, but executing misses
// with a job-level runner that receives the full Job and the leader
// caller's context. This is the constructor the daemon's cluster mode
// uses: the runner can route the job to a remote worker (and honour
// cancellation while the job is still queued) instead of simulating in
// process. Single-flight, store persistence and hit accounting are
// identical to NewCache. The runner must return a Record a local run
// would have produced byte-for-byte (NewRecord over a deterministic
// simulation does); the cache stamps the job's key on it before
// persisting.
func NewJobCache(store *Store, run func(context.Context, Job) (Record, error)) *Cache {
	return &Cache{
		jobRun:   run,
		store:    store,
		done:     make(map[string]Record),
		inflight: make(map[string]*flight),
	}
}

// Do returns the record for job j, computing it at most once per key
// across all concurrent callers and, when a store backs the cache, across
// process restarts. hit reports whether the result was served without a
// fresh simulation (from memory, the store, or another caller's in-flight
// run). Errors are never cached: a failed job can be retried. A caller
// waiting on another caller's in-flight run returns ctx.Err() if ctx is
// cancelled first; a leader running a local simulation always finishes it
// (runs are not interruptible) so the store never loses a completed
// result. A job-level runner (NewJobCache) may instead honour the
// leader's ctx while the job is still queued remotely; waiters that were
// not themselves cancelled transparently retry such abandoned flights.
func (c *Cache) Do(ctx context.Context, j Job) (rec Record, hit bool, err error) {
	key := j.Key()
	c.mu.Lock()
	if rec, ok := c.lookup(key); ok {
		c.hits++
		c.mu.Unlock()
		return relabel(rec, j), true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		// Note: in a shared-scheduler pool this wait holds the caller's
		// worker slot while the leader (which always acquired its own
		// slot first, so there is no deadlock) finishes — idle capacity
		// traded for simplicity.
		if err := c.await(ctx, f); err != nil {
			return Record{}, false, err
		}
		if f.err != nil {
			// The leader aborted on its *own* cancellation (possible
			// only with a job-level runner; local simulations always
			// finish). That is not this caller's cancellation and not
			// a simulation failure — nothing was computed and nothing
			// cached — so retry: this caller becomes the new leader
			// or joins a fresher flight.
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
	if f.err == nil && c.store == nil {
		c.done[key] = f.rec // the store, when present, already holds it
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.rec, false, f.err
}

// await blocks until flight f settles or ctx is cancelled, counted in
// Waiting meanwhile.
func (c *Cache) await(ctx context.Context, f *flight) error {
	c.waiting.Add(1)
	defer c.waiting.Add(-1)
	select {
	case <-f.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

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
	_, ok := c.lookup(j.Key())
	return ok
}

// Lookup returns the completed record for j without executing or
// waiting for anything: it consults memory and the store but never
// joins an in-flight run. Counts as a cache hit when it succeeds.
// Schedulers use it to serve already-cached jobs before competing for
// simulation slots, so a fully-cached campaign costs no queueing.
func (c *Cache) Lookup(j Job) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.lookup(j.Key())
	if !ok {
		return Record{}, false
	}
	c.hits++
	return relabel(rec, j), true
}

// lookup consults the completed-record index — the store's when one
// backs the cache, the in-memory map otherwise. The caller holds c.mu.
func (c *Cache) lookup(key string) (Record, bool) {
	if c.store != nil {
		return c.store.Get(key)
	}
	rec, ok := c.done[key]
	return rec, ok
}

// compute executes the miss — through the job-level runner when one is
// set (cluster routing), the plain simulator runner otherwise — and
// persists the record. ctx reaches only the job-level runner: local
// simulations are not interruptible, so the plain path always finishes.
func (c *Cache) compute(ctx context.Context, j Job, key string) (Record, error) {
	var rec Record
	if c.jobRun != nil {
		r, err := c.jobRun(ctx, j)
		if err != nil {
			return Record{}, err
		}
		rec = r
		rec.Key = key // the store must index by this job's key, whatever the runner set
	} else {
		// SimOptions loads and digest-verifies a trace job's scenario, so
		// a load failure surfaces as the job's error like a sim failure.
		o, err := j.SimOptions()
		if err != nil {
			return Record{}, err
		}
		res, err := c.runner(o)
		if err != nil {
			return Record{}, err
		}
		rec = NewRecord(j, res)
	}
	if c.store != nil {
		if err := c.store.Append(rec); err != nil {
			return Record{}, err
		}
	}
	return rec, nil
}

// NewRecord builds the store record for a completed job. Every path
// that turns a simulation into a record — the local scheduler, the
// cache, remote cluster workers — goes through this one constructor, so
// a record is byte-for-byte identical no matter where the job ran.
func NewRecord(j Job, res *sim.Result) Record {
	return Record{
		Key: j.Key(), Workload: res.Workload, Policy: res.Policy,
		Tweak: j.Tweak.Label(), Seed: j.Seed, Summary: res.Summary(),
	}
}

// relabel refreshes the display-only tweak label: job keys hash tweak
// content, not names, so a cached record may predate a spec rename.
func relabel(rec Record, j Job) Record {
	rec.Tweak = j.Tweak.Label()
	return rec
}

// Len returns the number of distinct results the cache can serve without
// simulating: records completed or observed this process plus everything
// in the backing store.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		return len(c.done)
	}
	return c.store.Len()
}

// Keys returns the sorted job keys of every result the cache can serve
// — the content-addressed index the daemon's cache endpoint exposes.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store != nil {
		return c.store.Keys()
	}
	keys := make([]string, 0, len(c.done))
	for k := range c.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stats returns how many Do calls were served without a fresh simulation
// (hits — memory, store, or in-flight joins) and how many started one
// (misses).
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
