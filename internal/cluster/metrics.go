package cluster

import (
	"time"

	"repro/internal/metrics"
)

// Coordinator-side observability. RegisterMetrics publishes the fleet's
// state into a metrics.Registry — the daemon calls it once at boot so
// its /metrics endpoint covers the cluster layer. Point-in-time facts
// (fleet size, queue depth, lease age) are scrape-time functions reading
// under the coordinator lock; event counts are plain uint64 fields
// bumped where the event happens and exposed through CounterFuncs; WAL
// latencies are histograms observed on the append/fsync/compact paths
// themselves.
//
// Lock discipline: scrape-time functions take c.mu while holding their
// own family's lock, and update paths under c.mu only touch lock-free
// metric atomics or resolve children of families that have no
// functions — so the two lock orders never form a cycle. Keep it that
// way: never Bind or register a function-backed metric while holding
// c.mu.

// perWorkerMetrics are the coordinator's per-worker gauge families,
// labeled by worker ID and self-reported name. Children are updated on
// every heartbeat and deleted when the worker leaves the fleet (clean
// deregister or TTL reap), so the exposition tracks the live fleet.
type perWorkerMetrics struct {
	leased    *metrics.GaugeVec
	completed *metrics.GaugeVec
	jobsDone  *metrics.GaugeVec
	cycles    *metrics.GaugeVec
}

// update publishes one worker's current state. The caller holds c.mu.
func (pm *perWorkerMetrics) update(w *workerState) {
	if pm == nil {
		return
	}
	pm.leased.WithLabelValues(w.id, w.name).Set(float64(len(w.leased)))
	pm.completed.WithLabelValues(w.id, w.name).Set(float64(w.completed))
	pm.jobsDone.WithLabelValues(w.id, w.name).Set(float64(w.jobsDone))
	pm.cycles.WithLabelValues(w.id, w.name).Set(w.cyclesPerSec)
}

// remove drops one worker's series. The caller holds c.mu.
func (pm *perWorkerMetrics) remove(w *workerState) {
	if pm == nil {
		return
	}
	pm.leased.Delete(w.id, w.name)
	pm.completed.Delete(w.id, w.name)
	pm.jobsDone.Delete(w.id, w.name)
	pm.cycles.Delete(w.id, w.name)
}

// RegisterMetrics publishes the coordinator's observability surface into
// r. Call it once, after OpenCoordinator and before the first scrape;
// registering the same coordinator into two registries is not supported
// (the per-worker and WAL handles are singletons).
func (c *Coordinator) RegisterMetrics(r *metrics.Registry) {
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		}
	}
	r.GaugeFunc("mflush_fleet_workers", "Registered workers within their lease TTL.",
		locked(func() float64 { return float64(len(c.workers)) }))
	r.GaugeFunc("mflush_fleet_pending_jobs", "Dispatched jobs no worker has leased yet.",
		locked(func() float64 { return float64(len(c.pending)) }))
	r.GaugeFunc("mflush_fleet_lease_age_seconds", "Age of the oldest outstanding lease.",
		locked(func() float64 {
			var max float64
			now := time.Now()
			for _, t := range c.tasks {
				if t.leasedBy == "" {
					continue
				}
				if age := now.Sub(t.leasedAt).Seconds(); age > max {
					max = age
				}
			}
			return max
		}))
	r.GaugeFunc("mflush_heartbeat_lag_seconds", "Longest silence of any live worker since its last heartbeat.",
		locked(func() float64 {
			var max float64
			now := time.Now()
			for _, w := range c.workers {
				if lag := now.Sub(w.lastSeen).Seconds(); lag > max {
					max = lag
				}
			}
			return max
		}))
	r.CounterFunc("mflush_leases_issued_total", "Job leases ever granted to workers.",
		locked(func() float64 { return float64(c.leasesIssued) }))
	r.CounterFunc("mflush_leases_expired_total", "Leases taken back from workers that missed their TTL.",
		locked(func() float64 { return float64(c.leasesExpired) }))
	r.CounterFunc("mflush_leases_forfeited_total", "Leases forfeited by departing workers.",
		locked(func() float64 { return float64(c.leasesForfeited) }))

	// Recovery is a boot-time fact: set once from what the WAL replay
	// restored (all zero for a fresh state directory).
	r.Gauge("mflush_recovered_jobs", "Unfinished jobs re-queued from the WAL at the last boot.").
		Set(float64(len(c.recovery.Jobs)))
	r.Gauge("mflush_recovered_orphan_results", "Acknowledged results carried over from the WAL at the last boot.").
		Set(float64(len(c.recovery.Orphans)))

	pm := &perWorkerMetrics{
		leased:    r.GaugeVec("mflush_fleet_worker_leased", "Jobs currently leased, per worker.", "worker", "name"),
		completed: r.GaugeVec("mflush_fleet_worker_completed", "Jobs settled successfully via this worker.", "worker", "name"),
		jobsDone:  r.GaugeVec("mflush_fleet_worker_jobs_done", "Worker's self-reported lifetime finished-job count.", "worker", "name"),
		cycles:    r.GaugeVec("mflush_fleet_worker_cycles_per_sec", "Worker's self-reported simulation rate (cycles/s of its last job).", "worker", "name"),
	}

	c.mu.Lock()
	c.pm = pm
	for _, w := range c.workers {
		pm.update(w)
	}
	c.wal.appendH = r.Histogram("mflush_wal_append_seconds", "WAL tail append latency (write, excluding fsync).", metrics.DefBuckets)
	c.wal.fsyncH = r.Histogram("mflush_wal_fsync_seconds", "WAL tail fsync latency.", metrics.DefBuckets)
	c.wal.compactH = r.Histogram("mflush_wal_compact_seconds", "WAL compaction latency (snapshot write, rename, tail truncate).", metrics.DefBuckets)
	c.wal.compactions = r.Counter("mflush_wal_compactions_total", "WAL compactions performed.")
	c.mu.Unlock()
}
