package main

import (
	"sort"
	"time"
)

// startPass begins the traced pass: what the tracer observed during
// set-up is dropped from the per-layer numbers (its spans are kept).
func (t *tracer) startPass() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.passStart = time.Now()
	t.obs = make(map[string][]time.Duration)
	t.counts = make(map[string]float64)
	t.calls = nil
}

// interval is a closed time range.
type interval struct{ start, end time.Time }

// covered returns how much of [lo, hi] the intervals cover.
func covered(ivs []interval, lo, hi time.Time) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(lo) {
			s = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for k, iv := range clipped {
		switch {
		case k == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}

// belowTwo returns the share of [lo, hi] during which fewer than two of
// the intervals were active.
func belowTwo(ivs []interval, lo, hi time.Time) float64 {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	var idle time.Duration
	active, last := 0, lo
	for _, e := range edges {
		at := e.at
		if at.Before(lo) {
			at = lo
		}
		if at.After(hi) {
			at = hi
		}
		if active < 2 {
			idle += at.Sub(last)
		}
		active += e.delta
		last = at
	}
	if active < 2 {
		idle += hi.Sub(last)
	}
	return idle.Seconds() / hi.Sub(lo).Seconds()
}

// layerMetrics computes the traced pass's per-layer metrics, plus the
// timings of layers only some workloads cross.
func (t *tracer) layerMetrics() (map[string]metric, map[string]metric) {
	t.mu.Lock()
	defer t.mu.Unlock()
	med := func(name string, unit time.Duration) float64 {
		ds := t.obs[name]
		if len(ds) == 0 {
			return 0
		}
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(unit)
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var members int
	var busy time.Duration
	callIvs := make([]interval, len(t.calls))
	byKey := make(map[string][]interval)
	for k, c := range t.calls {
		members += len(c.keys)
		busy += c.end.Sub(c.start)
		callIvs[k] = interval{c.start, c.end}
		for _, key := range c.keys {
			byKey[key] = append(byKey[key], callIvs[k])
		}
	}

	// Simulated-machine statistics, exact for a seed: a change that only
	// speeds the simulator up must leave them identical.
	var ipc, threadCycles, blockedMem, gated, l2Hits, l2Misses, hitTime, hitCount, flushes, cycles float64
	var results int
	for _, c := range t.calls {
		for _, r := range c.results {
			s := r.Summary()
			results++
			ipc += s.IPC
			threadCycles += float64(s.Cycles) * float64(len(s.Committed))
			blockedMem += float64(s.Counters["commit.blocked.mem"])
			gated += float64(s.Counters["fetch.blocked.flush"] + s.Counters["fetch.blocked.stall"] + s.Counters["fetch.blocked.policy"])
			l2Hits += float64(s.Counters["l2.hits"])
			l2Misses += float64(s.Counters["l2.misses"])
			hitTime += s.L2HitMean * float64(s.L2Hits)
			hitCount += float64(s.L2Hits)
			flushes += float64(s.Flushes)
			cycles += float64(s.Cycles)
		}
	}

	var outside, lags []float64
	for _, o := range t.ops {
		if !o.fresh || o.start.Before(t.passStart) || o.end.IsZero() {
			continue
		}
		var ivs []interval
		for _, key := range o.keys {
			ivs = append(ivs, byKey[key]...)
		}
		lat := o.end.Sub(o.start)
		outside = append(outside, 1-covered(ivs, o.start, o.end).Seconds()/lat.Seconds())
		if !o.sseDone.IsZero() && len(ivs) > 0 {
			last := ivs[0].end
			for _, iv := range ivs {
				if iv.end.After(last) {
					last = iv.end
				}
			}
			lags = append(lags, float64(o.sseDone.Sub(last))/float64(time.Millisecond))
		}
	}
	var outsideFrac float64
	if len(outside) > 0 {
		outsideFrac = median(outside)
	}

	wall := t.passEnd.Sub(t.passStart).Seconds()
	workers := t.counts["cluster.workers"]
	m := map[string]metric{
		"sim.open_ms":                       {med("sim.open", time.Millisecond), "ms"},
		"sim.step_ns_per_cycle":             {ratio(t.counts["sim.step_ns"], t.counts["sim.step_member_cycles"]), "ns"},
		"sim.finish_ms":                     {med("sim.finish", time.Millisecond), "ms"},
		"sim.run_ms":                        {med("sim.run", time.Millisecond), "ms"},
		"sim.zero_commit_cycle_frac":        {ratio(t.counts["sim.zero_commit_cycles"], t.counts["sim.probed_cycles"]), "fraction"},
		"pipeline.ipc":                      {ratio(ipc, float64(results)), "IPC"},
		"pipeline.commit_blocked_mem_frac":  {ratio(blockedMem, threadCycles), "fraction"},
		"pipeline.fetch_gated_frac":         {ratio(gated, threadCycles), "fraction"},
		"mem.l2_miss_rate":                  {ratio(l2Misses, l2Hits+l2Misses), "fraction"},
		"mem.l2_hit_time_mean_cycles":       {ratio(hitTime, hitCount), "cycles"},
		"core.flushes_per_kcycle":           {ratio(flushes*1000, cycles), "1/kcycle"},
		"campaign.gang_members_per_call":    {ratio(float64(members), float64(len(t.calls))), "members/call"},
		"campaign.sched_idle_frac":          {belowTwo(callIvs, t.passStart, t.passEnd), "fraction"},
		"campaign.job_key_us":               {med("campaign.job_key", time.Microsecond), "us"},
		"campaign.wire_roundtrip_us":        {med("campaign.wire_roundtrip", time.Microsecond), "us"},
		"cluster.leases_per_job":            {ratio(t.counts["cluster.leases_issued"], t.counts["server.cache_misses"]), "leases/job"},
		"cluster.empty_lease_polls_per_job": {ratio(t.counts["cluster.empty_lease_polls"], float64(members)), "polls/job"},
		"cluster.requeues":                  {t.counts["cluster.requeues"], "count"},
		"cluster.wal_compactions":           {t.counts["cluster.wal_compactions"], "count"},
		"cluster.worker_busy_frac":          {ratio(busy.Seconds(), wall*workers), "fraction"},
		"server.cache_hit_ratio":            {ratio(t.counts["server.cache_hits"], t.counts["server.cache_hits"]+t.counts["server.cache_misses"]), "fraction"},
		"server.outside_sim_frac":           {outsideFrac, "fraction"},
	}

	extra := map[string]metric{}
	for _, x := range []struct {
		name, obs string
		unit      time.Duration
		label     string
	}{
		{"cluster.lease_rtt_ms", "cluster.lease_rtt", time.Millisecond, "ms"},
		{"cluster.results_rtt_ms", "cluster.results_rtt", time.Millisecond, "ms"},
		{"server.submit_ms", "server.submit", time.Millisecond, "ms"},
		{"server.result_ms", "server.result", time.Millisecond, "ms"},
		{"campaign.spec_jobs_us", "campaign.spec_jobs", time.Microsecond, "us"},
		{"campaign.aggregate_us", "campaign.aggregate", time.Microsecond, "us"},
	} {
		if len(t.obs[x.obs]) > 0 {
			extra[x.name] = metric{med(x.obs, x.unit), x.label}
		}
	}
	if workers > 0 {
		extra["cluster.wal_append_ms"] = metric{t.counts["cluster.wal_append_ms"], "ms"}
		extra["cluster.wal_fsync_ms"] = metric{t.counts["cluster.wal_fsync_ms"], "ms"}
	}
	if len(lags) > 0 {
		extra["server.sse_done_lag_ms"] = metric{median(lags), "ms"}
	}
	return m, extra
}
