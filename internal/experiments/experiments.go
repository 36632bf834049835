// Package experiments regenerates every table and figure of the paper's
// evaluation: one function per figure, each returning structured rows that
// cmd/mflushbench renders.
//
// All experiments run the same synthetic workloads through the same
// machine for every policy, so differences are attributable to the IFetch
// policy alone. Every figure and ablation declares a campaign.Spec — its
// workloads, policies and, for the ablations, machine tweaks — runs it on
// the campaign scheduler (internal/campaign), the executor behind
// cmd/mflushsweep and mflushd, and folds the records into its rows. The
// records come back in job order: workload-major, then policy, then
// tweak.
package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/campaign"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config scales the experiment suite. The defaults trade the paper's
// 120M-cycle runs for laptop-scale runs that preserve the steady-state
// shapes.
type Config struct {
	// Warmup cycles run before measurement to populate caches,
	// predictors and TLBs.
	Warmup uint64
	// Cycles is the measured window ("all simulations are executed for
	// a fixed interval" — paper methodology).
	Cycles uint64
	// Seed drives workload synthesis.
	Seed uint64
}

// Default is the full-quality configuration used by cmd/mflushbench.
var Default = Config{Warmup: 300000, Cycles: 200000, Seed: 1}

// Quick is a reduced configuration (mflushbench -quick).
var Quick = Config{Warmup: 60000, Cycles: 60000, Seed: 1}

// run executes spec at cfg's scale — its budget and the one seed
// cfg.Seed — on the campaign scheduler, simulating each job through
// runner (nil: sim.Run), and returns one record per job in job order.
func run(cfg Config, spec campaign.Spec, runner func(sim.Options) (*sim.Result, error)) ([]campaign.Record, error) {
	spec.Warmup, spec.Cycles, spec.Seeds = cfg.Warmup, cfg.Cycles, []uint64{cfg.Seed}
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	return (&campaign.Scheduler{Runner: runner}).Run(context.Background(), jobs, nil)
}

// ofSize names the Figure 1 workloads of the given thread counts, size
// by size in table order.
func ofSize(sizes ...int) []string {
	var names []string
	for _, size := range sizes {
		for _, w := range workload.OfSize(size) {
			names = append(names, w.Name)
		}
	}
	return names
}

// Figure2Row is one bar pair of Figure 2: single-core SMT throughput under
// ICOUNT and speculative FLUSH-S30.
type Figure2Row struct {
	Workload string
	ICOUNT   float64
	FlushS30 float64
	// Speedup is FLUSH-S30 over ICOUNT as a fraction, NaN or infinite
	// when ICOUNT committed nothing.
	Speedup float64
}

// Figure2 reproduces the paper's Figure 2: all 2-thread workloads on one
// SMT core, ICOUNT vs FLUSH-S30. The paper reports speedups up to 93%
// with a 22% average.
func Figure2(cfg Config) ([]Figure2Row, float64, error) {
	recs, err := run(cfg, campaign.Spec{Workloads: ofSize(2), Policies: []string{"ICOUNT", "FL-S30"}}, nil)
	if err != nil {
		return nil, 0, err
	}
	var rows []Figure2Row
	var speedups []float64
	for pair := range slices.Chunk(recs, 2) {
		ic, fl := pair[0].Summary.IPC, pair[1].Summary.IPC
		rows = append(rows, Figure2Row{Workload: pair[0].Workload, ICOUNT: ic, FlushS30: fl, Speedup: fl/ic - 1})
		speedups = append(speedups, fl/ic-1)
	}
	return rows, stats.Mean(speedups), nil
}

// Figure3Row is one bar group of Figure 3: per-workload-size average
// throughput across the CMP+SMT configurations.
type Figure3Row struct {
	Threads, Cores   int
	ICOUNT, FlushS30 float64 // average system IPC over the 5 workloads
	AvgSpeedup       float64 // average per-workload FLUSH-S30 speedup
}

// Figure3 reproduces Figure 3: as SMT cores are replicated, the FLUSH
// advantage shrinks and becomes a slowdown at 4 cores.
func Figure3(cfg Config) ([]Figure3Row, error) {
	recs, err := run(cfg, campaign.Spec{Workloads: ofSize(workload.Sizes()...), Policies: []string{"ICOUNT", "FL-S30"}}, nil)
	if err != nil {
		return nil, err
	}
	var rows []Figure3Row
	for _, size := range workload.Sizes() {
		n := len(workload.OfSize(size))
		row := Figure3Row{Threads: size, Cores: (size + 1) / 2}
		var speedups []float64
		for pair := range slices.Chunk(recs[:2*n], 2) {
			ic, fl := pair[0].Summary.IPC, pair[1].Summary.IPC
			row.ICOUNT += ic / float64(n)
			row.FlushS30 += fl / float64(n)
			speedups = append(speedups, fl/ic-1)
		}
		recs = recs[2*n:]
		row.AvgSpeedup = stats.Mean(speedups)
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure4Row summarises the L2 hit-time distribution for one core count.
type Figure4Row struct {
	Threads, Cores int
	Hits           uint64
	Mean           float64
	P50, P90, Max  int
	// Frac20to70 is the paper's observation metric: the share of L2
	// hits taking 20-70 cycles.
	Frac20to70 float64
	// Buckets holds 10-cycle-wide bins of the distribution, 0..150+.
	Buckets []uint64
}

// Figure4 reproduces Figure 4: the average L2 cache hit time measured
// from load issue, under ICOUNT (which "does not alter the L2 access
// pattern"), for each machine size. Dispersion grows with core count.
//
// A record carries only a summary of its hit-latency histogram, so the
// scheduler's runner merges each whole histogram into its machine size's
// as the job completes. Merging is commutative, so the rows do not
// depend on completion order.
func Figure4(cfg Config) ([]Figure4Row, error) {
	var mu sync.Mutex
	bySize := map[int]*stats.Histogram{}
	merge := func(o sim.Options) (*sim.Result, error) {
		res, err := sim.Run(o)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if h := bySize[o.Workload.Threads()]; h != nil {
			h.Merge(res.HitLatency)
		} else {
			// A copy: the scheduler still summarises res.
			bySize[o.Workload.Threads()] = res.HitLatency.Clone()
		}
		return res, nil
	}
	if _, err := run(cfg, campaign.Spec{Workloads: ofSize(workload.Sizes()...), Policies: []string{"ICOUNT"}}, merge); err != nil {
		return nil, err
	}
	var rows []Figure4Row
	for _, size := range workload.Sizes() {
		h := bySize[size]
		buckets, over := h.Buckets(10)
		view := make([]uint64, 16)
		copy(view, buckets)
		view[15] += over
		for _, b := range buckets[16:] {
			view[15] += b
		}
		rows = append(rows, Figure4Row{
			Threads: size, Cores: (size + 1) / 2,
			Hits: h.Count(), Mean: h.Mean(),
			P50: h.Percentile(0.5), P90: h.Percentile(0.9), Max: h.Max(),
			Frac20to70: h.FracBetween(20, 70),
			Buckets:    view,
		})
	}
	return rows, nil
}

// Figure5Row is one line point of Figure 5: throughput for one Detection
// Moment choice on one workload.
type Figure5Row struct {
	Workload string
	Policy   string
	IPC      float64
}

// Figure5Triggers are the speculative triggers the paper sweeps.
var Figure5Triggers = []int{30, 50, 70, 90, 110, 130, 150}

// Figure5 reproduces the Detection Moment analysis on (a) 8W3 and (b) the
// bzip2/twolf mix: the best trigger is workload-dependent and FL-NS can
// beat every static trigger.
func Figure5(cfg Config) ([]Figure5Row, error) {
	spec := campaign.Spec{Workloads: []string{"8W3", workload.BzipTwolf8.Name}}
	for _, trig := range Figure5Triggers {
		spec.Policies = append(spec.Policies, fmt.Sprintf("FL-S%d", trig))
	}
	spec.Policies = append(spec.Policies, "FL-NS")
	recs, err := run(cfg, spec, nil)
	if err != nil {
		return nil, err
	}
	rows := make([]Figure5Row, len(recs))
	for i, r := range recs {
		rows[i] = Figure5Row{Workload: r.Workload, Policy: spec.Policies[i%len(spec.Policies)], IPC: r.Summary.IPC}
	}
	return rows, nil
}

// Figure8Row is one workload's bar group in Figure 8.
type Figure8Row struct {
	Workload  string
	ICOUNT    float64
	FlushS30  float64
	FlushS100 float64
	MFLUSH    float64
}

// Figure8 reproduces the throughput evaluation: ICOUNT, FLUSH-S30,
// FLUSH-S100 and MFLUSH on every multicore workload (4W/6W/8W). The
// paper's headline: MFLUSH within ~2% of FLUSH-S100 on average, ahead on
// some workloads, while FLUSH-S30 can lose to ICOUNT.
func Figure8(cfg Config) ([]Figure8Row, error) {
	recs, err := run(cfg, campaign.Spec{
		Workloads: ofSize(4, 6, 8),
		Policies:  []string{"ICOUNT", "FL-S30", "FL-S100", "MFLUSH"},
	}, nil)
	if err != nil {
		return nil, err
	}
	var rows []Figure8Row
	for r := range slices.Chunk(recs, 4) {
		rows = append(rows, Figure8Row{
			Workload: r[0].Workload,
			ICOUNT:   r[0].Summary.IPC, FlushS30: r[1].Summary.IPC,
			FlushS100: r[2].Summary.IPC, MFLUSH: r[3].Summary.IPC,
		})
	}
	return rows, nil
}

// Figure8Averages folds Figure 8 rows into policy means.
func Figure8Averages(rows []Figure8Row) (icount, s30, s100, mflush float64) {
	n := float64(len(rows))
	if n == 0 {
		return
	}
	for _, r := range rows {
		icount += r.ICOUNT / n
		s30 += r.FlushS30 / n
		s100 += r.FlushS100 / n
		mflush += r.MFLUSH / n
	}
	return
}

// Figure11Row is one workload's wasted-energy comparison.
type Figure11Row struct {
	Workload string
	// Wasted energy in energy units (the cost of re-fetching flushed
	// instructions) for each flushing policy.
	FlushS30, FlushS100, MFLUSH float64
}

// Figure11 reproduces the Wasted Energy evaluation. The paper's headline:
// MFLUSH wastes ~20% less energy than FLUSH-S100 (the best performer),
// and FLUSH-S100 wastes ~10% more than FLUSH-S30.
func Figure11(cfg Config) ([]Figure11Row, error) {
	recs, err := run(cfg, campaign.Spec{
		Workloads: ofSize(4, 6, 8),
		Policies:  []string{"FL-S30", "FL-S100", "MFLUSH"},
	}, nil)
	if err != nil {
		return nil, err
	}
	var rows []Figure11Row
	for r := range slices.Chunk(recs, 3) {
		rows = append(rows, Figure11Row{
			Workload:  r[0].Workload,
			FlushS30:  r[0].Summary.WastedEnergy,
			FlushS100: r[1].Summary.WastedEnergy,
			MFLUSH:    r[2].Summary.WastedEnergy,
		})
	}
	return rows, nil
}

// Figure11Averages returns total wasted energy per policy and the MFLUSH
// saving versus FLUSH-S100 as a fraction, NaN or infinite when FLUSH-S100
// wasted nothing.
func Figure11Averages(rows []Figure11Row) (s30, s100, mflush, savingVsS100 float64) {
	for _, r := range rows {
		s30 += r.FlushS30
		s100 += r.FlushS100
		mflush += r.MFLUSH
	}
	return s30, s100, mflush, 1 - mflush/s100
}
