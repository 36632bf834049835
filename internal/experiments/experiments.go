// Package experiments regenerates every table and figure of the paper's
// evaluation: one function per figure, each returning structured rows that
// cmd/mflushbench renders.
//
// All experiments run the same synthetic workloads through the same
// machine for every policy, so differences are attributable to the IFetch
// policy alone. Every figure and ablation is a workload × variant grid
// (grid), run in parallel on the campaign scheduler (internal/campaign),
// the same worker pool that backs cmd/mflushsweep.
package experiments

import (
	"context"
	"fmt"

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

// grid runs every workload under every variant through the campaign
// scheduler (bounded parallelism) and returns the results workload-major:
// res[i][k] is ws[i] under variants[k]. A variant sets the policy and,
// for ablations, a machine Tweak; grid fills in the workload and cfg's
// scale.
func grid(cfg Config, ws []workload.Workload, variants []sim.Options) ([][]*sim.Result, error) {
	opts := make([]sim.Options, 0, len(ws)*len(variants))
	for _, w := range ws {
		for _, v := range variants {
			v.Workload, v.Warmup, v.Cycles, v.Seed = w, cfg.Warmup, cfg.Cycles, cfg.Seed
			opts = append(opts, v)
		}
	}
	res, err := campaign.RunAll(context.Background(), opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := make([][]*sim.Result, len(ws))
	for i := range out {
		out[i] = res[i*len(variants) : (i+1)*len(variants)]
	}
	return out, nil
}

// policies returns one grid variant per spec, on the unmodified machine.
func policies(specs ...sim.PolicySpec) []sim.Options {
	vs := make([]sim.Options, len(specs))
	for k, p := range specs {
		vs[k].Policy = p
	}
	return vs
}

// multicore returns the 4W, 6W and 8W workloads that Figures 8 and 11
// evaluate.
func multicore() []workload.Workload {
	var ws []workload.Workload
	for _, size := range []int{4, 6, 8} {
		ws = append(ws, workload.OfSize(size)...)
	}
	return ws
}

// Figure2Row is one bar pair of Figure 2: single-core SMT throughput under
// ICOUNT and speculative FLUSH-S30.
type Figure2Row struct {
	Workload string
	ICOUNT   float64
	FlushS30 float64
	// Speedup is FLUSH-S30 over ICOUNT as a fraction.
	Speedup float64
}

// Figure2 reproduces the paper's Figure 2: all 2-thread workloads on one
// SMT core, ICOUNT vs FLUSH-S30. The paper reports speedups up to 93%
// with a 22% average.
func Figure2(cfg Config) ([]Figure2Row, float64, error) {
	ws := workload.OfSize(2)
	res, err := grid(cfg, ws, policies(sim.SpecICOUNT, sim.SpecFlushS(30)))
	if err != nil {
		return nil, 0, err
	}
	rows := make([]Figure2Row, len(ws))
	var speedups []float64
	for i, w := range ws {
		ic, fl := res[i][0], res[i][1]
		rows[i] = Figure2Row{
			Workload: w.Name, ICOUNT: ic.IPC, FlushS30: fl.IPC,
			Speedup: sim.Speedup(fl, ic),
		}
		speedups = append(speedups, rows[i].Speedup)
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
	var rows []Figure3Row
	for _, size := range workload.Sizes() {
		ws := workload.OfSize(size)
		res, err := grid(cfg, ws, policies(sim.SpecICOUNT, sim.SpecFlushS(30)))
		if err != nil {
			return nil, err
		}
		row := Figure3Row{Threads: size, Cores: (size + 1) / 2}
		var speedups []float64
		for _, r := range res {
			ic, fl := r[0], r[1]
			row.ICOUNT += ic.IPC / float64(len(ws))
			row.FlushS30 += fl.IPC / float64(len(ws))
			speedups = append(speedups, sim.Speedup(fl, ic))
		}
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
func Figure4(cfg Config) ([]Figure4Row, error) {
	ws := workload.All()
	res, err := grid(cfg, ws, policies(sim.SpecICOUNT))
	if err != nil {
		return nil, err
	}
	bySize := map[int]*stats.Histogram{}
	for i, w := range ws {
		h := res[i][0].HitLatency
		if merged := bySize[w.Threads()]; merged != nil {
			merged.Merge(h)
		} else {
			bySize[w.Threads()] = h
		}
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
	w3, _ := workload.ByName("8W3")
	targets := []workload.Workload{w3, workload.BzipTwolf8}
	var specs []sim.PolicySpec
	var labels []string
	for _, trig := range Figure5Triggers {
		specs = append(specs, sim.SpecFlushS(trig))
		labels = append(labels, fmt.Sprintf("FL-S%d", trig))
	}
	specs = append(specs, sim.SpecFlushNS)
	labels = append(labels, "FL-NS")
	res, err := grid(cfg, targets, policies(specs...))
	if err != nil {
		return nil, err
	}
	var rows []Figure5Row
	for i, w := range targets {
		for k, r := range res[i] {
			rows = append(rows, Figure5Row{Workload: w.Name, Policy: labels[k], IPC: r.IPC})
		}
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

// Figure8Policies are the four policies Figure 8 compares.
var Figure8Policies = []sim.PolicySpec{
	sim.SpecICOUNT, sim.SpecFlushS(30), sim.SpecFlushS(100), sim.SpecMFLUSH,
}

// Figure8 reproduces the throughput evaluation: ICOUNT, FLUSH-S30,
// FLUSH-S100 and MFLUSH on every multicore workload (4W/6W/8W). The
// paper's headline: MFLUSH within ~2% of FLUSH-S100 on average, ahead on
// some workloads, while FLUSH-S30 can lose to ICOUNT.
func Figure8(cfg Config) ([]Figure8Row, error) {
	ws := multicore()
	res, err := grid(cfg, ws, policies(Figure8Policies...))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure8Row, len(ws))
	for i, w := range ws {
		r := res[i]
		rows[i] = Figure8Row{
			Workload: w.Name,
			ICOUNT:   r[0].IPC, FlushS30: r[1].IPC, FlushS100: r[2].IPC, MFLUSH: r[3].IPC,
		}
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
	// Committed instructions under MFLUSH, for normalisation.
	MFLUSHCommitted uint64
}

// Figure11 reproduces the Wasted Energy evaluation. The paper's headline:
// MFLUSH wastes ~20% less energy than FLUSH-S100 (the best performer),
// and FLUSH-S100 wastes ~10% more than FLUSH-S30.
func Figure11(cfg Config) ([]Figure11Row, error) {
	ws := multicore()
	res, err := grid(cfg, ws, policies(sim.SpecFlushS(30), sim.SpecFlushS(100), sim.SpecMFLUSH))
	if err != nil {
		return nil, err
	}
	rows := make([]Figure11Row, len(ws))
	for i, w := range ws {
		r := res[i]
		rows[i] = Figure11Row{
			Workload:        w.Name,
			FlushS30:        r[0].WastedEnergy(),
			FlushS100:       r[1].WastedEnergy(),
			MFLUSH:          r[2].WastedEnergy(),
			MFLUSHCommitted: r[2].Energy.Committed(),
		}
	}
	return rows, nil
}

// Figure11Averages returns total wasted energy per policy and the MFLUSH
// saving versus FLUSH-S100 as a fraction.
func Figure11Averages(rows []Figure11Row) (s30, s100, mflush, savingVsS100 float64) {
	for _, r := range rows {
		s30 += r.FlushS30
		s100 += r.FlushS100
		mflush += r.MFLUSH
	}
	if s100 > 0 {
		savingVsS100 = 1 - mflush/s100
	}
	return
}
